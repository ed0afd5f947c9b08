"""Dense mod-p linear algebra, univariate splitting, conjugacy, and
indecomposability certificates."""

import collections
import functools
import hashlib
import json
import random
import time
import tracemalloc
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from oracles import solve

from cmwild import matalg
from cmwild.errors import CmwildError, InputError
from cmwild.matalg import (
    SAMPLES,
    _idempotent_from_element,
    _word_invariants,
    as_matrix,
    combine,
    commutant_basis,
    coprime_split,
    endomorphism_indecomposability,
    identity_matrix,
    intertwiner_basis,
    is_invertible,
    mat_mul,
    mat_pow,
    min_poly,
    nullspace,
    rank,
    ranks,
    rref,
    simultaneous_conjugacy,
    solve_many,
    trace_form_radical,
    u_bezout,
    u_deg,
    u_divmod,
    u_gcd,
    u_monic,
    u_mul,
    u_powmod,
)

P = 32003


# ------------------------------------------------------------ dense solver


def inverse(A, p):
    """A^-1 for an invertible A, column by column from the solver."""
    return np.stack(solve_many(A, identity_matrix(A.shape[0]), p), axis=1)


def brute_rref(A, p):
    """Reduced row echelon form on lists of Python ints, written
    independently of the library routine; returns (R, pivots)."""
    M = [[int(x) % p for x in row] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def brute_rank(A, p):
    return len(brute_rref(A, p)[1])


def test_rank_matches_independent_row_reduction():
    rng = random.Random(7)
    for p in (2, 3, 101, P):
        for _ in range(25):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            A = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            assert rank(as_matrix(A, p), p) == brute_rank(A, p)


def test_nullspace_and_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        A = as_matrix(
            [[rng.randrange(P) for _ in range(cols)] for _ in range(rows)], P
        )
        ns = nullspace(A, P)
        assert rank(A, P) + len(ns) == cols
        for v in ns:
            assert not np.any(mat_mul(A, v.reshape(-1, 1), P))
        if len(ns):
            assert rank(ns, P) == len(ns)


def test_solve_and_inverse():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(1, 5)
        A = as_matrix([[rng.randrange(P) for _ in range(n)] for _ in range(n)], P)
        b = np.array([rng.randrange(P) for _ in range(n)], dtype=np.int64)
        x = solve(A, b, P)
        if x is not None:
            assert np.array_equal(mat_mul(A, x.reshape(-1, 1), P).reshape(-1), b % P)
        else:
            aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
            assert rank(aug, P) > rank(A, P)
        # A X = I is solvable exactly when A is invertible
        cols = solve_many(A, identity_matrix(n), P)
        if is_invertible(A, P):
            assert np.array_equal(mat_mul(A, np.stack(cols, axis=1), P), identity_matrix(n))
        else:
            assert rank(A, P) < n
            assert any(c is None for c in cols)


def test_mat_mul_chunked_large_characteristic():
    p = 2147483647  # Mersenne prime just under the characteristic cap
    A = as_matrix([[p - 1, p - 2, p - 3, p - 5, p - 7]] * 4, p)
    B = as_matrix([[p - 1] * 3] * 5, p)
    got = mat_mul(A, B, p)
    for i in range(4):
        for j in range(3):
            want = sum(int(A[i, k]) * int(B[k, j]) for k in range(5)) % p
            assert int(got[i, j]) == want


def test_as_matrix_refuses_non_integer_entries():
    for data in ([[0.5]], [["3"]], [[True]], [[1, True]], np.array([[1.0]])):
        with pytest.raises(InputError, match="integers"):
            as_matrix(data, 7)


def test_as_matrix_reduces_large_integers_exactly():
    # 2**70 = 2 and 2**64 = 2 mod 7
    assert as_matrix([[2**70, -(2**70)], [2**64 - 1, -3]], 7).tolist() == [[2, 5], [1, 4]]
    assert as_matrix(np.array([[2**64 - 1]], dtype=np.uint64), 7).tolist() == [[1]]
    assert as_matrix(np.zeros((0, 0)), 7).dtype == np.int64


RANK_PRIMES = (2, 3, 5, P, 2**31 - 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ranks_match_rank_slice_by_slice(data):
    p = data.draw(st.sampled_from(RANK_PRIMES))
    shape = data.draw(st.sampled_from(("row", "column", "any")))
    k = data.draw(st.integers(1, 7))
    if shape == "row":
        rows, cols = 1, k
    elif shape == "column":
        rows, cols = k, 1
    else:
        rows, cols = data.draw(st.integers(0, 7)), k
    count = data.draw(st.integers(0, 5))
    # mostly few distinct values, so ranks fall short of full
    values = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    stack = np.array(
        [[[data.draw(values) for _ in range(cols)] for _ in range(rows)] for _ in range(count)],
        dtype=np.int64,
    ).reshape(count, rows, cols)
    if count and data.draw(st.booleans()):
        stack[data.draw(st.integers(0, count - 1))] = 0
    if rows >= 3 and data.draw(st.booleans()):
        stack[:, -1] = (stack[:, 0] + 2 * stack[:, 1]) % p
    got = ranks(stack, p)
    event(f"{shape}, ranks {got}"[:40])
    assert got == [rank(W, p) for W in stack]
    assert all(type(r) is int for r in got)


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_stacked_products_match_slice_by_slice(p):
    # at 2**31 - 1 the inner dimension is chunked one term at a time
    rng = np.random.default_rng(3)
    A = rng.integers(0, p, size=(2, 3, 4, 5))
    B = rng.integers(0, p, size=(3, 5, 2))
    got = mat_mul(A, B, p)
    assert got.shape == (2, 3, 4, 2)
    assert np.array_equal(got, (A.astype(object) @ B.astype(object)) % p)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(got[i, j], mat_mul(A[i, j], B[j], p))
    S = rng.integers(0, p, size=(4, 3, 3))
    for e in (0, 1, 5, p):
        assert np.array_equal(mat_pow(S, e, p), np.stack([mat_pow(W, e, p) for W in S]))
    # e = 0 gives writable identity copies, not one broadcast identity
    eye = mat_pow(S, 0, p)
    eye[0, 0, 0] = 7
    assert eye[1, 0, 0] == 1


def test_rref_preserves_row_space():
    rng = random.Random(17)
    for _ in range(10):
        A = as_matrix(
            [[rng.randrange(P) for _ in range(4)] for _ in range(3)], P
        )
        R, pivots = rref(A, P)
        assert rank(np.concatenate([A, R[: len(pivots)]]), P) == len(pivots)


PRIMES = (2, 3, 101, P, 2**31 - 1)


def random_matrix(rng, rows, cols, p, density):
    return [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def assert_rref_matches_reference(A, p):
    R, pivots = rref(as_matrix(A, p), p)
    want_R, want_pivots = brute_rref(A, p)
    assert pivots == want_pivots
    assert R.tolist() == want_R
    # the kernel read off the same form has the right size and is a kernel
    ns = nullspace(as_matrix(A, p), p)
    assert len(ns) == len(A[0]) - len(pivots)
    if len(ns):
        assert not mat_mul(as_matrix(A, p), ns.T, p).any()


def test_rref_matches_reference_on_tall_sparse_inputs():
    # few nonzeros per column: most pivot steps update only touched rows
    rng = random.Random(23)
    for p in PRIMES:
        for density in (0.02, 0.035, 0.05):
            for _ in range(3):
                A = random_matrix(rng, 60, 30, p, density)
                assert_rref_matches_reference(A, p)


def test_rref_matches_reference_on_dense_and_degenerate_inputs():
    rng = random.Random(29)
    for p in PRIMES:
        for rows, cols in ((8, 8), (12, 5), (5, 12), (30, 20)):
            A = random_matrix(rng, rows, cols, p, 1.0)
            assert_rref_matches_reference(A, p)
            # dependent rows: later rows are combinations of the first two
            dep = [row[:] for row in A]
            for i in range(2, rows):
                a, b = rng.randrange(p), rng.randrange(p)
                dep[i] = [(a * x + b * y) % p for x, y in zip(A[0], A[1])]
            assert_rref_matches_reference(dep, p)
            # zero rows and zero columns scattered through a sparse matrix
            holes = random_matrix(rng, rows, cols, p, 0.3)
            for i in range(0, rows, 3):
                holes[i] = [0] * cols
            for row in holes:
                for j in range(1, cols, 4):
                    row[j] = 0
            assert_rref_matches_reference(holes, p)
        assert_rref_matches_reference([[0] * 7 for _ in range(9)], p)


def test_rref_matches_reference_on_intertwiner_system():
    # the Kronecker system of sigma A = B sigma (kron_intertwiner_basis,
    # the oracle of intertwiner_basis) for two members of the Fermat
    # quartic family: tall and mostly zero
    from cmwild.family import FamilySpec, action_matrices, build_family_member
    from cmwild.rings import QuotientRing

    ring = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)
    acts = []
    for ax, ay in ((1, 2), (3, 6)):
        spec = FamilySpec(ring, ["x^2", "y^2"], 4, [[ax]], Ay=[[ay]])
        acts.append(action_matrices(build_family_member(spec))[0])
    n = acts[0][0].shape[0]
    eye = identity_matrix(n)
    system = np.concatenate(
        [(np.kron(eye, A.T) - np.kron(B, eye)) % P for A, B in zip(*acts)]
    )
    assert system.shape == (3 * n * n, n * n)
    assert_rref_matches_reference(system.tolist(), P)


# rref reduces the whole matrix every room = (2^63 - p) // (p - 1)^2 pivot
# steps: 8 at 1073741789 and 2 at 2^31 - 1, so the shapes below take more
# pivots than that
LAZY_PRIMES = (2, 3, P, 1073741789, 2**31 - 1)


def lazy_rref_input(kind, mode, p, rng):
    """A matrix of the given shape kind, its entries congruent to reduced
    ones and shifted by multiples of p as the mode says."""
    if kind == "tall_sparse":
        # like the intertwiner systems: 3x as many rows, a few nonzeros
        # per column
        cols = int(rng.integers(12, 41))
        rows = 3 * cols
        density = rng.uniform(0.7, 1.5) / cols
        M = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < density)
    elif kind == "wide":
        # like the canonical-basis step: d rows of length m * n
        rows = int(rng.integers(9, 21))
        M = rng.integers(0, p, (rows, rows * int(rng.integers(3, 11))))
    else:
        rows, cols = (int(x) for x in rng.integers(10, 41, size=2))
        k = int(rng.integers(3, min(rows, cols)))
        U = rng.integers(0, p, (rows, k)).astype(object)
        V = rng.integers(0, p, (k, cols)).astype(object)
        M = ((U @ V) % p).astype(np.int64)
    if mode == "reduced":
        return M
    if mode == "small":
        K = rng.integers(-2, 3, M.shape)
    else:
        K = rng.integers(-(2**63 // p), (2**63 - p) // p, M.shape, endpoint=True)
    return M + p * K


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from(LAZY_PRIMES),
    kind=st.sampled_from(("tall_sparse", "wide", "rank_deficient")),
    mode=st.sampled_from(("reduced", "small", "int64")),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=2**31 - 1, kind="wide", mode="int64", seed=0)
@example(p=1073741789, kind="wide", mode="small", seed=1)
@example(p=1073741789, kind="tall_sparse", mode="int64", seed=2)
@example(p=2**31 - 1, kind="rank_deficient", mode="reduced", seed=3)
def test_lazy_rref_matches_the_reference(p, kind, mode, seed):
    rng = np.random.default_rng(seed)
    A = lazy_rref_input(kind, mode, p, rng)
    rows, cols = A.shape
    want_R, want_pivots = brute_rref(A.tolist(), p)
    room = (2**63 - 1 - (p - 1)) // (p - 1) ** 2
    event(f"{kind}, {'more' if len(want_pivots) > room else 'no more'} pivots than room")
    R, pivots = rref(A, p)
    assert R.dtype == np.int64
    assert ((R >= 0) & (R < p)).all()
    assert pivots == want_pivots
    assert R.tolist() == want_R
    assert rank(A, p) == len(want_pivots)
    # the canonical kernel basis: e_f minus the pivot entries of column f
    want_ns = []
    for f in (c for c in range(cols) if c not in want_pivots):
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(want_pivots):
            v[c] = -want_R[i][f] % p
        want_ns.append(v)
    ns = nullspace(A, p)
    assert ns.shape == (len(want_ns), cols) and ns.tolist() == want_ns
    # an image of A is consistent; a random right-hand side usually is not
    x = rng.integers(0, p, cols).astype(object)
    image = (A.astype(object) @ x) % p
    B = np.stack([image, rng.integers(0, p, rows)], axis=1).astype(np.int64)
    B += p * rng.integers(-2, 3, B.shape)
    consistent = [True, brute_rank(np.column_stack([A, B[:, 1]]).tolist(), p) == len(want_pivots)]
    for j, got in enumerate(solve_many(A, B, p)):
        assert (got is not None) == consistent[j]
        if got is None:
            continue
        # free variables are zero, which makes the solution unique
        assert all(0 <= v < p for v in got.tolist())
        assert all(got[c] == 0 for c in range(cols) if c not in want_pivots)
        lhs = [sum(int(a) * int(v) for a, v in zip(row, got)) % p for row in A.tolist()]
        assert lhs == [int(b) % p for b in B[:, j]]


def test_solve_many_rhs_pivot_before_consistent_column():
    # column 0 is inconsistent, so it takes a pivot in the rhs part and the
    # consistent column after it is reduced against that pivot row
    A = as_matrix([[1, 2], [2, 4], [0, 0]], P)
    B = as_matrix([[0, 3], [1, 6], [0, 0]], P)
    x0, x1 = solve_many(A, B, P)
    assert x0 is None
    assert np.array_equal(mat_mul(A, x1.reshape(-1, 1), P).reshape(-1), B[:, 1])
    rng = random.Random(31)
    for p in PRIMES:
        for _ in range(4):
            # tall, sparse and rank-deficient: random columns are almost
            # never in the column space, images of A always are
            A = as_matrix(random_matrix(rng, 40, 12, p, 0.08), p)
            cols = []
            for j in range(6):
                if j % 2:
                    x = as_matrix([[rng.randrange(p)] for _ in range(12)], p)
                    cols.append(mat_mul(A, x, p))
                else:
                    cols.append(as_matrix(random_matrix(rng, 40, 1, p, 0.3), p))
            B = np.concatenate(cols, axis=1)
            for j, x in enumerate(solve_many(A, B, p)):
                b = B[:, j]
                if x is None:
                    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
                    assert brute_rank(aug.tolist(), p) > brute_rank(A.tolist(), p)
                else:
                    assert np.array_equal(mat_mul(A, x.reshape(-1, 1), p).reshape(-1), b)
                if j % 2:
                    assert x is not None


# -------------------------------------------------------------- univariate


def test_min_poly_frozen():
    J3 = as_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]], P)
    assert min_poly(J3, P) == [0, 0, 0, 1]
    assert min_poly(identity_matrix(2), P) == [P - 1, 1]
    D = as_matrix([[1, 0], [0, 2]], P)
    # (T-1)(T-2) = T^2 - 3T + 2
    assert min_poly(D, P) == [2, P - 3, 1]


def test_min_poly_annihilates():
    rng = random.Random(19)
    from cmwild.matalg import u_eval_matrix

    for _ in range(10):
        n = rng.randrange(1, 5)
        A = as_matrix([[rng.randrange(P) for _ in range(n)] for _ in range(n)], P)
        mu = min_poly(A, P)
        assert mu[-1] == 1
        assert u_deg(mu) <= n
        assert not u_eval_matrix(mu, A, P).any()


def test_bezout_identity():
    rng = random.Random(23)
    for p in (2, 101, P):
        for _ in range(50):
            f = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            d, u, v = u_bezout(f, g, p)
            lhs = [
                (a + b) % p
                for a, b in zip(
                    u_mul(u, f, p) + [0] * 20, u_mul(v, g, p) + [0] * 20
                )
            ]
            while lhs and lhs[-1] == 0:
                lhs.pop()
            assert lhs == d
            assert d == u_gcd(f, g, p)


def test_coprime_split_cases():
    rng = random.Random(29)
    # T^2 (T+1) over F_2
    split = coprime_split([0, 0, 1, 1], 2, rng)
    assert split is not None
    g, h = split
    assert u_mul(g, h, 2) == u_monic([0, 0, 1, 1], 2)
    assert u_gcd(g, h, 2) == [1]
    assert u_deg(g) >= 1 and u_deg(h) >= 1
    # irreducible over F_2, and its square, are prime powers
    assert coprime_split([1, 1, 1], 2, rng) is None
    assert coprime_split(u_mul([1, 1, 1], [1, 1, 1], 2), 2, rng) is None
    # distinct linear factors over F_5
    mu = u_mul([0, 1], u_mul([4, 1], [3, 1], 5), 5)
    split = coprime_split(mu, 5, rng)
    assert split is not None
    g, h = split
    assert u_mul(g, h, 5) == u_monic(mu, 5)
    assert u_gcd(g, h, 5) == [1]
    # T^2 + 1 is irreducible mod 32003 (p = 3 mod 4)
    assert coprime_split([1, 0, 1], P, rng) is None
    # characteristic 2, vanishing derivative: T^2 + 1 = (T + 1)^2 is a
    # prime power, and T^3 + T = T (T + 1)^2 splits into T and (T + 1)^2
    assert coprime_split([1, 0, 1], 2, rng) is None
    assert sorted(coprime_split([0, 1, 0, 1], 2, rng)) == [[0, 1], [1, 0, 1]]


# The exact splits of seeded minimal polynomials, and the next draw of the
# generator after each: the idempotent witnesses are polynomials in the
# split factors, and the equal-degree split draws from the same generator
# as the decision that calls it.  Hashed as the SHA-256 of the JSON list of
# [p, mu, split, next draw].
SPLIT_PRIMES = (2, 3, 5, 7, 31, P)
SPLIT_DIGEST = "76aa2818f493b5672a539e5caa0f33d49ef2ebee3d3bffad59f2e4686511b3e6"


def seeded_mu(rng, p):
    """A product of 1-3 random monic factors of degree 1-3 (of one common
    degree a third of the time), each to a power 1-3, or a random monic
    polynomial of degree 1-9."""
    shape = rng.randrange(3)
    if shape == 2:
        return [rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1]
    mu, common = [1], rng.randint(1, 3)
    for _ in range(rng.randint(1, 3)):
        d = common if shape == 1 else rng.randint(1, 3)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        for _ in range(rng.randint(1, 3)):
            mu = u_mul(mu, f, p)
    return mu


def test_coprime_splits_of_seeded_polynomials_are_pinned():
    cases, drew = [], 0
    for p in SPLIT_PRIMES:
        for i in range(50):
            rng = random.Random(f"{p}-{i}")
            mu = seeded_mu(rng, p)
            state = rng.getstate()
            split = coprime_split(mu, p, rng)
            drew += rng.getstate() != state
            cases.append([p, mu, split, rng.random()])
    digest = hashlib.sha256(json.dumps(cases).encode()).hexdigest()
    assert (sum(c[2] is None for c in cases), drew, digest) == (86, 88, SPLIT_DIGEST)


def monic_factors(mu, p):
    """{factor: multiplicity} of a monic mu of degree <= 7, by trial
    division by every monic polynomial of degree 1, 2, 3 in turn (a
    reducible divisor's factors are gone before it is tried); what is left
    has no factor of degree <= 3, so it is 1 or irreducible."""
    assert u_deg(mu) <= 7
    factors, rest = {}, mu
    for d in (1, 2, 3):
        for low in iter_product(range(p), repeat=d):
            q = [*low, 1]
            while u_deg(rest) >= d:
                quo, rem = u_divmod(rest, q, p)
                if rem:
                    break
                factors[tuple(q)] = factors.get(tuple(q), 0) + 1
                rest = quo
    if u_deg(rest) > 0:
        factors[tuple(rest)] = 1
    return factors


def u_power(f, e, p):
    out = [1]
    for _ in range(e):
        out = u_mul(out, f, p)
    return out


@st.composite
def small_mu(draw):
    """(p, monic mu) of degree 1-7 over F_2, F_3 or F_5: random, or a
    product of powers of random monic factors of degree 1-3."""
    p = draw(st.sampled_from((2, 3, 5)))
    if draw(st.booleans()):
        deg = draw(st.integers(1, 7))
        return p, [*draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg)), 1]
    mu = [1]
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        f = [*draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)), 1]
        e = draw(st.integers(1, 3))
        if u_deg(mu) + d * e > 7:
            break
        mu = u_mul(mu, u_power(f, e, p), p)
    assume(u_deg(mu) >= 1)
    return p, mu


@settings(max_examples=300, deadline=None)
@given(case=small_mu(), seed=st.integers(0, 3))
# inseparable: (T^2 + 1)^2 = (T + 1)^4 and (T^2 + T + 1)^2 over F_2,
# T (T + 1)^2 over F_2, (T - 1)^3 and (T^2 + T)^3 over F_3, and an
# irreducible cubic squared over F_3
@example(case=(2, [1, 0, 0, 0, 1]), seed=0)
@example(case=(2, [1, 0, 1, 0, 1]), seed=0)
@example(case=(2, [0, 1, 0, 1]), seed=0)
@example(case=(3, [2, 0, 0, 1]), seed=0)
@example(case=(3, [0, 0, 0, 1, 0, 0, 1]), seed=0)
@example(case=(3, u_power([1, 2, 0, 1], 2, 3)), seed=0)
def test_coprime_split_matches_trial_division(case, seed):
    p, mu = case
    factors = monic_factors(mu, p)
    split = coprime_split(mu, p, random.Random(seed))
    event(f"{len(factors)} distinct factors")
    assert (split is None) == (len(factors) == 1)
    if split is None:
        return
    G, H = split
    assert u_mul(G, H, p) == mu
    assert u_gcd(G, H, p) == [1]
    assert u_deg(G) >= 1 and u_deg(H) >= 1
    for q, e in factors.items():
        full = u_power(list(q), e, p)
        assert not u_divmod(G, full, p)[1] or not u_divmod(H, full, p)[1]


def test_divmod_roundtrip():
    rng = random.Random(31)
    for _ in range(50):
        f = [rng.randrange(P) for _ in range(rng.randrange(1, 8))]
        g = [rng.randrange(P) for _ in range(rng.randrange(1, 8))]
        if not any(g):
            continue
        q, r = u_divmod(f, g, P)
        back = [
            (a + b) % P
            for a, b in zip(u_mul(q, g, P) + [0] * 20, r + [0] * 20)
        ]
        while back and back[-1] == 0:
            back.pop()
        ftrim = list(f)
        while ftrim and ftrim[-1] == 0:
            ftrim.pop()
        assert back == [c % P for c in ftrim]
        from cmwild.matalg import u_trim

        assert not r or u_deg(r) < u_deg(u_trim([c % P for c in g]))


# ---------------------------------------------------------------- commutant


def test_commutant_dimensions():
    J = as_matrix([[0, 1], [0, 0]], P)
    Z = as_matrix([[0, 0], [0, 0]], P)
    assert len(commutant_basis([J, Z], P)) == 2
    D = as_matrix([[1, 0], [0, 2]], P)
    assert len(commutant_basis([D, Z], P)) == 2
    assert len(commutant_basis([Z, Z], P)) == 4
    for b in commutant_basis([J, Z], P):
        assert np.array_equal(mat_mul(b, J, P), mat_mul(J, b, P))


def test_trace_form_radical_of_jordan_block():
    J = as_matrix([[0, 1], [0, 0]], P)
    basis = commutant_basis([J, as_matrix([[0, 0], [0, 0]], P)], P)
    rad = trace_form_radical(basis, free_positions(basis), P)
    assert len(rad) == 1
    lift = np.zeros((2, 2), dtype=np.int64)
    for c, b in zip(rad[0], basis):
        lift = (lift + int(c) * b) % P
    assert lift.any()
    assert not mat_mul(lift, lift, P).any()


# ---------------------------------------------------------------- conjugacy


def conjugate(Ax, Ay, sigma, p):
    inv = inverse(sigma, p)
    return (
        mat_mul(mat_mul(sigma, Ax, p), inv, p),
        mat_mul(mat_mul(sigma, Ay, p), inv, p),
    )


def test_conjugacy_scaled_jordan_blocks():
    Ax = as_matrix([[0, 1], [0, 0]], P)
    Ay = as_matrix([[0, 0], [0, 0]], P)
    Bx = as_matrix([[0, 2], [0, 0]], P)
    cert = simultaneous_conjugacy([Ax, Ay], [Bx, Ay], P, seed=5)
    assert cert["verdict"] == "Isomorphic"
    sigma = as_matrix(cert["witness"], P)
    assert is_invertible(sigma, P)
    assert np.array_equal(mat_mul(sigma, Ax, P), mat_mul(Bx, sigma, P))


def test_conjugacy_identical_fast_path():
    Ax = as_matrix([[1, 2], [3, 4]], P)
    Ay = as_matrix([[0, 1], [1, 0]], P)
    cert = simultaneous_conjugacy([Ax, Ay], [Ax, Ay], P)
    assert cert["verdict"] == "Isomorphic"
    assert cert["witness"] == identity_matrix(2).tolist()


def test_conjugacy_rank_obstruction():
    Ax = as_matrix([[0, 1], [0, 0]], P)
    Z = as_matrix([[0, 0], [0, 0]], P)
    cert = simultaneous_conjugacy([Ax, Z], [Z, Z], P)
    assert cert["verdict"] == "NonIsomorphic"
    # nilpotent of type (2,2) vs (3,1): equal ranks, squares differ
    X1 = as_matrix(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], P
    )
    X2 = as_matrix(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]], P
    )
    Z4 = np.zeros((4, 4), dtype=np.int64)
    cert = simultaneous_conjugacy([X1, Z4], [X2, Z4], P)
    assert cert["verdict"] == "NonIsomorphic"


def test_conjugacy_size_mismatch():
    A2 = as_matrix([[0, 0], [0, 0]], P)
    A3 = np.zeros((3, 3), dtype=np.int64)
    cert = simultaneous_conjugacy([A2, A2], [A3, A3], P)
    assert cert["verdict"] == "NonIsomorphic"


def brute_simultaneous_conjugacy(Ax, Ay, Bx, By, p):
    n = Ax.shape[0]
    for entries in iter_product(range(p), repeat=n * n):
        sigma = np.array(entries, dtype=np.int64).reshape(n, n)
        if not is_invertible(sigma, p):
            continue
        if np.array_equal(
            mat_mul(sigma, Ax, p), mat_mul(Bx, sigma, p)
        ) and np.array_equal(mat_mul(sigma, Ay, p), mat_mul(By, sigma, p)):
            return True
    return False


def test_conjugacy_agrees_with_brute_force_over_f2():
    rng = random.Random(37)
    p = 2
    for trial in range(30):
        mats = [
            as_matrix(
                [[rng.randrange(p) for _ in range(2)] for _ in range(2)], p
            )
            for _ in range(4)
        ]
        Ax, Ay, Bx, By = mats
        cert = simultaneous_conjugacy([Ax, Ay], [Bx, By], p, seed=trial)
        want = brute_simultaneous_conjugacy(Ax, Ay, Bx, By, p)
        assert cert["verdict"] != "Undecided"
        assert (cert["verdict"] == "Isomorphic") == want


def test_conjugacy_of_conjugated_pairs():
    rng = random.Random(41)
    for trial in range(10):
        n = 3
        base = as_matrix(
            [[rng.randrange(P) for _ in range(n)] for _ in range(n)], P
        )
        Ax = mat_pow(base, 2, P)
        Ay = (3 * base + 2 * identity_matrix(n)) % P
        while True:
            sigma = as_matrix(
                [[rng.randrange(P) for _ in range(n)] for _ in range(n)], P
            )
            if is_invertible(sigma, P):
                break
        Bx, By = conjugate(Ax, Ay, sigma, P)
        cert = simultaneous_conjugacy([Ax, Ay], [Bx, By], P, seed=trial)
        assert cert["verdict"] == "Isomorphic"
        w = as_matrix(cert["witness"], P)
        assert np.array_equal(mat_mul(w, Ax, P), mat_mul(Bx, w, P))
        assert np.array_equal(mat_mul(w, Ay, P), mat_mul(By, w, P))
        assert is_invertible(w, P)


def int_product(X, Y, p):
    """X Y mod p on nested lists of Python ints."""
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*Y)] for row in X]


def assert_jordan_pair_conjugate(p, n, bound):
    """(J, J^2) for J = J_n(1) against a seeded conjugate is Isomorphic
    within bound seconds, with a witness that checks in Python ints."""
    J = as_matrix(jordan(n, 1), p)
    As = [J, mat_mul(J, J, p)]
    Bs = conjugate_tuple(As, invertible_matrix(random.Random(n), n, p), p)
    t0 = time.monotonic()
    cert = simultaneous_conjugacy(As, Bs, p)
    dt = time.monotonic() - t0
    assert cert["verdict"] == "Isomorphic"
    assert dt < bound, f"n = {n} at p = {p} took {dt:.1f} s"
    # the witness, re-checked without matalg
    w = cert["witness"]
    assert all(type(x) is int and 0 <= x < p for row in w for x in row)
    assert brute_rank(w, p) == n
    for A, B in zip(As, Bs):
        assert int_product(w, A.tolist(), p) == int_product(B.tolist(), w, p)


@pytest.mark.parametrize("p, n", [(2**31 - 1, 12), (P, 24)])
def test_jordan_pair_conjugacy_at_scale(p, n):
    # the conjugate's transpose is cyclic, so its spin takes one generator
    # and the system has n unknowns (the source's spin from e_0, an
    # eigenvector of J, would take n generators and all n^2); at 2^31 - 1
    # rref reduces the whole matrix every second pivot step
    assert_jordan_pair_conjugate(p, n, 10)


def test_jordan_pair_conjugacy_at_n48_within_a_second():
    assert_jordan_pair_conjugate(P, 48, 1)


def test_jordan_pair_indecomposability_at_scale():
    # (J, J^2) for J = J_64(1): End = F_p[J] comes from the powers of J,
    # where the e_0 spin solves for all 64^2 unknowns
    J = as_matrix(jordan(64, 1), P)
    t0 = time.monotonic()
    cert = endomorphism_indecomposability([J, mat_mul(J, J, P)], P)
    dt = time.monotonic() - t0
    assert (cert["verdict"], cert["endo_dim"], cert["field_count"]) == ("Indecomposable", 64, 1)
    assert dt < 2, f"n = 64 took {dt:.1f} s"


# --------------------------------------------------------- indecomposability


def test_indecomposable_jordan_block():
    J = as_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]], P)
    Z = np.zeros((3, 3), dtype=np.int64)
    cert = endomorphism_indecomposability([J, Z], P)
    assert cert["verdict"] == "Indecomposable"
    assert cert["endo_dim"] == 3
    assert cert["field_count"] == 1


def test_indecomposable_field_extension():
    # companion matrix of T^2 + 1, irreducible since p = 3 mod 4
    C = as_matrix([[0, P - 1], [1, 0]], P)
    Z = np.zeros((2, 2), dtype=np.int64)
    cert = endomorphism_indecomposability([C, Z], P)
    assert cert["verdict"] == "Indecomposable"
    assert cert["endo_dim"] == 2
    assert cert["field_count"] == 1


def check_idempotent(cert, Ax, Ay, p):
    e = as_matrix(cert["idempotent"], p)
    n = Ax.shape[0]
    assert np.array_equal(mat_mul(e, e, p), e)
    assert e.any()
    assert not np.array_equal(e, identity_matrix(n))
    assert np.array_equal(mat_mul(e, Ax, p), mat_mul(Ax, e, p))
    assert np.array_equal(mat_mul(e, Ay, p), mat_mul(Ay, e, p))


def test_decomposable_semisimple_split():
    D = as_matrix([[1, 0], [0, 2]], P)
    Z = np.zeros((2, 2), dtype=np.int64)
    cert = endomorphism_indecomposability([D, Z], P)
    assert cert["verdict"] == "Decomposable"
    assert cert["field_count"] == 2
    check_idempotent(cert, D, Z, P)


def test_decomposable_full_matrix_algebra():
    Z = np.zeros((2, 2), dtype=np.int64)
    cert = endomorphism_indecomposability([Z, Z], P)
    assert cert["verdict"] == "Decomposable"
    assert cert["endo_dim"] == 4
    check_idempotent(cert, Z, Z, P)


def test_decomposable_two_copies_of_one_block():
    # J_2(0) + J_2(0): endomorphisms form 2x2 matrices over k[J]/(J^2)
    J4 = as_matrix(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], P
    )
    Z4 = np.zeros((4, 4), dtype=np.int64)
    cert = endomorphism_indecomposability([J4, Z4], P)
    assert cert["verdict"] == "Decomposable"
    assert cert["endo_dim"] == 8
    check_idempotent(cert, J4, Z4, P)


def test_indecomposability_small_characteristic_exhaustive():
    # p <= endomorphism dimension forces the exhaustive branch
    J = as_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 2)
    Z = np.zeros((3, 3), dtype=np.int64)
    cert = endomorphism_indecomposability([J, Z], 2)
    assert cert["verdict"] == "Indecomposable"
    assert "exhaustive" in cert["reason"]
    D = as_matrix([[0, 0], [0, 1]], 2)
    Z2 = np.zeros((2, 2), dtype=np.int64)
    cert = endomorphism_indecomposability([D, Z2], 2)
    assert cert["verdict"] == "Decomposable"
    check_idempotent(cert, D, Z2, 2)
    # p = 3 with a two-dimensional commutant still takes the trace form
    cert = endomorphism_indecomposability([as_matrix([[1, 0], [0, 2]], 3), Z2], 3)
    assert cert["verdict"] == "Decomposable"
    check_idempotent(cert, as_matrix([[1, 0], [0, 2]], 3), Z2, 3)


@pytest.mark.parametrize(
    "p, match",
    [
        # prime, but int64 products overflow: the invertible A read as rank 1
        (2**61 - 1, "exceeds 2\\^31"),
        # pow() found no inverse mod 4: a bare ValueError
        (4, "4 is not prime"),
        # mod 1 every matrix is zero: A read as Indecomposable
        (1, "1 is not prime"),
    ],
)
def test_decisions_refuse_a_characteristic_outside_the_field_layer(p, match):
    A, B = [[p - 1, 1], [0, p - 1]], [[1, 0], [1, 1]]
    with pytest.raises(InputError, match=match):
        simultaneous_conjugacy([A], [B], p)
    with pytest.raises(InputError, match=match):
        endomorphism_indecomposability([A], p)


def test_decisions_read_a_numpy_integer_characteristic():
    As, Bs = [[[1, 1], [0, 1]], [[2, 0], [0, 2]]], [[[1, 0], [1, 1]], [[2, 0], [0, 2]]]
    cert = simultaneous_conjugacy(As, Bs, np.int64(7))
    assert cert == simultaneous_conjugacy(As, Bs, 7)
    assert cert["verdict"] == "Isomorphic"
    assert endomorphism_indecomposability(As, np.int64(7)) == endomorphism_indecomposability(As, 7)


def test_indecomposability_random_polynomial_pairs():
    rng = random.Random(43)
    for trial in range(20):
        n = 3
        base = as_matrix(
            [[rng.randrange(P) for _ in range(n)] for _ in range(n)], P
        )
        Ax = mat_pow(base, 2, P)
        Ay = (base + 5 * mat_pow(base, 3, P)) % P
        cert = endomorphism_indecomposability([Ax, Ay], P, seed=trial)
        assert cert["verdict"] in ("Indecomposable", "Decomposable")
        if cert["verdict"] == "Decomposable" and cert["idempotent"] is not None:
            check_idempotent(cert, Ax, Ay, P)


def brute_idempotent_exists(basis, p):
    """Whether some element of the span of basis, enumerated all at once,
    is a nontrivial idempotent."""
    n = basis[0].shape[0]
    coeffs = np.indices((p,) * len(basis)).reshape(len(basis), -1).T
    elems = (coeffs @ np.stack([b.reshape(-1) for b in basis]) % p).reshape(-1, n, n)
    idempotent = (np.matmul(elems, elems) % p == elems).all(axis=(1, 2))
    zero = ~elems.any(axis=(1, 2))
    one = (elems == identity_matrix(n)).all(axis=(1, 2))
    return bool((idempotent & ~zero & ~one).any())


def test_trace_form_verdicts_agree_with_idempotent_enumeration():
    rng = random.Random(47)
    checked = 0
    for trial in range(200):
        p = rng.choice((5, 7, 11))
        n = rng.randint(2, 4)
        B = as_matrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        mats = [B, mat_pow(B, rng.randint(2, 3), p)]
        basis = commutant_basis(mats, p)
        # p > dim End selects the trace form; the bound keeps enumeration small
        if not (p > len(basis) and p ** len(basis) <= 20000):
            continue
        cert = endomorphism_indecomposability(mats, p, seed=trial)
        decomposable = brute_idempotent_exists(basis, p)
        assert (cert["verdict"] == "Decomposable") == decomposable
        if decomposable:
            check_idempotent(cert, *mats, p)
        checked += 1
    assert checked > 150


# The certificates of seeded commuting pairs (A, A^2 + 3A), n = 2..8: A is
# dense, or a conjugated direct sum of Jordan blocks or of scalar blocks
# with eigenvalues 0, 1, 2.  Hashed as the SHA-256 of the JSON list of
# certificates, so the idempotent witnesses are pinned entry for entry.
ENDO_PIN_PRIMES = (7, 31, P)
ENDO_PIN_DIGEST = "d8362f5d07bb9a7a92e99ead5480dd346d35c5cc8958b836a69cf07c303cc137"


def seeded_commuting_pair(n, copy, p):
    rng = random.Random(100 * n + copy)
    if copy % 3 == 0:
        A = dense_matrix(rng, n, p)
    else:
        A = np.zeros((n, n), dtype=np.int64)
        at = 0
        while at < n:
            size = rng.randint(1, n - at)
            block = jordan(size, rng.randrange(3)) if copy % 3 == 1 else (
                rng.randrange(3) * identity_matrix(size))
            A[at : at + size, at : at + size] = block
            at += size
        A = conjugate_tuple([A], invertible_matrix(rng, n, p), p)[0]
    return [A, (mat_mul(A, A, p) + 3 * A) % p]


def test_idempotents_of_seeded_commuting_pairs_are_pinned():
    certs = [
        endomorphism_indecomposability(seeded_commuting_pair(n, copy, p), p, seed=copy)
        for n in range(2, 9)
        for copy in range(3)
        for p in ENDO_PIN_PRIMES
    ]
    verdicts = collections.Counter(
        (c["verdict"], c["idempotent"] is not None) for c in certs
    )
    digest = hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()
    assert verdicts == {
        ("Decomposable", True): 45, ("Indecomposable", False): 6, ("Undecided", False): 12
    }
    assert digest == ENDO_PIN_DIGEST


def test_intertwiner_rectangular():
    # hom space between modules of different sizes
    A = as_matrix([[0]], P)
    B = as_matrix([[0, 1], [0, 0]], P)
    homs = intertwiner_basis([(A, B)], P)
    assert all(h.shape == (2, 1) for h in homs)
    for h in homs:
        assert np.array_equal(mat_mul(h, A, P), mat_mul(B, h, P))


# ------------------------------------------------------------ pinned bases
#
# The intertwiner and commutant bases of fixed inputs, pinned as values:
# the witnesses of ``simultaneous_conjugacy`` and the idempotents of
# ``endomorphism_indecomposability`` are combinations of these bases, so a
# change to how the basis is computed must return the same matrices in
# the same order.  Each case is hashed as the SHA-256 of the JSON list of
# its basis matrices.

PIN_RINGS = {
    "fermat": (["x", "y", "z"], ["x^4+y^4+z^4"], ["x^2", "y^2"], 4),
    "binary": (["x", "y"], ["x^4+y^4"], ["x^2"], 3),
}


def jordan(n, lam):
    return [[lam if j == i else int(j == i + 1) for j in range(n)] for i in range(n)]


def squared(A):
    return (np.array(A) @ np.array(A)).tolist()


# name -> ((ring, Ax, Ay) of the source member, the same for the target)
PIN_MEMBERS = {
    "fermat-n1": (
        ("fermat", jordan(1, 1), squared(jordan(1, 1))),
        ("fermat", jordan(1, 2), squared(jordan(1, 2))),
    ),
    # the target's Ax is conjugate to the Jordan block, so Hom holds units
    "fermat-n2": (
        ("fermat", jordan(2, 1), squared(jordan(2, 1))),
        ("fermat", [[0, 1], [-1, 2]], squared([[0, 1], [-1, 2]])),
    ),
    "fermat-n3": (
        ("fermat", jordan(3, 1), squared(jordan(3, 1))),
        ("fermat", jordan(3, 2), squared(jordan(3, 2))),
    ),
    "binary-n2": (("binary", [[2, 1], [0, 3]], None), ("binary", [[3, 0], [5, 2]], None)),
    "binary-n3": (
        ("binary", jordan(3, 1), None),
        ("binary", [[1, 2, 0], [0, 3, 1], [1, 0, 2]], None),
    ),
}

# name -> (dim Hom(M, N), its digest, dim End(M), its digest)
PIN_DIGESTS = {
    "fermat-n1": (
        13, "b73572e0a1fed8abf38175ffc92c533dbed4df209842681876672d1cc245efd2",
        14, "ea1be46ebe12b8948d5d80df8be5c754f496428009188c392dc782d9c62ae582",
    ),
    "fermat-n2": (
        54, "f076a0e6b18b77bb9cc3f50b6f0f1bca905fb95288ceefbdaa8e9d5f74eaf14b",
        54, "dce06ede3bf9e36f0c02643aa39697c7892ccccc478c901c4f4ac492099e4840",
    ),
    "fermat-n3": (
        117, "eb3322309f9834941ed5588370706f92bee62ef8f7661962a192db2b1d08f1f8",
        120, "a08687de9a949dc3cac31409d00b5527afb1f7431a1d26edc9a1ef079b97e2a8",
    ),
    "binary-n2": (
        22, "84fc02b93c1763050a017ba2e912f501539171af0bb52744c629e8328370703c",
        22, "333ae245de7d5362a64ee5cc3d9882c393a5fb0ac12d47d2e84d85b3bbb9a4ea",
    ),
    "binary-n3": (
        45, "2b13d7b4475b143000586e657b232e6c06fa4fc6bd851b64e7c4a9e761526304",
        48, "d26df39c823b45530b09b5240fe8e9f6bebd4c4be46c0169210c516dcaec1317",
    ),
    "commuting-n12": (
        12, "42f7e1ec059572daab7269d6a5474a3cd986084814a69434389b3d31c17630ba",
        12, "b67b0afd1a9f403325f0bb7fbb2666c2aea7b21bdb769c65e0bdfe1f3d808df3",
    ),
}


def basis_digest(basis) -> str:
    return hashlib.sha256(json.dumps([b.tolist() for b in basis]).encode()).hexdigest()


def member_actions(rname, Ax, Ay):
    from cmwild.family import FamilySpec, action_matrices, build_family_member
    from cmwild.rings import QuotientRing

    names, rels, seq, c = PIN_RINGS[rname]
    ring = QuotientRing.from_strings(names, rels, P)
    return action_matrices(build_family_member(FamilySpec(ring, seq, c, Ax, Ay=Ay)))[0]


def commuting_pair_n12():
    """A seeded 12 x 12 matrix A with B = A^2 + 3A, and the same pair
    conjugated by a seeded invertible S."""
    rng = random.Random(12)
    A = as_matrix([[rng.randrange(P) for _ in range(12)] for _ in range(12)], P)
    B = (mat_mul(A, A, P) + 3 * A) % P
    while True:
        S = as_matrix([[rng.randrange(P) for _ in range(12)] for _ in range(12)], P)
        if is_invertible(S, P):
            break
    S_inv = inverse(S, P)
    return [A, B], [mat_mul(mat_mul(S, X, P), S_inv, P) for X in (A, B)]


def pinned_case(name):
    if name == "commuting-n12":
        return commuting_pair_n12()
    source, target = PIN_MEMBERS[name]
    return member_actions(*source), member_actions(*target)


@pytest.mark.parametrize("name", sorted(PIN_DIGESTS))
def test_intertwiner_and_commutant_bases_are_pinned(name):
    As, Bs = pinned_case(name)
    homs = intertwiner_basis(list(zip(As, Bs)), P)
    endos = commutant_basis(As, P)
    assert (len(homs), basis_digest(homs), len(endos), basis_digest(endos)) == PIN_DIGESTS[name]


# ------------------------------------------------- intertwiners vs Kronecker


def kron_intertwiner_basis(pairs, p):
    """The nullspace of the Kronecker system, as an oracle: for row-major
    vec, vec(sigma A) = (I (x) A^T) vec(sigma) and vec(B sigma) =
    (B (x) I) vec(sigma)."""
    n = pairs[0][0].shape[0]
    m = pairs[0][1].shape[0]
    if m * n == 0:
        return []
    eye_n, eye_m = identity_matrix(n), identity_matrix(m)
    system = np.concatenate(
        [(np.kron(eye_m, A.T) - np.kron(B, eye_n)) % p for A, B in pairs]
    )
    return [row.reshape(m, n) for row in nullspace(system, p)]


def assert_matches_oracle(pairs, p):
    """intertwiner_basis equals the oracle's basis, element by element and
    in order, and every element intertwines."""
    got = intertwiner_basis(pairs, p)
    want = kron_intertwiner_basis(pairs, p)
    assert len(got) == len(want)
    for sigma, expected in zip(got, want):
        assert sigma.dtype == np.int64 and sigma.shape == expected.shape
        assert np.array_equal(sigma, expected)
        for A, B in pairs:
            assert np.array_equal(mat_mul(sigma, A % p, p), mat_mul(B % p, sigma, p))
    return got


def conjugate_tuple(mats, S, p):
    S_inv = inverse(S, p)
    return [mat_mul(mat_mul(S, X, p), S_inv, p) for X in mats]


ORACLE_PRIMES = (2, 3, 5, P, 2**31 - 1)
TUPLE_KINDS = (
    "zero", "scalar", "diagonal", "nilpotent", "commuting", "noncommuting", "jordan_sum"
)


@functools.cache
def fermat_n1_actions():
    """The 14 x 14 actions of x, y, z on the Fermat quartic member with
    Ax = J_1(1): its spin from e_0 takes one generator, and the spin of
    their transposes from the last basis vector two."""
    return tuple(member_actions("fermat", jordan(1, 1), squared(jordan(1, 1))))


def draw_matrix(data, size, values, where=lambda i, j: True):
    rows = [[data.draw(values) if where(i, j) else 0 for j in range(size)] for i in range(size)]
    return np.array(rows, dtype=np.int64).reshape(size, size)


def draw_tuple(data, size, k, p):
    kind = data.draw(st.sampled_from(TUPLE_KINDS))
    entry = st.integers(0, p - 1)
    # few distinct values, so eigenvalues repeat and hom spaces are large
    small = st.integers(0, min(p, 3) - 1)
    if kind == "zero":
        return [np.zeros((size, size), dtype=np.int64) for _ in range(k)]
    if kind == "scalar":
        return [data.draw(small) * identity_matrix(size) for _ in range(k)]
    if kind == "diagonal":
        return [draw_matrix(data, size, small, lambda i, j: i == j) for _ in range(k)]
    if kind == "nilpotent":
        return [draw_matrix(data, size, entry, lambda i, j: i < j) for _ in range(k)]
    if kind == "noncommuting":
        return [draw_matrix(data, size, entry) for _ in range(k)]
    if kind == "jordan_sum":
        # Jordan blocks of few eigenvalues, or their transposes: a spin
        # from e_0 takes several generators, on the source's side or on
        # the transposed target's
        sizes = []
        while sum(sizes) < size:
            sizes.append(data.draw(st.integers(1, size - sum(sizes))))
        X = block_sum([jordan(s, data.draw(small)) for s in sizes]) % p
        if data.draw(st.booleans()):
            X = X.T.copy()
    else:
        X = draw_matrix(data, size, entry)
    return [mat_pow(X, e, p) for e in range(1, k + 1)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_intertwiner_basis_matches_kronecker_oracle(data):
    # the Fermat n = 1 module, and Jordan sums or their transposes, take
    # several spin generators; "independent" targets give non-square pairs
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    k = data.draw(st.integers(1, 3))
    if data.draw(st.integers(0, 7)) == 0:
        As = [A % p for A in fermat_n1_actions()[:k]]
    else:
        As = draw_tuple(data, data.draw(st.integers(0, 6)), k, p)
    n = As[0].shape[0]
    target = data.draw(st.sampled_from(("conjugate", "same", "independent", "reversed")))
    if target == "independent":
        Bs = draw_tuple(data, data.draw(st.integers(0, 6)), k, p)
    elif target == "conjugate" and n:
        # unit lower times unit upper triangular: always invertible
        entry = st.integers(0, p - 1)
        L = draw_matrix(data, n, entry, lambda i, j: i > j) + identity_matrix(n)
        U = draw_matrix(data, n, entry, lambda i, j: i < j) + identity_matrix(n)
        Bs = conjugate_tuple(As, mat_mul(L, U, p), p)
    elif target == "reversed":
        # J A J for the reversal J: the transposed target is A^T
        Bs = [A[::-1, ::-1].copy() for A in As]
    else:
        Bs = As
    assert_matches_oracle(list(zip(As, Bs)), p)


def test_spin_takes_the_first_standard_vector_outside_the_span():
    # e_0 spans <e_0, e_1 + e_2>: e_2 is the first non-pivot index, but e_1
    # lies outside the span too (its pivot row is e_1 + e_2) and comes first
    A = as_matrix([[0, 0, 0], [1, 1, 0], [1, 0, 1]], P)
    S, S_inv, origin = matalg._spin(A, P)
    assert origin == [None, (0, 0), None]
    assert S.T.tolist() == [[1, 0, 0], [0, 1, 1], [0, 1, 0]]
    assert np.array_equal(mat_mul(S, S_inv, P), identity_matrix(3))


@pytest.mark.parametrize("case", ["cyclic", "jordan_sum", "fermat_n1"])
def test_intertwiner_basis_solves_on_one_spin(monkeypatch, case):
    if case == "cyclic":
        A = dense_matrix(random.Random(7), 6, P)
        As = [A, mat_mul(A, A, P)]
        Bs = conjugate_tuple(As, invertible_matrix(random.Random(8), 6, P), P)
    elif case == "jordan_sum":
        As = Bs = [as_matrix(block_sum([jordan(2, 1), jordan(1, 1)]), P)]
    else:
        As = Bs = list(fermat_n1_actions())
    pairs = list(zip(As, Bs))
    spun, reduced, systems = [], [], []
    spin, rref_, nullspace_ = matalg._spin, matalg.rref, matalg.nullspace
    monkeypatch.setattr(matalg, "_spin", lambda A, p: spun.append(A.copy()) or spin(A, p))
    monkeypatch.setattr(matalg, "rref", lambda A, p: reduced.append(A.copy()) or rref_(A, p))
    monkeypatch.setattr(matalg, "nullspace", lambda A, p: systems.append(A.copy()) or nullspace_(A, p))
    homs = intertwiner_basis(pairs, P)
    # one spin, of the reversed transposed target, and one system: no zero
    # row reaches its nullspace, and the nullspace's elimination is the
    # only one (no d x mn elimination of the solutions follows it)
    assert len(spun) == 1
    assert np.array_equal(spun[0], np.concatenate([B.T[::-1, ::-1] for B in Bs]) % P)
    assert len(systems) == 1 and systems[0].any(axis=1).all()
    assert len(reduced) <= 1 and all(np.array_equal(R, systems[0]) for R in reduced)
    assert [h.tolist() for h in homs] == [h.tolist() for h in kron_intertwiner_basis(pairs, P)]
    if case == "fermat_n1":
        # the commutant system of the graded module: 36 of its 420 rows
        # are nonzero
        assert len(systems[0]) == 36 and len(homs) == 14


def dense_matrix(rng, n, p):
    return as_matrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)


def invertible_matrix(rng, n, p):
    while True:
        S = dense_matrix(rng, n, p)
        if is_invertible(S, p):
            return S


def test_intertwiner_basis_at_the_largest_characteristic():
    # a product adds up to n terms of size up to (p - 1)^2 ~ 2^62, so only
    # the chunked products stay exact; sums of uniform residues overflow
    # int64 on average from about 8 terms, hence one larger size
    p = 2**31 - 1
    rng = random.Random(31)
    for n in (4, 5, 6, 7, 12):
        A = dense_matrix(rng, n, p)
        for As in ([A, mat_mul(A, A, p)], [A, dense_matrix(rng, n, p)]):
            S = invertible_matrix(rng, n, p)
            assert assert_matches_oracle(list(zip(As, conjugate_tuple(As, S, p))), p)
            others = [dense_matrix(rng, n, p) for _ in As]
            assert_matches_oracle(list(zip(As, others)), p)


def test_intertwiner_basis_reduces_negative_and_unreduced_entries():
    rng = random.Random(5)
    for p in (5, P, 2**31 - 1):
        n = 4
        A = dense_matrix(rng, n, p)
        As = [A, mat_mul(A, A, p)]
        Bs = conjugate_tuple(As, invertible_matrix(rng, n, p), p)
        pairs = list(zip(As, Bs))
        want = kron_intertwiner_basis(pairs, p)
        assert want
        shifts = lambda: np.array([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        shifted = [(A - p * shifts(), B + p * shifts()) for A, B in pairs]
        assert any((A < 0).any() for A, _ in shifted)
        assert any((B >= p).any() for _, B in shifted)
        got = assert_matches_oracle(shifted, p)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]


# ------------------------------------- trace form vs regular representation
#
# endomorphism_indecomposability reads coordinates off the canonical
# commutant basis.  The regular representation L of End, solved for from
# all dim**2 basis products, is kept here as the oracle: the radical as
# the kernel of tr(L_i L_j), and the whole trace-form branch read off L.


def regular_representation(basis, p):
    """Left multiplication by each element of a matrix-algebra basis, in
    basis coordinates: L[i] @ coords(y) = coords(basis[i] @ y).  All dim**2
    products are solved for in one elimination; coordinates are unique."""
    dim = len(basis)
    stacked = np.stack([b.reshape(-1) for b in basis], axis=1)
    prods = np.stack(
        [mat_mul(a, b, p).reshape(-1) for a in basis for b in basis], axis=1
    )
    cols = solve_many(stacked, prods, p)
    if any(c is None for c in cols):
        raise CmwildError("algebra basis is not multiplicatively closed")
    return [np.stack(cols[i * dim : (i + 1) * dim], axis=1) for i in range(dim)]


def regular_trace_form_radical(L, p):
    """Coordinate rows of the kernel of the trace form tr(L_i L_j)."""
    # tr(L_i L_j) = vec(L_i) . vec(L_j^T)
    rows = np.stack([Li.reshape(-1) for Li in L])
    cols = np.stack([Li.T.reshape(-1) for Li in L], axis=1)
    return nullspace(mat_mul(rows, cols, p), p)


def regular_indecomposability(mats, p, seed=0):
    """endomorphism_indecomposability for p > dim End, with the radical,
    the commutators and Frobenius all read off L."""
    mats = [as_matrix(M, p) for M in mats]
    basis = commutant_basis(mats, p)
    dim = len(basis)
    assert p > dim
    out = {"verdict": "Undecided", "endo_dim": dim, "idempotent": None,
           "field_count": None}
    if dim == 1:
        out.update(verdict="Indecomposable",
                   reason="endomorphism algebra is the ground field",
                   field_count=1)
        return out
    rng = random.Random(seed)
    L = regular_representation(basis, p)
    R, pivots = rref(regular_trace_form_radical(L, p), p)
    R = R[: len(pivots)]
    free = [c for c in range(dim) if c not in pivots]

    def reduce(X):
        return (X - mat_mul(R.T, X[pivots], p)) % p

    if not any(
        reduce(L[a][:, [b]] - L[b][:, [a]]).any()
        for i, a in enumerate(free)
        for b in free[i + 1 :]
    ):
        # coords(b_c^p) = L_c^(p-1) e_c
        frob = reduce(
            np.stack([mat_pow(L[c], p - 1, p)[:, c] for c in free], axis=1)
        )[free]
        fixed = nullspace((frob - identity_matrix(len(free))) % p, p)
        out["field_count"] = len(fixed)
        if len(fixed) <= 1:
            out.update(verdict="Indecomposable",
                       reason="semisimple quotient of the endomorphism algebra"
                       " is a field")
            return out
        for v in fixed:
            e = _idempotent_from_element(combine(v, [basis[c] for c in free], p), p, rng)
            if e is not None:
                out.update(verdict="Decomposable", idempotent=e.tolist(),
                           reason="Frobenius-fixed subspace splits off an idempotent")
                return out
        raise AssertionError("no idempotent from the Frobenius-fixed space")
    out["verdict"] = "Decomposable"
    out["reason"] = "semisimple quotient of the endomorphism algebra is noncommutative"
    for _ in range(SAMPLES):
        a = combine([rng.randrange(p) for _ in basis], basis, p)
        e = _idempotent_from_element(a, p, rng)
        if e is not None:
            out["idempotent"] = e.tolist()
            break
    return out


def free_positions(basis):
    """The last nonzero entry of each element, row-major: ascending, and
    the coordinates of the span in the canonical basis."""
    f = [int(np.flatnonzero(b)[-1]) for b in basis]
    assert f == sorted(f)
    return f


TRACE_PRIMES = (3, 5, 7, 11, 13, 31, 101, P, 2**31 - 1)
ENDO_KINDS = ("random", "powers", "jordan", "diagonal", "scalar", "block")


def draw_endo_tuple(data, n, p):
    """Action matrices of one of ENDO_KINDS, optionally conjugated by a
    unit lower times unit upper triangular matrix."""
    kind = data.draw(st.sampled_from(ENDO_KINDS))
    entry = st.integers(0, p - 1)
    small = st.integers(0, min(p, 3) - 1)
    if kind == "random":
        mats = [draw_matrix(data, n, entry) for _ in range(data.draw(st.integers(1, 2)))]
    elif kind == "powers":
        X = draw_matrix(data, n, entry)
        mats = [X, mat_pow(X, data.draw(st.integers(2, 3)), p)]
    elif kind == "jordan":
        # Jordan blocks of few distinct eigenvalues, and their squares
        sizes, left = [], n
        while left:
            sizes.append(data.draw(st.integers(1, left)))
            left -= sizes[-1]
        J = np.zeros((n, n), dtype=np.int64)
        at = 0
        for size in sizes:
            J[at : at + size, at : at + size] = jordan(size, data.draw(small))
            at += size
        mats = [J, mat_mul(J, J, p)]
    elif kind == "diagonal":
        mats = [draw_matrix(data, n, small, lambda i, j: i == j) for _ in range(2)]
    elif kind == "scalar":
        mats = [data.draw(small) * identity_matrix(n) for _ in range(2)]
    else:
        # a direct sum of two dense blocks
        a = data.draw(st.integers(0, n))
        mats = []
        for _ in range(2):
            X = np.zeros((n, n), dtype=np.int64)
            X[:a, :a] = draw_matrix(data, a, entry)
            X[a:, a:] = draw_matrix(data, n - a, entry)
            mats.append(X)
    if data.draw(st.booleans()):
        L = draw_matrix(data, n, entry, lambda i, j: i > j) + identity_matrix(n)
        U = draw_matrix(data, n, entry, lambda i, j: i < j) + identity_matrix(n)
        mats = conjugate_tuple(mats, mat_mul(L, U, p), p)
    return [M % p for M in mats]


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_trace_form_matches_the_regular_representation(data):
    p = data.draw(st.sampled_from(TRACE_PRIMES))
    n = data.draw(st.integers(1, min(6, p - 1)))
    mats = draw_endo_tuple(data, n, p)
    basis = commutant_basis(mats, p)
    assume(p > len(basis))
    seed = data.draw(st.integers(0, 3))
    got = endomorphism_indecomposability(mats, p, seed=seed)
    want = regular_indecomposability(mats, p, seed=seed)
    event(got["reason"])
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    flat = np.stack([b.reshape(-1) for b in basis])
    f = free_positions(basis)
    assert np.array_equal(flat[:, f], identity_matrix(len(basis)))
    if len(basis) > 1:
        rad = trace_form_radical(basis, f, p)
        want = regular_trace_form_radical(regular_representation(basis, p), p)
        assert rad.tolist() == want.tolist()
    # every product of two basis elements is the combination of its entries
    # at the free positions
    prods = np.stack([mat_mul(a, b, p).reshape(-1) for a in basis for b in basis])
    assert np.array_equal(mat_mul(prods[:, f], flat, p), prods)


def test_a_scaled_basis_element_is_refused(monkeypatch):
    J = as_matrix(jordan(3, 0), P)
    Z = np.zeros((3, 3), dtype=np.int64)
    basis = commutant_basis([J, Z], P)
    assert endomorphism_indecomposability([J, Z], P)["verdict"] == "Indecomposable"
    scaled = [b.copy() for b in basis]
    scaled[1] = 2 * scaled[1] % P
    monkeypatch.setattr(matalg, "_polynomial_commutant", lambda mats, p: None)
    monkeypatch.setattr(matalg, "intertwiner_basis", lambda pairs, p: scaled)
    with pytest.raises(CmwildError, match="canonical form"):
        endomorphism_indecomposability([J, Z], P)


def test_a_product_outside_the_span_is_refused(monkeypatch):
    # E_12 and E_21 are a canonical basis (free positions 1 and 2), but
    # their commutator E_11 - E_22 is not in their span
    E12 = as_matrix([[0, 1], [0, 0]], P)
    E21 = as_matrix([[0, 0], [1, 0]], P)
    monkeypatch.setattr(matalg, "_polynomial_commutant", lambda mats, p: None)
    monkeypatch.setattr(matalg, "intertwiner_basis", lambda pairs, p: [E12, E21])
    with pytest.raises(CmwildError, match="not multiplicatively closed"):
        endomorphism_indecomposability([E12], P)


def test_a_scaled_basis_of_powers_is_refused(monkeypatch):
    J = as_matrix(jordan(3, 0), P)
    Z = np.zeros((3, 3), dtype=np.int64)
    scaled = [b.copy() for b in commutant_basis([J, Z], P)]
    scaled[1] = 2 * scaled[1] % P
    monkeypatch.setattr(matalg, "_polynomial_commutant", lambda mats, p: scaled)
    with pytest.raises(CmwildError, match="canonical form"):
        endomorphism_indecomposability([J, Z], P)


def fermat_jordan_member(n):
    return member_actions("fermat", jordan(n, 1), squared(jordan(n, 1)))


@pytest.mark.parametrize("n, size, dim", [(3, 42, 120), (4, 56, 212)])
def test_module_level_fermat_member_is_indecomposable(n, size, dim):
    As = fermat_jordan_member(n)
    assert As[0].shape == (size, size)
    cert = endomorphism_indecomposability(As, P)
    assert (cert["verdict"], cert["endo_dim"]) == ("Indecomposable", dim)


def test_scalar_data_decides_in_small_memory():
    # End is all of M_16: dim 256, and its regular representation alone
    # would take 256**3 entries
    eye = identity_matrix(16)
    tracemalloc.start()
    try:
        cert = endomorphism_indecomposability([eye, 2 * eye], P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert["verdict"], cert["endo_dim"]) == ("Decomposable", 256)
    check_idempotent(cert, eye, 2 * eye, P)
    assert peak < 64 * 2**20


# ------------------------------------------- batched End(M) decisions at scale
#
# The commutators of the free cosets are tested in stacked chunks of 1, 2,
# 4, ... pairs, and Frobenius is one stacked power; the oracle reads the
# same verdict off the regular representation.


def stacked_product_sizes(monkeypatch):
    """The leading size of every stacked (3-D) mat_mul call from matalg."""
    sizes = []

    def counted(A, B, p):
        if A.ndim == 3:
            sizes.append(A.shape[0])
        return mat_mul(A, B, p)

    monkeypatch.setattr(matalg, "mat_mul", counted)
    return sizes


def test_many_commuting_cosets_match_the_oracle(monkeypatch):
    # distinct eigenvalues: End is F^12, so 12 free cosets and 66 pairs
    S = invertible_matrix(random.Random(5), 12, P)
    D = as_matrix(np.diag(np.arange(1, 13)), P)
    mats = conjugate_tuple([D, mat_mul(D, D, P)], S, P)
    want = regular_indecomposability(mats, P)
    monkeypatch.setattr(matalg, "_polynomial_commutant", lambda mats, p: None)
    sizes = stacked_product_sizes(monkeypatch)
    got = endomorphism_indecomposability(mats, P)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert (got["verdict"], got["endo_dim"], got["field_count"]) == ("Decomposable", 12, 12)
    # two products per chunk of 1, 2, ..., 32 pairs and the last 3, then
    # every product of the Frobenius power on all 12 cosets at once
    chunks = [1, 2, 4, 8, 16, 32, 3]
    assert sizes[: 2 * len(chunks)] == [c for c in chunks for _ in range(2)]
    assert set(sizes[2 * len(chunks) :]) == {12}


def test_noncommuting_cosets_match_the_oracle(monkeypatch):
    # End is F^6 x M_2, with free cosets E_00, E_11, E_22, E_23, ... in
    # order, so the first noncommuting pair, (E_22, E_23), is pair 17 of 45
    D = as_matrix(np.diag([1, 2, 3, 3, 4, 5, 6, 7]), P)
    mats = [D, mat_mul(D, D, P)]
    want = regular_indecomposability(mats, P)
    sizes = stacked_product_sizes(monkeypatch)
    got = endomorphism_indecomposability(mats, P)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert (got["verdict"], got["endo_dim"]) == ("Decomposable", 10)
    assert got["reason"] == (
        "semisimple quotient of the endomorphism algebra is noncommutative"
    )
    # the chunk of 16 (pairs 15..30) ends the test; pairs 31..44 are skipped
    assert sizes == [c for c in (1, 2, 4, 8, 16) for _ in range(2)]


def test_scalar_data_stops_after_one_commutator_chunk(monkeypatch):
    # End is M_24: the first pair of cosets already fails to commute
    eye = identity_matrix(24)
    sizes = stacked_product_sizes(monkeypatch)
    cert = endomorphism_indecomposability([eye, 2 * eye], P)
    assert (cert["verdict"], cert["endo_dim"]) == ("Decomposable", 576)
    check_idempotent(cert, eye, 2 * eye, P)
    assert sizes == [1, 1]


def test_a_cyclic_first_matrix_skips_the_spin_and_the_commutators(monkeypatch):
    S = invertible_matrix(random.Random(5), 12, P)
    D = as_matrix(np.diag(np.arange(1, 13)), P)
    cyclic = conjugate_tuple([D, mat_mul(D, D, P)], S, P)
    J = as_matrix(block_sum([jordan(2, 1), jordan(1, 1)]), P)
    derogatory = [J, mat_mul(J, J, P)]
    spun = []
    monkeypatch.setattr(
        matalg, "intertwiner_basis", lambda pairs, p: spun.append(len(pairs)) or intertwiner_basis(pairs, p)
    )
    sizes = stacked_product_sizes(monkeypatch)
    # End = F_p[D] = F^12: the one stacked product is Frobenius on all 12
    # cosets
    cert = endomorphism_indecomposability(cyclic, P)
    assert (cert["verdict"], cert["endo_dim"], cert["field_count"]) == ("Decomposable", 12, 12)
    assert (spun, set(sizes)) == ([], {12})
    # J_2(1) + J_1(1): End has dim 5 and comes from the spin; its two free
    # cosets are tested in one chunk of one pair before Frobenius
    sizes.clear()
    cert = endomorphism_indecomposability(derogatory, P)
    assert (cert["verdict"], cert["endo_dim"], cert["field_count"]) == ("Decomposable", 5, 2)
    assert spun == [2]
    assert sizes[:2] == [1, 1] and set(sizes[2:]) == {2}


def test_a_derogatory_tuple_tries_the_powers_once(monkeypatch):
    # J_2(1) + J_1(1) is not cyclic: the powers are formed once, and the
    # spin answers
    J = as_matrix(block_sum([jordan(2, 1), jordan(1, 1)]), P)
    tried = []
    powers = matalg._polynomial_commutant
    monkeypatch.setattr(
        matalg, "_polynomial_commutant", lambda mats, p: tried.append(1) or powers(mats, p)
    )
    cert = endomorphism_indecomposability([J, mat_mul(J, J, P)], P)
    assert (cert["verdict"], cert["endo_dim"], len(tried)) == ("Decomposable", 5, 1)


# --------------------------------------------- End = F_p[z] for a cyclic z
#
# When the first matrix z is cyclic and commutes with the rest, the
# commutant is F_p[z], read off the powers of z; every other tuple goes
# through the spin.  Both must give the Kronecker oracle's basis, and the
# decision the regular representation's verdict.


def block_sum(blocks):
    """The block-diagonal matrix of square blocks (nested lists)."""
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def companion(coeffs, p):
    """The companion matrix of T^n + c_(n-1) T^(n-1) + ... + c_0."""
    n = len(coeffs)
    C = np.zeros((n, n), dtype=np.int64)
    C[1:, :-1] = identity_matrix(n - 1)
    C[:, -1] = [-c % p for c in coeffs]
    return C


# kinds whose first matrix is always cyclic, and kinds whose first matrix
# is derogatory, so that the spin must answer; "random" and "noncommuting"
# (a second matrix that need not commute with the first) may go either way
CYCLIC_KINDS = ("companion", "jordan", "jordan_sum")
FALLBACK_KINDS = ("diag_112", "scalars", "jordan_2_1")


def draw_polynomial_tuple(data, p):
    """(kind, mats): a first matrix z and a second one, a random polynomial
    in z except for the kinds "scalars" (I, 2I) and "noncommuting"."""
    kind = data.draw(st.sampled_from(("random", "noncommuting") + CYCLIC_KINDS + FALLBACK_KINDS))
    entry = st.integers(0, p - 1)
    n = data.draw(st.integers(1, 6))
    if kind in ("random", "noncommuting"):
        z = draw_matrix(data, n, entry)
    elif kind == "companion":
        z = companion([data.draw(entry) for _ in range(n)], p)
    elif kind == "jordan":
        z = np.array(jordan(n, data.draw(entry)), dtype=np.int64)
    elif kind == "jordan_sum":
        # one block per eigenvalue, so z stays cyclic
        eigenvalues = data.draw(st.lists(entry, min_size=1, max_size=min(p, 3), unique=True))
        z = block_sum([jordan(data.draw(st.integers(1, 2)), lam) for lam in eigenvalues])
    elif kind == "diag_112":
        z = np.diag([1, 1, 2]).astype(np.int64)
    elif kind == "scalars":
        z = identity_matrix(max(n, 2))
        return kind, [z, 2 * z % p]
    else:
        z = block_sum([jordan(2, 1), jordan(1, 1)])
    z %= p
    if kind == "noncommuting":
        return kind, [z, draw_matrix(data, len(z), entry)]
    coeffs = [data.draw(entry) for _ in range(len(z))]
    return kind, [z, combine(coeffs, [mat_pow(z, j, p) for j in range(len(z))], p)]


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_polynomial_commutant_matches_both_oracles(data):
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    kind, mats = draw_polynomial_tuple(data, p)
    z, n = mats[0], len(mats[0])
    cyclic = brute_rank([mat_pow(z, j, p).reshape(-1) for j in range(n)], p) == n
    commuting = all(np.array_equal(mat_mul(z, M, p), mat_mul(M, z, p)) for M in mats[1:])
    assert cyclic or kind not in CYCLIC_KINDS
    assert not cyclic or kind not in FALLBACK_KINDS
    applies = cyclic and commuting
    event(f"{kind}, {'powers' if applies else 'spin'}")
    seed = data.draw(st.integers(0, 3))
    spun = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            matalg, "intertwiner_basis", lambda pairs, p: spun.append(1) or intertwiner_basis(pairs, p)
        )
        got = commutant_basis(mats, p)
        assert bool(spun) is not applies
        if p > len(got):
            spun.clear()
            cert = endomorphism_indecomposability(mats, p, seed=seed)
            assert bool(spun) is not applies
    want = kron_intertwiner_basis([(M, M) for M in mats], p)
    assert len(got) == len(want)
    for b, expected in zip(got, want):
        assert b.dtype == np.int64 and np.array_equal(b, expected)
    if p > len(got):
        want = regular_indecomposability(mats, p, seed=seed)
        assert json.dumps(cert, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_polynomial_commutant_of_sizes_zero_and_one():
    # n = 0: no basis at all, as the spin gives, not one 0 x 0 matrix
    empty = np.zeros((0, 0), dtype=np.int64)
    assert matalg._polynomial_commutant([empty, empty], P) is None
    assert commutant_basis([empty], P) == [] and commutant_basis([empty, empty], P) == []
    # n = 1: F_p itself
    mats = [as_matrix([[5]], P), as_matrix([[7]], P)]
    assert [b.tolist() for b in matalg._polynomial_commutant(mats, P)] == [[[1]]]
    assert [b.tolist() for b in commutant_basis(mats, P)] == [[[1]]]


def test_a_nilpotent_first_matrix_of_low_index_is_refused_before_elimination(monkeypatch):
    # z^2 = 0 for z = E_02 in size 3, so I, z, z^2 are dependent; the zero
    # square says so before any rref
    z = as_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]], P)
    eliminated = []
    monkeypatch.setattr(matalg, "rref", lambda A, p: eliminated.append(A.shape) or rref(A, p))
    assert matalg._polynomial_commutant([z, z], P) is None
    assert eliminated == []


def test_polynomial_commutant_reduces_negative_and_unreduced_entries():
    rng = random.Random(7)
    for p in (5, P, 2**31 - 1):
        J = as_matrix(jordan(4, 2), p)
        mats = [J, (mat_mul(J, J, p) + 3 * J) % p]
        want = [w.tolist() for w in kron_intertwiner_basis([(M, M) for M in mats], p)]
        shifts = lambda: np.array([[rng.randrange(-3, 4) for _ in range(4)] for _ in range(4)])
        shifted = [M + p * shifts() for M in mats]
        assert any((M < 0).any() for M in shifted) and any((M >= p).any() for M in shifted)
        assert [b.tolist() for b in matalg._polynomial_commutant(shifted, p)] == want
        assert [b.tolist() for b in commutant_basis(shifted, p)] == want


@pytest.mark.parametrize(
    "shapes, match",
    [
        ([], "need at least one matrix pair"),
        ([(3, 3), (2, 2)], "matrix pair shapes are inconsistent"),
        ([(2, 2), (3, 3)], "matrix pair shapes are inconsistent"),
        ([(2, 3)], "matrix pair shapes are inconsistent"),
    ],
)
def test_commutant_basis_refuses_inconsistent_shapes(shapes, match):
    # each first matrix that is square is a cyclic Jordan block
    mats = [np.eye(*shape, k=1, dtype=np.int64) for shape in shapes]
    with pytest.raises(InputError, match=match):
        commutant_basis(mats, P)


# ------------------------------------- the step-by-step versions as oracles
#
# min_poly, the F_p[T] product, division and power, mat_pow and the
# conjugacy word invariants as they were written one small step at a time:
# one solve per power of A, a reduction and a trimmed copy at every step of
# a univariate loop, a power started from the identity, one rank per word.
# Minimal polynomials, ranks, quotients, remainders and powers are unique,
# so the library must return exactly what these return.


def stepwise_min_poly(A, p):
    n = A.shape[0]
    if n == 0:
        return [1]
    vecs = [identity_matrix(n).reshape(-1)]
    power = identity_matrix(n)
    while True:
        power = mat_mul(power, A, p)
        x = solve(np.stack(vecs, axis=1), power.reshape(-1), p)
        if x is not None:
            return [(-int(c)) % p for c in x] + [1]
        vecs.append(power.reshape(-1))


def stepwise_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def stepwise_u_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return stepwise_trim(out)


def stepwise_u_divmod(f, g, p):
    f = stepwise_trim([c % p for c in f])
    g = stepwise_trim([c % p for c in g])
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while len(r) >= len(g) and r:
        coef = r[-1] * inv % p
        shift = len(r) - len(g)
        q[shift] = coef
        for i, b in enumerate(g):
            r[shift + i] = (r[shift + i] - coef * b) % p
        r = stepwise_trim(r)
    return stepwise_trim(q), r


def stepwise_u_powmod(f, e, mod, p):
    result = [1]
    base = stepwise_u_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            result = stepwise_u_divmod(stepwise_u_mul(result, base, p), mod, p)[1]
        base = stepwise_u_divmod(stepwise_u_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def repeated_product(A, e, p):
    """A^e (or a stack of powers) as e products from the identity."""
    out = np.broadcast_to(identity_matrix(A.shape[-1]), A.shape).copy()
    for _ in range(e):
        out = mat_mul(out, A, p)
    return out


def word_ranks(mats, p):
    """The rank of each word X_i, sum X_i, X_i X_j (i != j), X_i^2, one
    ``rank`` call per word."""
    k = len(mats)
    words = list(mats) + [sum(mats) % p]
    words += [mat_mul(mats[i], mats[j], p) for i in range(k) for j in range(k) if i != j]
    words += [mat_mul(X, X, p) for X in mats]
    return [rank(W, p) for W in words]


def draw_min_poly_matrix(data):
    """(p, A) with A of size 0..8 over F_2, F_3 or F_32003: dense; scalar;
    strictly upper triangular; or a direct sum of Jordan blocks of size
    1..3 whose eigenvalues repeat, conjugated by L U for unit triangular L
    and U (so derogatory, with repeated and defective eigenvalues)."""
    p = data.draw(st.sampled_from((2, 3, P)))
    n = data.draw(st.integers(0, 8))
    kind = data.draw(st.sampled_from(("dense", "scalar", "nilpotent", "jordan")))
    entry = st.integers(0, p - 1)
    if kind == "dense":
        return p, draw_matrix(data, n, entry)
    if kind == "scalar":
        return p, data.draw(entry) * identity_matrix(n)
    if kind == "nilpotent":
        return p, draw_matrix(data, n, entry, lambda i, j: i < j)
    J = np.zeros((n, n), dtype=np.int64)
    at = 0
    while at < n:
        size = min(data.draw(st.integers(1, 3)), n - at)
        lam = data.draw(st.integers(0, min(p, 3) - 1))
        J[at : at + size, at : at + size] = (
            lam * identity_matrix(size) + np.eye(size, k=1, dtype=np.int64)
        )
        at += size
    if not n:
        return p, J
    L = draw_matrix(data, n, entry, lambda i, j: i > j) + identity_matrix(n)
    U = draw_matrix(data, n, entry, lambda i, j: i < j) + identity_matrix(n)
    S = mat_mul(L, U, p)
    return p, mat_mul(mat_mul(S, J, p), inverse(S, p), p)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_min_poly_matches_one_solve_per_power(data):
    p, A = draw_min_poly_matrix(data)
    mu = min_poly(A, p)
    event(f"p = {p}, degree {u_deg(mu)} of {A.shape[0]}")
    assert mu == stepwise_min_poly(A, p)
    assert all(type(c) is int for c in mu)


UNIVARIATE_PRIMES = (2, 3, P, 2**31 - 1)


@st.composite
def univariate(draw, p, nonzero=False):
    """A coefficient list of degree 0..12 (or empty), its top entries
    possibly zero and its entries possibly outside 0..p-1."""
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1) | st.integers(-p, 2 * p)
    f = draw(st.lists(entry, min_size=1 if nonzero else 0, max_size=13))
    if draw(st.booleans()):
        f += [0] * draw(st.integers(1, 3))
    if nonzero:
        assume(any(c % p for c in f))
    return f


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_univariate_arithmetic_matches_the_stepwise_loops(data):
    p = data.draw(st.sampled_from(UNIVARIATE_PRIMES))
    f = data.draw(univariate(p))
    g = data.draw(univariate(p, nonzero=True))
    e = data.draw(st.integers(0, 3) | st.integers(0, p * p) | st.just(p))
    assert u_mul(f, g, p) == stepwise_u_mul(f, g, p)
    assert u_mul(g, f, p) == stepwise_u_mul(g, f, p)
    assert u_divmod(f, g, p) == stepwise_u_divmod(f, g, p)
    got = u_powmod(f, e, g, p)
    assert got == stepwise_u_powmod(f, e, g, p)
    assert all(type(c) is int for c in got)
    for zero in ([], [0], [p, 0]):
        with pytest.raises(ZeroDivisionError):
            u_divmod(f, zero, p)
        with pytest.raises(ZeroDivisionError):
            u_powmod(f, e, zero, p)


MAT_POW_PRIMES = (2, 3, 5, P, 2**31 - 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mat_pow_matches_repeated_products(data):
    p = data.draw(st.sampled_from(MAT_POW_PRIMES))
    n = data.draw(st.integers(1, 5))
    stack = data.draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    A = np.array(
        data.draw(st.lists(entry, min_size=n * n * int(np.prod(stack)),
                           max_size=n * n * int(np.prod(stack)))),
        dtype=np.int64,
    ).reshape(*stack, n, n)
    # e = p takes p products in the oracle, so only up to 32003
    e = data.draw(st.integers(0, 70) | st.just(p)) if p <= P else data.draw(st.integers(0, 70))
    event("e = p" if e == p else "e <= 70")
    got = mat_pow(A, e, p)
    assert got.shape == A.shape and got.dtype == np.int64
    assert np.array_equal(got, repeated_product(A, e, p))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_word_invariants_of_two_tuples_match_rank_by_rank(data):
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 3))
    As = draw_tuple(data, n, k, p)
    Bs = draw_tuple(data, n, k, p)
    got = _word_invariants([As, Bs], p)
    assert got == [word_ranks(As, p), word_ranks(Bs, p)]
    assert len(got[0]) == k + 1 + k * k
