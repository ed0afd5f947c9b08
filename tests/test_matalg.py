"""Dense mod-p linear algebra, univariate splitting, conjugacy, and
indecomposability certificates."""

import random
from itertools import product as iter_product

import numpy as np

from cmwild.matalg import (
    as_matrix,
    commutant_basis,
    coprime_split,
    endomorphism_indecomposability,
    identity_matrix,
    intertwiner_basis,
    inverse,
    is_invertible,
    mat_mul,
    mat_pow,
    min_poly,
    nullspace,
    rank,
    rref,
    simultaneous_conjugacy,
    solve,
    solve_many,
    trace_form_radical,
    u_bezout,
    u_deg,
    u_divmod,
    u_gcd,
    u_monic,
    u_mul,
    u_radical,
)

P = 32003


# ------------------------------------------------------------ dense solver


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
        inv = inverse(A, P)
        if inv is not None:
            assert np.array_equal(mat_mul(A, inv, P), identity_matrix(n))
            assert is_invertible(A, P)
        else:
            assert rank(A, P) < n


def test_mat_mul_chunked_large_characteristic():
    p = 2147483647  # Mersenne prime just under the characteristic cap
    A = as_matrix([[p - 1, p - 2, p - 3, p - 5, p - 7]] * 4, p)
    B = as_matrix([[p - 1] * 3] * 5, p)
    got = mat_mul(A, B, p)
    for i in range(4):
        for j in range(3):
            want = sum(int(A[i, k]) * int(B[k, j]) for k in range(5)) % p
            assert int(got[i, j]) == want


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
    # the Kronecker system intertwiner_basis builds for two members of the
    # Fermat quartic family, as the module-level isomorphism test sees it
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


def test_radical_strips_multiplicity():
    # T^3 (T-1)^2 has radical T(T-1) = T^2 - T
    mu = u_mul([0, 0, 0, 1], u_mul([P - 1, 1], [P - 1, 1], P), P)
    assert u_radical(mu, P) == [0, P - 1, 1]
    # characteristic-2 case with vanishing derivative: (T+1)^2 = T^2+1
    assert u_radical([1, 0, 1], 2) == [1, 1]


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
    rad = trace_form_radical(basis, P)
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


def test_intertwiner_rectangular():
    # hom space between modules of different sizes
    A = as_matrix([[0]], P)
    B = as_matrix([[0, 1], [0, 0]], P)
    homs = intertwiner_basis([(A, B)], P)
    assert all(h.shape == (2, 1) for h in homs)
    for h in homs:
        assert np.array_equal(mat_mul(h, A, P), mat_mul(B, h, P))
