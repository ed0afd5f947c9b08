"""Exact linear algebra over a prime field, plus the two matrix-pair
decision procedures the module-family machinery needs: simultaneous
conjugacy (module isomorphism for a pair of commuting actions) and
indecomposability via the endomorphism algebra.

Matrices are numpy int64 arrays with entries reduced mod p.  Products are
chunked so intermediate sums never overflow 63 bits, which keeps every
routine exact for any characteristic the field layer admits.

Elimination is sparsity-aware: each pivot step updates only the trailing
columns, and, when few rows have a nonzero in the pivot column, only
those rows.  The skipped entries are ones the full update would leave
unchanged (a zero multiplier, or a zero in the pivot row), so the result
is still the canonical reduced row echelon form, entry for entry.  The
intertwiner systems of the isomorphism test are tall and mostly zero,
which is where this pays.
"""

from __future__ import annotations

import random
from itertools import product as iter_product

import numpy as np

from .errors import CmwildError, InputError

# The decision procedures try SAMPLES random combinations of a basis before
# giving up on sampling, and enumerate a space of p**dim elements only when
# p**dim <= EXHAUSTIVE_LIMIT.
SAMPLES = 200
EXHAUSTIVE_LIMIT = 100_000

# ------------------------------------------------------------ dense mod p


def as_matrix(data, p: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim != 2:
        raise InputError("expected a two-dimensional matrix")
    return arr % p

def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat_mul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, chunked along the inner dimension to avoid overflow."""
    if A.shape[1] != B.shape[0]:
        raise InputError("matrix shapes do not compose")
    k = A.shape[1]
    if k == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    limit = max(1, (2**62) // max(1, (p - 1) ** 2))
    if k <= limit:
        return (A @ B) % p
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, k, limit):
        out = (out + A[:, s : s + limit] @ B[s : s + limit, :]) % p
    return out


def mat_pow(A: np.ndarray, e: int, p: int) -> np.ndarray:
    if A.shape[0] != A.shape[1]:
        raise InputError("matrix power needs a square matrix")
    result = identity_matrix(A.shape[0])
    base = A % p
    while e:
        if e & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return result


def rref(A: np.ndarray, p: int):
    """Reduced row echelon form; returns (R, pivot column list).

    Invariant: when column c is processed with r pivots found so far, rows
    r.. are zero left of c.  The pivot row is then zero there too, so each
    step updates only columns c.. .  It updates only the rows with a
    nonzero in column c when they are under a quarter of all rows (an
    indexed update), and otherwise slices all rows (cheaper on small or
    dense matrices).
    """
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        below = R[r:, c].nonzero()[0]
        if not below.size:
            continue
        hit = r + int(below[0])
        if hit != r:
            R[[r, hit], c:] = R[[hit, r], c:]
        pivot_row = (R[r, c:] * pow(int(R[r, c]), -1, p)) % p
        R[r, c:] = pivot_row
        touched = R[:, c].nonzero()[0]
        if 4 * touched.size < rows:
            touched = touched[touched != r]
            R[touched, c:] = (
                R[touched, c:] - np.outer(R[touched, c], pivot_row)
            ) % p
        else:
            col = R[:, c].copy()
            col[r] = 0
            R[:, c:] = (R[:, c:] - np.outer(col, pivot_row)) % p
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A: np.ndarray, p: int) -> int:
    if A.size == 0:
        return 0
    return len(rref(A, p)[1])


def nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Rows form a basis of the right kernel."""
    rows, cols = A.shape
    R, pivots = rref(A, p) if A.size else (A, [])
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots), free].T) % p
    return basis


def solve_many(A: np.ndarray, B: np.ndarray, p: int):
    """One solution of A x = b for each column b of B, or None where
    inconsistent.  Free variables are set to zero."""
    cols = A.shape[1]
    aug = np.concatenate([A % p, B % p], axis=1)
    R, pivots = rref(aug, p)
    pivots = [c for c in pivots if c < cols]
    # rows k.. are zero in the A part, so b is consistent exactly when its
    # reduced column vanishes there
    k = len(pivots)
    inconsistent = R[k:, cols:].any(axis=0)
    out = []
    for j in range(B.shape[1]):
        if inconsistent[j]:
            out.append(None)
            continue
        x = np.zeros(cols, dtype=np.int64)
        x[pivots] = R[:k, cols + j]
        out.append(x)
    return out


def solve(A: np.ndarray, b, p: int):
    res = solve_many(A, np.asarray(b, dtype=np.int64).reshape(-1, 1), p)
    return res[0]


def inverse(A: np.ndarray, p: int):
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise InputError("inverse needs a square matrix")
    R, pivots = rref(np.concatenate([A % p, identity_matrix(n)], axis=1), p)
    if [c for c in pivots if c < n] != list(range(n)):
        return None
    return R[:, n:]


def is_invertible(A: np.ndarray, p: int) -> bool:
    return A.shape[0] == A.shape[1] and rank(A, p) == A.shape[0]


# ----------------------------------------------- univariate F_p[T] helpers
#
# Coefficient lists, ascending degree, trailing zeros trimmed.


def u_trim(f):
    f = [c for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def u_deg(f) -> int:
    return len(f) - 1


def u_monic(f, p):
    f = u_trim([c % p for c in f])
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def u_add(f, g, p):
    n = max(len(f), len(g))
    return u_trim([( (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p for i in range(n)])


def u_sub(f, g, p):
    n = max(len(f), len(g))
    return u_trim([( (f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)])


def u_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return u_trim(out)


def u_divmod(f, g, p):
    f = u_trim([c % p for c in f])
    g = u_trim([c % p for c in g])
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
        r = u_trim(r)
    return u_trim(q), r


def u_div_exact(f, g, p):
    q, r = u_divmod(f, g, p)
    if r:
        raise CmwildError("inexact univariate division")
    return q


def u_gcd(f, g, p):
    a, b = u_trim([c % p for c in f]), u_trim([c % p for c in g])
    while b:
        a, b = b, u_divmod(a, b, p)[1]
    return u_monic(a, p)


def u_bezout(f, g, p):
    """(d, u, v) with u f + v g = d = monic gcd."""
    a, b = u_trim([c % p for c in f]), u_trim([c % p for c in g])
    ua, va = [1], []
    ub, vb = [], [1]
    while b:
        q, r = u_divmod(a, b, p)
        a, b = b, r
        ua, ub = ub, u_sub(ua, u_mul(q, ub, p), p)
        va, vb = vb, u_sub(va, u_mul(q, vb, p), p)
    if not a:
        return [], [], []
    inv = pow(a[-1], -1, p)
    scale = lambda h: u_trim([c * inv % p for c in h])
    return scale(a), scale(ua), scale(va)


def u_powmod(f, e, mod, p):
    result = [1]
    base = u_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            result = u_divmod(u_mul(result, base, p), mod, p)[1]
        base = u_divmod(u_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def u_deriv(f, p):
    return u_trim([i * f[i] % p for i in range(1, len(f))])


def u_eval_matrix(f, A: np.ndarray, p: int) -> np.ndarray:
    """f(A) by Horner."""
    n = A.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(u_trim(f)):
        out = mat_mul(out, A, p)
        out = (out + c * identity_matrix(n)) % p
    return out


def u_radical(f, p):
    """Product of the distinct monic irreducible factors of f."""
    f = u_monic(f, p)
    if u_deg(f) <= 0:
        return [1]
    df = u_deriv(f, p)
    if not df:
        # f = g(T^p) = (compressed g)(T)^p over F_p
        compressed = u_trim([f[i] for i in range(0, len(f), p)])
        return u_radical(compressed, p)
    g = u_gcd(f, df, p)
    w = u_div_exact(f, g, p)
    if u_deg(g) == 0:
        return w
    rest = g
    while True:
        c = u_gcd(rest, w, p)
        if u_deg(c) == 0:
            break
        rest = u_div_exact(rest, c, p)
    if u_deg(rest) == 0:
        return w
    return u_mul(w, u_radical(rest, p), p)


def _equal_degree_split(v, k, p, rng, tries=128):
    """Split a squarefree product of >= 2 irreducibles, all of degree k."""
    d = u_deg(v)
    for _ in range(tries):
        rho = [rng.randrange(p) for _ in range(d)]
        rho = u_trim(rho)
        if u_deg(rho) < 1:
            continue
        c = u_gcd(v, rho, p)
        if 0 < u_deg(c) < d:
            return c
        if p == 2:
            s = []
            acc = u_divmod(rho, v, p)[1]
            for _ in range(k):
                s = u_add(s, acc, p)
                acc = u_powmod(acc, 2, v, p)
            c = u_gcd(v, s, p)
        else:
            s = u_powmod(rho, (p**k - 1) // 2, v, p)
            c = u_gcd(v, u_sub(s, [1], p), p)
        if 0 < u_deg(c) < d:
            return c
    raise CmwildError("equal-degree splitting did not converge")


def _lift_multiplicity(mu, g, p):
    """The full-multiplicity part of mu supported on the factors of g."""
    G = u_gcd(mu, g, p)
    while True:
        rem = u_div_exact(mu, G, p)
        c = u_gcd(rem, G, p)
        if u_deg(c) == 0:
            return G
        G = u_mul(G, c, p)


def coprime_split(mu, p, rng):
    """A nontrivial factorization mu = g * h with gcd(g, h) = 1, or None
    when mu is a power of a single irreducible."""
    mu = u_monic(mu, p)
    if u_deg(mu) <= 1:
        return None
    w = u_radical(mu, p)
    if u_deg(w) == u_deg(mu) == 1:
        return None
    if u_deg(w) == 1:
        return None  # single irreducible factor
    # distinct-degree scan on the squarefree radical
    v = w
    frob = u_powmod([0, 1], p, v, p)  # T^p mod v
    k = 1
    g_part = None
    while u_deg(v) > 0:
        cand = u_gcd(v, u_sub(frob, [0, 1], p), p)
        if 0 < u_deg(cand) < u_deg(v):
            g_part = cand
            break
        if u_deg(cand) == u_deg(v):
            # every remaining factor has degree k
            if u_deg(v) == k:
                return None  # irreducible radical: mu is a prime power
            g_part = _equal_degree_split(v, k, p, rng)
            break
        k += 1
        if k > u_deg(v):
            raise CmwildError("distinct-degree scan overran the radical")
        frob = u_powmod(frob, p, v, p)
    if g_part is None:
        return None
    G = _lift_multiplicity(mu, g_part, p)
    H = u_div_exact(mu, G, p)
    if u_deg(G) < 1 or u_deg(H) < 1:
        raise CmwildError("degenerate coprime split")
    return u_monic(G, p), u_monic(H, p)


# ----------------------------------------------------------- matrix algebra


def min_poly(A: np.ndarray, p: int):
    """Monic minimal polynomial of a square matrix, ascending coefficients."""
    n = A.shape[0]
    if n == 0:
        return [1]
    vecs = [identity_matrix(n).reshape(-1)]
    power = identity_matrix(n)
    while True:
        power = mat_mul(power, A, p)
        stacked = np.stack(vecs, axis=1)  # n^2 x k
        target = power.reshape(-1)
        x = solve(stacked, target, p)
        if x is not None:
            return [(-int(c)) % p for c in x] + [1]
        vecs.append(target)


def intertwiner_basis(pairs, p: int):
    """Basis of {sigma : sigma A = B sigma for every (A, B) in pairs},
    as a list of matrices."""
    if not pairs:
        raise InputError("need at least one matrix pair")
    n = pairs[0][0].shape[0]
    m = pairs[0][1].shape[0]
    blocks = []
    eye_n = identity_matrix(n)
    eye_m = identity_matrix(m)
    for A, B in pairs:
        if A.shape != (n, n) or B.shape != (m, m):
            raise InputError("matrix pair shapes are inconsistent")
        # row-major vec: vec(sigma A) = (I (x) A^T) vec, vec(B sigma) = (B (x) I) vec
        blocks.append((np.kron(eye_m, A.T) - np.kron(B, eye_n)) % p)
    system = np.concatenate(blocks, axis=0) if blocks else None
    if m * n == 0:
        return []
    basis = nullspace(system, p)
    return [row.reshape(m, n) for row in basis]


def commutant_basis(mats, p: int):
    return intertwiner_basis([(A, A) for A in mats], p)


class _CoordSolver:
    """Coordinates of n x n matrices with respect to a fixed basis list."""

    def __init__(self, basis, p):
        self.p = p
        self.basis = basis
        self.stacked = np.stack([b.reshape(-1) for b in basis], axis=1)

    def coords(self, M: np.ndarray):
        x = solve(self.stacked, M.reshape(-1), self.p)
        if x is None:
            raise CmwildError("matrix lies outside the spanned algebra")
        return x


def trace_form_radical(basis, p: int):
    """Coordinate rows of the radical of the endomorphism algebra, via the
    trace form of the regular representation.  Valid for p > dim."""
    dim = len(basis)
    solver = _CoordSolver(basis, p)
    # L_i = left multiplication by basis[i] in algebra coordinates
    L = []
    for b in basis:
        prods = np.stack(
            [mat_mul(b, other, p).reshape(-1) for other in basis], axis=1
        )
        cols = solve_many(solver.stacked, prods, p)
        if any(c is None for c in cols):
            raise CmwildError("algebra basis is not multiplicatively closed")
        L.append(np.stack(cols, axis=1))
    gram = np.zeros((dim, dim), dtype=np.int64)
    for i in range(dim):
        for j in range(i, dim):
            t = int(np.trace(mat_mul(L[i], L[j], p)) % p)
            gram[i, j] = t
            gram[j, i] = t
    return nullspace(gram, p)


class _SemisimpleQuotient:
    """The quotient of a matrix algebra by its radical, in coordinates."""

    def __init__(self, basis, rad_rows, p):
        self.p = p
        self.basis = basis
        self.dim = len(basis)
        self.solver = _CoordSolver(basis, p)
        R, pivots = (
            rref(rad_rows, p) if rad_rows.size else (rad_rows, [])
        )
        self.rad_rref = R
        self.rad_pivots = pivots
        pivot_set = set(pivots)
        self.free = [c for c in range(self.dim) if c not in pivot_set]

    def reduce(self, coords: np.ndarray) -> np.ndarray:
        x = coords % self.p
        for r, pc in enumerate(self.rad_pivots):
            c = int(x[pc])
            if c:
                x = (x - c * self.rad_rref[r]) % self.p
        return x

    def lift(self, coords: np.ndarray) -> np.ndarray:
        n = self.basis[0].shape[0]
        out = np.zeros((n, n), dtype=np.int64)
        for i, c in enumerate(coords):
            if c:
                out = (out + int(c) * self.basis[i]) % self.p
        return out

    def coset_basis(self):
        out = []
        for c in self.free:
            e = np.zeros(self.dim, dtype=np.int64)
            e[c] = 1
            out.append(e)
        return out

    def mult(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        prod = mat_mul(self.lift(u), self.lift(v), self.p)
        return self.reduce(self.solver.coords(prod))

    def is_commutative(self) -> bool:
        cb = self.coset_basis()
        for i in range(len(cb)):
            for j in range(i + 1, len(cb)):
                if np.any(self.mult(cb[i], cb[j]) != self.mult(cb[j], cb[i])):
                    return False
        return True

    def frobenius_fixed_vectors(self):
        """Basis of {x in quotient : x^p = x}; quotient must be commutative."""
        cb = self.coset_basis()
        if not cb:
            return []
        cols = []
        for e in cb:
            img = self.reduce(self.solver.coords(mat_pow(self.lift(e), self.p, self.p)))
            cols.append(img[self.free] if self.free else img)
        F = np.stack(cols, axis=1)
        F = (F - identity_matrix(len(cb))) % self.p
        fixed = nullspace(F, self.p)
        out = []
        for row in fixed:
            full = np.zeros(self.dim, dtype=np.int64)
            for k, c in enumerate(self.free):
                full[c] = row[k]
            out.append(full)
        return out


# ------------------------------------------------------------- conjugacy


def _word_invariants(mats, p: int):
    words = list(mats)
    total = np.zeros_like(mats[0])
    for M in mats:
        total = (total + M) % p
    words.append(total)
    for i, X in enumerate(mats):
        for j, Y in enumerate(mats):
            if i != j:
                words.append(mat_mul(X, Y, p))
    for X in mats:
        words.append(mat_mul(X, X, p))
    return [rank(W, p) for W in words]


def simultaneous_conjugacy(
    As,
    Bs,
    p: int,
    seed: int = 0,
) -> dict:
    """Decide simultaneous conjugacy of two tuples of square matrices: is
    there one invertible sigma with sigma A_i = B_i sigma for every i?

    Returns a dict with verdict Isomorphic / NonIsomorphic / Undecided, an
    exact witness or obstruction, and the dimension of the space of
    intertwining maps.
    """
    if len(As) != len(Bs) or not As:
        raise InputError("need two equal-length nonempty matrix tuples")
    As = [as_matrix(A, p) for A in As]
    Bs = [as_matrix(B, p) for B in Bs]
    if any(A.shape != As[0].shape for A in As):
        raise InputError("action matrices must share shapes within a tuple")
    if any(B.shape != Bs[0].shape for B in Bs):
        raise InputError("action matrices must share shapes within a tuple")
    if As[0].shape[0] != As[0].shape[1] or Bs[0].shape[0] != Bs[0].shape[1]:
        raise InputError("action matrices must be square")
    out = {"verdict": "Undecided", "witness": None, "hom_space_dim": None}
    if As[0].shape != Bs[0].shape:
        out["verdict"] = "NonIsomorphic"
        out["reason"] = "underlying dimensions differ"
        return out
    n = As[0].shape[0]
    if n == 0:
        out.update(verdict="Isomorphic", witness=[], hom_space_dim=0,
                   reason="both modules are zero")
        return out
    if all(np.array_equal(A, B) for A, B in zip(As, Bs)):
        out.update(
            verdict="Isomorphic",
            witness=identity_matrix(n).tolist(),
            hom_space_dim=None,
            reason="identical action matrices",
        )
        return out
    inv_a = _word_invariants(As, p)
    inv_b = _word_invariants(Bs, p)
    if inv_a != inv_b:
        out["verdict"] = "NonIsomorphic"
        out["reason"] = f"rank invariants differ: {inv_a} vs {inv_b}"
        return out
    homs = intertwiner_basis(list(zip(As, Bs)), p)
    m = len(homs)
    out["hom_space_dim"] = m
    if m == 0:
        out["verdict"] = "NonIsomorphic"
        out["reason"] = "no nonzero homomorphisms"
        return out

    def certify(sigma):
        if not is_invertible(sigma, p):
            return False
        for A, B in zip(As, Bs):
            if np.any(mat_mul(sigma, A, p) != mat_mul(B, sigma, p)):
                return False
        return True

    rng = random.Random(seed)
    for _ in range(SAMPLES):
        sigma = np.zeros((n, n), dtype=np.int64)
        for h in homs:
            sigma = (sigma + rng.randrange(p) * h) % p
        if certify(sigma):
            out.update(verdict="Isomorphic", witness=sigma.tolist(),
                       reason="invertible homomorphism found by sampling")
            return out
    if p**m <= EXHAUSTIVE_LIMIT:
        for combo in iter_product(range(p), repeat=m):
            if not any(combo):
                continue
            sigma = np.zeros((n, n), dtype=np.int64)
            for c, h in zip(combo, homs):
                if c:
                    sigma = (sigma + c * h) % p
            if certify(sigma):
                out.update(verdict="Isomorphic", witness=sigma.tolist(),
                           reason="invertible homomorphism found exhaustively")
                return out
        out["verdict"] = "NonIsomorphic"
        out["reason"] = "no invertible homomorphism (exhaustive over hom space)"
        return out
    out["reason"] = (
        "sampling found no invertible homomorphism and the hom space is too"
        " large to exhaust"
    )
    return out


# ------------------------------------------------------- indecomposability


def _idempotent_from_element(a: np.ndarray, p: int, rng) -> np.ndarray | None:
    """An exact nontrivial idempotent that is a polynomial in a, when the
    minimal polynomial of a admits a coprime split."""
    mu = min_poly(a, p)
    split = coprime_split(mu, p, rng)
    if split is None:
        return None
    g, h = split
    _d, u, _v = u_bezout(g, h, p)
    e = u_eval_matrix(u_mul(u, g, p), a, p)
    n = a.shape[0]
    if np.any(mat_mul(e, e, p) != e):
        raise CmwildError("CRT idempotent failed to square to itself")
    if not e.any() or np.array_equal(e, identity_matrix(n)):
        raise CmwildError("CRT idempotent is trivial")
    return e


def endomorphism_indecomposability(
    mats,
    p: int,
    seed: int = 0,
) -> dict:
    """Decide whether the module with action matrices `mats` is
    indecomposable, by testing whether its endomorphism algebra is local.

    The endomorphism algebra is the joint commutant.  For p > dim End the
    radical comes from the trace form of the regular representation; the
    module is indecomposable exactly when the semisimple quotient is a
    field, detected as: commutative with one-dimensional Frobenius-fixed
    subspace.  Decomposable verdicts carry an exact idempotent witness when
    one is found (always, in the commutative case).
    """
    if not mats:
        raise InputError("need at least one action matrix")
    mats = [as_matrix(M, p) for M in mats]
    shape = mats[0].shape
    if any(M.shape != shape for M in mats) or shape[0] != shape[1]:
        raise InputError("need square matrices of one common size")
    n = shape[0]
    if n == 0:
        raise InputError("the zero module has no indecomposability verdict")
    basis = commutant_basis(mats, p)
    dim = len(basis)
    out = {"verdict": "Undecided", "endo_dim": dim, "idempotent": None,
           "field_count": None}
    if dim == 1:
        out.update(verdict="Indecomposable",
                   reason="endomorphism algebra is the ground field",
                   field_count=1)
        return out
    rng = random.Random(seed)
    if p > dim:
        rad_rows = trace_form_radical(basis, p)
        S = _SemisimpleQuotient(basis, rad_rows, p)
        if S.is_commutative():
            fixed = S.frobenius_fixed_vectors()
            r = len(fixed)
            out["field_count"] = r
            if r <= 1:
                out.update(
                    verdict="Indecomposable",
                    reason="semisimple quotient of the endomorphism algebra"
                    " is a field",
                )
                return out
            # some fixed vector is independent of the identity coset
            one = S.reduce(S.solver.coords(identity_matrix(n)))
            for v in fixed:
                if rank(np.stack([one, v]), p) == 2:
                    e = _idempotent_from_element(S.lift(v), p, rng)
                    if e is not None:
                        out.update(
                            verdict="Decomposable",
                            idempotent=e.tolist(),
                            reason="Frobenius-fixed subspace splits off an"
                            " idempotent",
                        )
                        return out
            raise CmwildError(
                "Frobenius-fixed space exceeded the identity line but no"
                " element produced a split"
            )
        # noncommutative semisimple quotient: a full matrix block exists
        out["verdict"] = "Decomposable"
        out["reason"] = (
            "semisimple quotient of the endomorphism algebra is"
            " noncommutative"
        )
        for _ in range(SAMPLES):
            a = np.zeros((n, n), dtype=np.int64)
            for b in basis:
                a = (a + rng.randrange(p) * b) % p
            e = _idempotent_from_element(a, p, rng)
            if e is not None:
                out["idempotent"] = e.tolist()
                break
        return out
    # characteristic too small for the trace form: exhaust if feasible
    if p**dim <= EXHAUSTIVE_LIMIT:
        eye = identity_matrix(n)
        for combo in iter_product(range(p), repeat=dim):
            e = np.zeros((n, n), dtype=np.int64)
            for c, b in zip(combo, basis):
                if c:
                    e = (e + c * b) % p
            if not e.any() or np.array_equal(e, eye):
                continue
            if np.array_equal(mat_mul(e, e, p), e):
                out.update(verdict="Decomposable", idempotent=e.tolist(),
                           reason="idempotent found exhaustively")
                return out
        out.update(verdict="Indecomposable",
                   reason="no nontrivial idempotent (exhaustive)")
        return out
    out["reason"] = (
        "characteristic too small for the trace form and the endomorphism"
        " algebra is too large to exhaust"
    )
    return out

