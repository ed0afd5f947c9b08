"""Exact linear algebra over a prime field, plus the two matrix-pair
decision procedures the module-family machinery needs: simultaneous
conjugacy (module isomorphism for a pair of commuting actions) and
indecomposability via the endomorphism algebra.

The endomorphism algebra is held as its canonical commutant basis alone:
an element's coordinates are its entries at the basis's free positions,
with no elimination.  The trace-form radical, the commutativity of the
quotient by it and Frobenius on its cosets are read off those entries, and
every product read is checked to be the combination they give.  Every
linear combination of a basis goes through ``combine``.  When the first
action matrix z is cyclic (I, z, ..., z^(n-1) independent) and commutes
with the others, the algebra is F_p[z]: its basis is read off one
elimination of those powers, with no spin, and it is commutative, so no
commutator is tested.

The small products of both decisions run stacked: the commutators of the
free cosets in chunks of 1, 2, 4, ... pairs (one product and one coordinate
read per chunk; the chunk with the first noncommuting pair ends the test),
Frobenius as one power of the stack of cosets, and the ranks of the
conjugacy word invariants of both tuples in one elimination over all their
words (``ranks``).  A power starts at the lowest set bit of its exponent
and takes no square past the top bit.

Matrices are numpy int64 arrays with entries reduced mod p; ``mat_mul``
and ``mat_pow`` also take stacks of them along leading axes.  Products are
chunked, and ``rref`` reduces its whole matrix often enough, that no
intermediate value overflows int64, which keeps every routine exact for
any prime p <= 2**31, p = 2 included (rings refuse it); both decisions
refuse any other p.

Elimination is sparsity-aware and reduces lazily: each pivot step updates
only the trailing columns, and, when few rows have a nonzero in the pivot
column, only those rows.  The skipped entries are ones the full update
would leave unchanged mod p (a zero multiplier, or a pivot-row entry that
is zero mod p).  A step reduces mod p only a copy of its pivot column and
its pivot row; the rows it updates stay unreduced until the whole matrix
is reduced, every few steps at the largest primes and once at the end.
So the result is still the canonical reduced row echelon form, entry for
entry.

Hom spaces {sigma : sigma A_i = B_i sigma} are found by spinning a module
(the standard-basis method of Parker's MeatAxe): a module map is fixed by
the images of the generators the spin picks, so the linear system has one
block of unknowns per generator instead of the n*m entries of sigma.  The
module spun is the target's transpose, read from its last row: sigma is
then fixed by its rows at the generators, from the last row up, every
other row depends only on the generator rows below it, and the nullspace
of the system is already the canonical nullspace basis of the n*m-column
system, with no further elimination.  So the basis does not depend on the
spin, and neither do the witnesses and idempotents built from it.

A Decomposable verdict's idempotent is a polynomial in one endomorphism a:
its minimal polynomial mu is split into coprime factors G * H by one
distinct-degree scan on mu itself (``coprime_split``; the equal-degree
split of Cantor-Zassenhaus when every factor has one degree), and the
idempotent is (u G)(a) for the Bezout cofactor u of G modulo H.  mu is
read off one elimination of vec(I), vec(a), ..., vec(a^n), and the powers
in F_p[T]/(mu) that the scan takes fold each product modulo mu as it is
formed, in unreduced Python ints, reducing mod p only where a coefficient
is read.
"""

from __future__ import annotations

import random
from itertools import product as iter_product

import numpy as np

from .errors import CmwildError, InputError
from .field import check_characteristic

# The decision procedures try SAMPLES random combinations of a basis before
# giving up on sampling, and enumerate a space of p**dim elements only when
# p**dim <= EXHAUSTIVE_LIMIT.
SAMPLES = 200
EXHAUSTIVE_LIMIT = 100_000

# ------------------------------------------------------------ dense mod p


def as_matrix(data, p: int) -> np.ndarray:
    """data as an int64 matrix with entries reduced mod p.  Entries must be
    integers (bool, float and str are refused); Python ints beyond int64
    are reduced exactly."""
    # a signed integer array is checked by its dtype; anything else entry by
    # entry, so a bool among ints or an int beyond int64 is seen
    arr = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=object)
    if arr.ndim != 2:
        raise InputError("expected a two-dimensional matrix")
    if arr.dtype.kind == "i":
        return arr.astype(np.int64, copy=False) % p
    entries = arr.ravel().tolist()
    if any(not isinstance(x, (int, np.integer)) or isinstance(x, bool) for x in entries):
        raise InputError("matrix entries must be integers")
    return np.array([int(x) % p for x in entries], dtype=np.int64).reshape(arr.shape)


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat_mul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p over any leading batch axes (A[..., n, k] @ B[..., k, m]),
    chunked along k to avoid overflow."""
    k = A.shape[-1]
    if k != B.shape[-2]:
        raise InputError("matrix shapes do not compose")
    limit = max(1, (2**62) // max(1, (p - 1) ** 2))
    if k <= limit:
        return (A @ B) % p
    out = 0
    for s in range(0, k, limit):
        out = (out + A[..., s : s + limit] @ B[..., s : s + limit, :]) % p
    return out


def mat_pow(A: np.ndarray, e: int, p: int) -> np.ndarray:
    """A**e mod p for a square matrix or a stack of them (A[..., n, n])."""
    if A.shape[-1] != A.shape[-2]:
        raise InputError("matrix power needs a square matrix")
    if not e:
        return np.broadcast_to(identity_matrix(A.shape[-1]), A.shape).copy()
    # start from A^(2^z) for the lowest set bit z of e; no square follows
    # the top bit
    base = A % p
    while not e & 1:
        base = mat_mul(base, base, p)
        e >>= 1
    result = base
    e >>= 1
    while e:
        base = mat_mul(base, base, p)
        if e & 1:
            result = mat_mul(result, base, p)
        e >>= 1
    return result


def rref(A: np.ndarray, p: int):
    """Reduced row echelon form; returns (R, pivot column list).

    Invariant: when column c is processed with r pivots found so far, rows
    r.. are zero mod p left of c.  The pivot row is then zero there too, so
    each step updates only columns c.. .  It updates only the rows with a
    nonzero in column c when they are under a quarter of all rows (an
    indexed update), and otherwise slices all rows (cheaper on small or
    dense matrices).

    Reduction mod p is lazy.  A step reads column c reduced, into a new
    array that gives the pivot and the multipliers, and reduces the pivot
    row before and after scaling it; the rows it updates stay unreduced.
    Every entry is congruent to its reduced value, and k steps after the
    last full reduction it lies in [-k (p-1)^2, p): a step subtracts from
    it the product of a reduced multiplier and a reduced pivot-row entry.
    So the whole matrix is reduced every ``room`` steps, the most that keep
    every entry above -2^63, and once at the end.  ``room`` is at least 1
    for any p <= 2^31: 2 at 2^31 - 1, 8 at 1073741789.
    """
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    room = (2**63 - 1 - (p - 1)) // (p - 1) ** 2
    steps = 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = R[:, c] % p
        below = col[r:].nonzero()[0]
        if not below.size:
            continue
        if steps == room:
            R[:, c:] %= p
            steps = 0
        hit = r + int(below[0])
        if hit != r:
            R[[r, hit], c:] = R[[hit, r], c:]
            col[r], col[hit] = col[hit], 0
        pivot_row = R[r, c:]
        pivot_row %= p
        pivot_row *= pow(int(col[r]), -1, p)
        pivot_row %= p
        touched = col.nonzero()[0]
        if 4 * touched.size < rows:
            touched = touched[touched != r]
            R[touched, c:] -= np.outer(col[touched], pivot_row)
        else:
            col[r] = 0
            R[:, c:] -= np.outer(col, pivot_row)
        steps += 1
        pivots.append(c)
        r += 1
    R %= p
    return R, pivots


def rank(A: np.ndarray, p: int) -> int:
    if A.size == 0:
        return 0
    return len(rref(A, p)[1])


def ranks(stack: np.ndarray, p: int) -> list:
    """The rank of every matrix of a same-shape stack (stack[s, r, c]), by
    one elimination run on all of them at once.

    Column c takes, in each matrix, its first unused row with a nonzero
    there as pivot, marks it used, and clears column c from the rows that
    were unused by row <- pivot * row - row[c] * pivot_row (the pivot row
    itself goes to zero; it is never read again).  Scaling a row by a unit
    keeps the rank, so no inverse is needed.
    """
    R = np.array(stack, dtype=np.int64) % p
    if not R.size:
        return [0] * len(R)
    at = np.arange(len(R))
    used = np.zeros(R.shape[:2], dtype=bool)
    for c in range(R.shape[2]):
        live = (R[:, :, c] != 0) & ~used
        hit = live.argmax(axis=1)
        found = live[at, hit]
        if not found.any():
            continue
        used[at[found], hit[found]] = True
        pivot_rows = R[at, hit, c:]
        scale = np.where(found, pivot_rows[:, 0], 1)
        mult = np.where(live, R[:, :, c], 0)
        R[:, :, c:] = (
            scale[:, None, None] * R[:, :, c:] - mult[:, :, None] * pivot_rows[:, None, :]
        ) % p
    return used.sum(axis=1).tolist()


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


def u_add(f, g, p, c=1):
    """f + c*g."""
    n = max(len(f), len(g))
    return u_trim([((f[i] if i < len(f) else 0) + c * (g[i] if i < len(g) else 0)) % p
                   for i in range(n)])


def _convolve(f, g):
    """The coefficients of f * g, unreduced: Python ints do not overflow,
    so reduction waits for the reader."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def u_mul(f, g, p):
    if not f or not g:
        return []
    return u_trim([c % p for c in _convolve(f, g)])


def u_divmod(f, g, p):
    f = u_trim([c % p for c in f])
    g = u_trim([c % p for c in g])
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    inv = pow(g[-1], -1, p)
    d = len(g) - 1
    q = [0] * max(0, len(f) - d)
    # the remainder is f, reduced in place: the step at shift s clears
    # r[s + d] and touches only r[s .. s + d]
    r = f
    for s in range(len(f) - 1 - d, -1, -1):
        coef = r[s + d] * inv % p
        if coef:
            q[s] = coef
            for i, b in enumerate(g, s):
                r[i] = (r[i] - coef * b) % p
    return u_trim(q), u_trim(r[:d])


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
        ua, ub = ub, u_add(ua, u_mul(q, ub, p), p, -1)
        va, vb = vb, u_add(va, u_mul(q, vb, p), p, -1)
    if not a:
        return [], [], []
    inv = pow(a[-1], -1, p)
    scale = lambda h: u_trim([c * inv % p for c in h])
    return scale(a), scale(ua), scale(va)


def _fold(c, low, p):
    """The remainder of the coefficient list c (entries any ints, length
    at least d) modulo the monic T^d + low[d-1] T^(d-1) + ... + low[0],
    d = len(low) >= 1, as d reduced entries, untrimmed; c is overwritten.
    From the top down, T^i = T^(i-d) T^d folds c[i] into c[i-d .. i-1]."""
    d = len(low)
    for i in range(len(c) - 1, d - 1, -1):
        top = c[i] % p
        if top:
            for j, m in enumerate(low, i - d):
                c[j] -= top * m
    return [x % p for x in c[:d]]


def u_powmod(f, e, mod, p):
    """f^e modulo mod, trimmed; [1] for e = 0.  Square-and-multiply from
    the top bit in F_p[T]/(mod): each product is formed unreduced and
    folded modulo the monic mod in one pass (remainders modulo mod and
    modulo its monic multiple are the same)."""
    mod = u_monic(mod, p)
    if not mod:
        raise ZeroDivisionError("univariate division by zero")
    if not e:
        return [1]
    low = mod[:-1]
    if not low:
        return []
    base = _fold([c % p for c in f] + [0] * len(low), low, p)
    result = base
    for bit in bin(e)[3:]:
        result = _fold(_convolve(result, result), low, p)
        if bit == "1":
            result = _fold(_convolve(result, base), low, p)
    return u_trim(result)


def u_eval_matrix(f, A: np.ndarray, p: int) -> np.ndarray:
    """f(A) by Horner."""
    n = A.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(u_trim(f)):
        out = mat_mul(out, A, p)
        out = (out + c * identity_matrix(n)) % p
    return out


def _equal_degree_split(v, k, p, rng):
    """Split a squarefree product of >= 2 irreducibles, all of degree k."""
    d = u_deg(v)
    for _ in range(128):
        rho = u_trim([rng.randrange(p) for _ in range(d)])
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
            c = u_gcd(v, u_add(s, [1], p, -1), p)
        if 0 < u_deg(c) < d:
            return c
    raise CmwildError("equal-degree splitting did not converge")


def coprime_split(mu, p, rng):
    """A nontrivial factorization mu = G * H with gcd(G, H) = 1, or None
    when mu is a power of a single irreducible.

    One distinct-degree scan on mu itself (Cantor-Zassenhaus): at step k,
    g = gcd(mu, T^(p^k) - T) is the product of the distinct irreducible
    factors of mu whose degree divides k, and G = gcd(mu, g^deg(mu)) is the
    part of mu on those factors, with full multiplicity.  The first k with
    g != 1 is the least factor degree; if G = mu there, every factor has
    degree k and g is the squarefree radical of mu, which the equal-degree
    split cuts in two unless it is one irreducible.
    """
    mu = u_monic(mu, p)
    n = u_deg(mu)
    frob = [0, 1]
    for k in range(1, n):
        frob = u_powmod(frob, p, mu, p)  # T^(p^k) mod mu
        g = u_gcd(mu, u_add(frob, [0, 1], p, -1), p)
        if u_deg(g) == 0:
            continue
        G = u_gcd(mu, u_powmod(g, n, mu, p), p)
        if G == mu:
            if u_deg(g) == k:
                return None  # mu is a power of the irreducible g
            G = u_gcd(mu, u_powmod(_equal_degree_split(g, k, p, rng), n, mu, p), p)
        H, rem = u_divmod(mu, G, p)
        if rem or u_deg(G) < 1 or u_deg(H) < 1:
            raise CmwildError("degenerate coprime split")
        return G, H
    return None  # no factor of degree < n: mu is irreducible, or 1


# ----------------------------------------------------------- matrix algebra


def min_poly(A: np.ndarray, p: int):
    """Monic minimal polynomial of a square matrix, ascending coefficients."""
    n = A.shape[0]
    if n == 0:
        return [1]
    powers = [identity_matrix(n), A % p]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], A, p))
    # column j is vec(A^j).  They are independent up to the first one in
    # the span of those before it, A^k with k <= n (Cayley-Hamilton), so
    # the pivots are 0..k-1 and column k holds A^k = sum_j R[j, k] A^j
    R, pivots = rref(np.stack([M.reshape(-1) for M in powers], axis=1), p)
    k = len(pivots)
    return [(-int(c)) % p for c in R[:k, k]] + [1]


def _spin(stacked: np.ndarray, p: int):
    """Spin F^n under the n x n blocks A_i of stacked = [A_1; A_2; ...]
    from e_0; whenever the span closes early, the next generator is the
    standard vector of smallest index outside it.  So when generator e_k is
    taken, e_0, ..., e_(k-1) already lie in the span of the earlier ones,
    which ``intertwiner_basis`` relies on.  (The smallest index that is not
    a pivot of the span need not be that vector: after e_0 + e_1 it is e_1,
    while e_0 lies outside too.)

    Returns (S, S_inv, origin): the columns of S are a basis of F^n, and
    origin[l] is (i, j) when column l is A_i @ S[:, j], or None when it
    is a generator.  Each generator is followed by the vectors it spans
    before the next one.  Membership is tested against a reduced echelon
    basis of the span, one row per kept vector; each row also carries the
    combination of kept vectors it equals.  Once the span is F^n the rows
    are unit vectors, so those combinations are the columns of S^-1.
    """
    n = stacked.shape[1]
    # row r is [u_r | c_r] with u_r = S @ c_r
    echelon = np.zeros((n, 2 * n), dtype=np.int64)
    pivots, vecs, origin = [], [], []

    def keep(v, reduced, src):
        """Add v, whose remainder modulo the span is reduced[:n] != 0."""
        reduced[n + len(vecs)] = 1
        c = int(reduced[:n].nonzero()[0][0])
        row = reduced * pow(int(reduced[c]), -1, p) % p
        r = len(pivots)
        echelon[:r] = (echelon[:r] - echelon[:r, c, None] * row) % p
        echelon[r] = row
        pivots.append(c)
        vecs.append(v)
        origin.append(src)
        return c, row

    j = 0
    while len(vecs) < n:
        if j == len(vecs):
            # e_c lies in the span exactly when c is a pivot whose echelon
            # row is e_c itself; otherwise its remainder is e_c minus the
            # row with pivot c, if there is one
            unit = np.count_nonzero(echelon[: len(pivots), :n], axis=1) == 1
            inside = [q for q, u in zip(pivots, unit) if u]
            c = min(set(range(n)).difference(inside))
            e = np.zeros(2 * n, dtype=np.int64)
            e[c] = 1
            if c in pivots:
                e = (e - echelon[pivots.index(c)]) % p
            keep(identity_matrix(n)[c], e, None)
            continue
        images = mat_mul(stacked, vecs[j][:, None], p).reshape(-1, n)
        reduced = -mat_mul(images[:, pivots], echelon[: len(pivots)], p)
        reduced[:, :n] += images
        reduced %= p
        for i, v in enumerate(images):
            if reduced[i, :n].any():
                c, row = keep(v, reduced[i], (i, j))
                if len(vecs) == n:
                    break
                # the later images, reduced against the vector just kept
                reduced = (reduced - reduced[:, c, None] * row) % p
        j += 1
    S_inv = np.empty((n, n), dtype=np.int64)
    S_inv[:, pivots] = echelon[:, n:].T
    return np.array(vecs).T, S_inv, origin


def _spun_homs(As: np.ndarray, Bs: np.ndarray, spin, p: int):
    """The maps sigma (m x n) with sigma A_i = B_i sigma for the stacked
    reduced blocks As = [A_1; A_2; ...] (n x n) and Bs (m x m), from the
    spin (S, S_inv, origin) of F^n under the A's, as a d x m x n array.

    sigma is fixed by the images t_q of the g generators, so those g*m
    coordinates are the only unknowns: a spun vector s_l = A_i s_j has
    sigma s_l = B_i sigma s_j = W_l t_q, where q is its generator.  Every
    product A_i s_j the spin did not keep gives m equations B_i sigma s_j =
    sum_l (S^-1 A_i S)[l, j] sigma s_l, and each solution maps back to
    sigma = [sigma s_0 | sigma s_1 | ...] S^-1.  The solutions are the
    canonical nullspace basis of that system with its unknowns in reverse
    order, which ``intertwiner_basis`` relies on.  The system's zero rows
    are dropped first: they leave its nullspace as it is, and the commutant
    system of a graded module is mostly zero rows.
    """
    S, S_inv, origin = spin
    n, m = As.shape[1], Bs.shape[1]
    k = len(As) // n
    # generator q spans columns lo:hi of S, and root[l] is the generator of s_l
    starts = [l for l, src in enumerate(origin) if src is None] + [n]
    spans = list(zip(starts, starts[1:]))
    root = np.cumsum([src is None for src in origin]) - 1
    # sigma s_l = W[l] t_q for q = root[l]
    W = np.empty((n, m, m), dtype=np.int64)
    for l, src in enumerate(origin):
        if src is None:
            W[l] = identity_matrix(m)
        else:
            i, j = src
            W[l] = mat_mul(Bs[i * m : (i + 1) * m], W[j], p)
    # the products A_i s_j the spin did not keep, as indices i*n + j
    kept = set(origin)
    loose = np.array([i * n + j for i in range(k) for j in range(n) if (i, j) not in kept])
    AS = mat_mul(As, S, p).reshape(k, n, n).transpose(1, 0, 2).reshape(n, k * n)
    C = mat_mul(S_inv, AS[:, loose], p)
    BW = mat_mul(Bs, W.transpose(1, 0, 2).reshape(m, n * m), p)
    BW = BW.reshape(k, m, n, m).transpose(0, 2, 1, 3).reshape(k * n, m, m)
    # rows[e, :, q, :] is the coefficient of t_q in the equations of loose[e]
    rows = np.zeros((len(loose), m, len(spans), m), dtype=np.int64)
    rows[np.arange(len(loose)), :, root[loose % n], :] = BW[loose]
    for q, (lo, hi) in enumerate(spans):
        CW = mat_mul(C[lo:hi].T, W[lo:hi].reshape(hi - lo, m * m), p)
        rows[:, :, q, :] -= CW.reshape(-1, m, m)
    system = rows.reshape(len(loose) * m, -1) % p
    system = system[system.any(axis=1)]
    X = nullspace(system[:, ::-1], p)[:, ::-1]
    d = len(X)
    # V[l] = sigma s_l for every solution, one column each
    V = np.empty((n, m, d), dtype=np.int64)
    for q, (lo, hi) in enumerate(spans):
        Xq = X[:, q * m : (q + 1) * m].T
        V[lo:hi] = mat_mul(W[lo:hi].reshape(-1, m), Xq, p).reshape(hi - lo, m, d)
    return mat_mul(V.transpose(2, 1, 0).reshape(d * m, n), S_inv, p).reshape(d, m, n)


def intertwiner_basis(pairs, p: int):
    """Basis of {sigma : sigma A = B sigma for every (A, B) in pairs},
    as a list of matrices.

    The basis is the one the nullspace of the (m*n)-column system
    sigma A = B sigma would give: each element, as a row-major vector, has
    a 1 at its own free coordinate and 0 at the others, in ascending order
    of that coordinate.  The free coordinate of an element is its last
    nonzero entry.

    It is found by spinning the target's transpose (``_spun_homs``).  With
    J the reversal, sigma A_i = B_i sigma says tau B'_i = A'_i tau for
    tau = J sigma^T J, B' = J B^T J and A' = J A^T J, so the spin of F^m
    under the B' from e_0 fixes tau by its values on the generators, and
    tau e_k is row m-1-k of sigma, reversed.  The unknowns are then the
    rows of sigma at the generators, from the last row up, in descending
    row-major order.  Every other row of sigma is a function of the
    generator rows below it: e_k lies in the span of the generators of
    smaller index (``_spin``'s rule).  So an element's last nonzero entry
    lies in a generator row, the free coordinates of the two systems are
    the same, and the nullspace of the column-reversed system, reversed
    back, is already the canonical basis.
    """
    if not pairs:
        raise InputError("need at least one matrix pair")
    n = pairs[0][0].shape[0]
    m = pairs[0][1].shape[0]
    if any(A.shape != (n, n) or B.shape != (m, m) for A, B in pairs):
        raise InputError("matrix pair shapes are inconsistent")
    if m * n == 0:
        return []

    def stack(mats):
        """[M_1; M_2; ...], reduced."""
        return np.concatenate(mats).astype(np.int64, copy=False) % p

    # J B^T J for the reversal J
    Bt = stack([B.T[::-1, ::-1] for _, B in pairs])
    # sigma = J tau^T J
    taus = _spun_homs(Bt, stack([A.T[::-1, ::-1] for A, _ in pairs]), _spin(Bt, p), p)
    return list(np.ascontiguousarray(taus.transpose(0, 2, 1)[:, ::-1, ::-1]))


def _polynomial_commutant(mats, p: int):
    """The canonical basis of F_p[z] for z = mats[0] when that is the
    commutant of mats, else None.

    It is when z commutes with every other matrix and I, z, ..., z^(n-1)
    are independent: a matrix that commutes with such a (cyclic) z is a
    polynomial in it (Horn-Johnson, Matrix Analysis, 3.2.4).  The basis is
    the one ``intertwiner_basis`` returns for that subspace: the reduced
    echelon form of the column-reversed vec(z^j), in reverse.
    """
    n = mats[0].shape[0] if mats else 0
    if not n or any(M.shape != (n, n) for M in mats):
        return None
    z, *others = (M.astype(np.int64, copy=False) % p for M in mats)
    # z^k = 0 for some 0 < k < n makes z nilpotent of index below n
    powers = [identity_matrix(n), z]
    while len(powers) < n and powers[-1].any():
        powers.append(mat_mul(powers[-1], z, p))
    if n > 1 and not powers[-1].any():
        return None
    if any(np.any(mat_mul(z, M, p) != mat_mul(M, z, p)) for M in others):
        return None
    R, pivots = rref(np.stack(powers[:n]).reshape(n, n * n)[:, ::-1], p)
    if len(pivots) < n:
        return None
    return [row.reshape(n, n) for row in np.ascontiguousarray(R[::-1, ::-1])]


def commutant_basis(mats, p: int):
    """Basis of the joint commutant {X : X A = A X for every A in mats},
    in the canonical form of ``intertwiner_basis``: F_p[z] from the powers
    of z = mats[0] when ``_polynomial_commutant`` applies, else the spin."""
    basis = _polynomial_commutant(mats, p)
    if basis is None:
        basis = intertwiner_basis([(A, A) for A in mats], p)
    return basis


def combine(coeffs, mats, p: int) -> np.ndarray:
    """sum(c * M) mod p over zip(coeffs, mats), reduced after each term so
    int64 never overflows for p < 2**31; zero coefficients are skipped."""
    out = np.zeros_like(mats[0])
    for c, M in zip(coeffs, mats):
        if c:
            out = (out + int(c) * M) % p
    return out


def trace_form_radical(basis, f, p: int):
    """Coordinate rows of the radical of a matrix algebra with canonical
    basis `basis` and free positions f: the kernel of its regular trace
    form, the trace of left multiplication by b_i b_j.  Valid for p > dim.
    That trace at z is sum_k (z b_k)[f_k] = tr(z Q), where column r of Q
    sums column s of b_k over f_k = r*n + s."""
    n = basis[0].shape[0]
    Q = np.zeros((n, n), dtype=np.int64)
    for b, fk in zip(basis, f):
        Q[:, fk // n] += b[:, fk % n]
    # tr(b_i b_j Q) = vec(b_i) . vec((b_j Q)^T), all b_j Q in one product
    BQ = mat_mul(np.concatenate(basis), Q % p, p).reshape(-1, n, n)
    rows = np.stack([b.reshape(-1) for b in basis])
    cols = BQ.transpose(0, 2, 1).reshape(len(basis), -1).T
    return nullspace(mat_mul(rows, cols, p), p)


# ------------------------------------------------------------- conjugacy


def _word_invariants(tuples, p: int):
    """For each tuple X_1..X_k of same-shape matrices (all of one length
    k), the ranks of its words X_i, sum X_i, X_i X_j (i != j) and X_i^2.
    The words of all tuples go through one ``ranks`` call."""
    k = len(tuples[0])
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    left, right = np.array(pairs + [(i, i) for i in range(k)]).T
    words = []
    for mats in tuples:
        M = np.stack(mats)
        words += [M, combine([1] * k, mats, p)[None], mat_mul(M[left], M[right], p)]
    flat = ranks(np.concatenate(words), p)
    size = len(flat) // len(tuples)
    return [flat[t * size : (t + 1) * size] for t in range(len(tuples))]


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
    p = check_characteristic(p)
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
    inv_a, inv_b = _word_invariants([As, Bs], p)
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
        sigma = combine([rng.randrange(p) for _ in homs], homs, p)
        if certify(sigma):
            out.update(verdict="Isomorphic", witness=sigma.tolist(),
                       reason="invertible homomorphism found by sampling")
            return out
    if p**m <= EXHAUSTIVE_LIMIT:
        for combo in iter_product(range(p), repeat=m):
            if not any(combo):
                continue
            sigma = combine(combo, homs, p)
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

    The endomorphism algebra is the joint commutant: F_p[z] when the first
    matrix z is cyclic and commutes with the rest (``_polynomial_commutant``),
    else the spin (``intertwiner_basis``).  For p > dim End the radical is
    the kernel of the regular trace form, read off the canonical basis
    (``trace_form_radical``); the module is indecomposable exactly when the
    semisimple quotient is a field, detected as: commutative (known for
    F_p[z], else tested on the cosets) with one-dimensional Frobenius-fixed
    subspace.  Decomposable verdicts carry an exact idempotent witness when
    one is found (always, if commutative).
    """
    p = check_characteristic(p)
    if not mats:
        raise InputError("need at least one action matrix")
    mats = [as_matrix(M, p) for M in mats]
    shape = mats[0].shape
    if any(M.shape != shape for M in mats) or shape[0] != shape[1]:
        raise InputError("need square matrices of one common size")
    n = shape[0]
    if n == 0:
        raise InputError("the zero module has no indecomposability verdict")
    # End = F_p[z] is commutative; otherwise the commutators are tested
    basis = _polynomial_commutant(mats, p)
    commuting = basis is not None
    if not commuting:
        basis = intertwiner_basis([(A, A) for A in mats], p)
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
        # canonical: b_k has a 1 at its last nonzero entry f_k, where the
        # other elements have a 0, so y in End has coordinates y.flat[f]
        flat = np.stack([b.reshape(-1) for b in basis])
        f = flat.shape[1] - 1 - np.argmax(flat[:, ::-1] != 0, axis=1)
        if not np.array_equal(flat[:, f], identity_matrix(dim)):
            raise CmwildError("algebra basis is not in canonical form")
        R, pivots = rref(trace_form_radical(basis, f, p), p)
        R = R[: len(pivots)]
        # never empty: the identity is not in the radical
        free = [c for c in range(dim) if c not in pivots]

        def reduce(mats):
            """Coordinate columns of a stack of matrices, read at f, modulo
            the radical."""
            Y = mats.reshape(len(mats), -1) % p
            if np.any(mat_mul(Y[:, f], flat, p) != Y):
                raise CmwildError("algebra basis is not multiplicatively closed")
            X = Y[:, f].T
            return (X - mat_mul(R.T, X[pivots], p)) % p

        def commutative(cosets):
            """Whether the cosets commute, tested on the pairs a < b in
            chunks of 1, 2, 4, ... pairs: one stacked product per chunk,
            and a noncommuting pair ends the test at its chunk."""
            a, b = np.triu_indices(len(cosets), 1)
            at, size = 0, 1
            while at < len(a):
                X, Y = cosets[a[at : at + size]], cosets[b[at : at + size]]
                if reduce(mat_mul(X, Y, p) - mat_mul(Y, X, p)).any():
                    return False
                at, size = at + size, 2 * size
            return True

        # the quotient is spanned by the cosets of basis[c], c in free
        cosets = np.stack([basis[c] for c in free])
        if commuting or commutative(cosets):
            # Frobenius on the cosets
            frob = reduce(mat_pow(cosets, p, p))[free]
            fixed = nullspace((frob - identity_matrix(len(free))) % p, p)
            r = len(fixed)
            out["field_count"] = r
            if r <= 1:
                out.update(
                    verdict="Indecomposable",
                    reason="semisimple quotient of the endomorphism algebra"
                    " is a field",
                )
                return out
            # some fixed vector is not a multiple of the identity coset, and
            # its lift splits; a multiple lifts to a scalar plus a nilpotent,
            # whose minimal polynomial has no coprime split, so it yields
            # None without drawing from rng
            for v in fixed:
                e = _idempotent_from_element(combine(v, cosets, p), p, rng)
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
            a = combine([rng.randrange(p) for _ in basis], basis, p)
            e = _idempotent_from_element(a, p, rng)
            if e is not None:
                out["idempotent"] = e.tolist()
                break
        return out
    # characteristic too small for the trace form: exhaust if feasible
    if p**dim <= EXHAUSTIVE_LIMIT:
        eye = identity_matrix(n)
        for combo in iter_product(range(p), repeat=dim):
            e = combine(combo, basis, p)
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

