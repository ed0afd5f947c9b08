"""Small exact helpers over F_p for building inputs and checking outputs.

They are written independently of ``cmwild.matalg`` so that the checks do
not trust the code they check.  Sizes here are at most a few dozen, so
int64 products of reduced entries cannot overflow.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def mul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    return (A @ B) % p


def rank(A: np.ndarray, p: int) -> int:
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    r = 0
    for c in range(cols):
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        h = r + int(hits[0])
        R[[r, h]] = R[[h, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        below = R[r + 1:, c].copy()
        R[r + 1:] = (R[r + 1:] - np.outer(below, R[r])) % p
        r += 1
        if r == rows:
            break
    return r


def inverse(A: np.ndarray, p: int) -> np.ndarray:
    n = A.shape[0]
    R = np.concatenate([np.array(A, dtype=np.int64) % p, np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        h = c + int(np.nonzero(R[c:, c])[0][0])
        R[[c, h]] = R[[h, c]]
        R[c] = R[c] * pow(int(R[c, c]), -1, p) % p
        col = R[:, c].copy()
        col[c] = 0
        R = (R - np.outer(col, R[c])) % p
    return R[:, n:]


def random_matrix(rng, n: int, p: int) -> np.ndarray:
    return mat([[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def random_invertible(rng, n: int, p: int) -> np.ndarray:
    while True:
        S = random_matrix(rng, n, p)
        if rank(S, p) == n:
            return S


def commuting_pair(rng, n: int, p: int):
    """(Ax, Ay) with Ay a random polynomial in Ax, so the two commute."""
    Ax = random_matrix(rng, n, p)
    Ay = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for _ in range(n):
        Ay = (Ay + rng.randrange(p) * power) % p
        power = mul(power, Ax, p)
    return Ax, Ay


def conjugate(S: np.ndarray, S_inv: np.ndarray, mats, p: int) -> list:
    return [mul(mul(S, A, p), S_inv, p) for A in mats]


def witness_errors(W, As, Bs, p: int) -> list[str]:
    """Problems with W as an isomorphism: invertible, W A = B W for all."""
    if W is None:
        return ["no witness"]
    W = mat(W)
    errs = []
    if W.shape != As[0].shape or rank(W, p) != W.shape[0]:
        errs.append("witness is not invertible")
    elif any(np.any(mul(W, A, p) != mul(B, W, p)) for A, B in zip(As, Bs)):
        errs.append("witness does not intertwine the actions")
    return errs


def idempotent_errors(E, mats, p: int) -> list[str]:
    """Problems with E as a splitting idempotent of the module."""
    if E is None:
        return ["no idempotent"]
    E = mat(E)
    n = mats[0].shape[0]
    if not E.any() or np.array_equal(E, np.eye(n, dtype=np.int64)):
        return ["idempotent is trivial"]
    if np.any(mul(E, E, p) != E):
        return ["idempotent does not square to itself"]
    if any(np.any(mul(E, A, p) != mul(A, E, p)) for A in mats):
        return ["idempotent does not commute with the actions"]
    return []


def power_traces(A: np.ndarray, p: int) -> list[int]:
    """tr(A^k) for k = 1..n; for p > n they determine the characteristic
    polynomial, so different lists prove two matrices are not conjugate."""
    out = []
    P = np.eye(A.shape[0], dtype=np.int64)
    for _ in range(A.shape[0]):
        P = mul(P, A, p)
        out.append(int(np.trace(P)) % p)
    return out


def _charpoly_small(A: np.ndarray, p: int) -> list[int]:
    """Characteristic polynomial of a 1x1, 2x2 or 3x3 matrix, ascending."""
    a = [[int(v) for v in row] for row in A]
    n = len(a)
    tr = sum(a[i][i] for i in range(n))
    if n == 1:
        return [-tr % p, 1]
    if n == 2:
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        return [det % p, -tr % p, 1]
    minors = sum(
        a[i][i] * a[j][j] - a[i][j] * a[j][i] for i in range(3) for j in range(i + 1, 3)
    )
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    return [-det % p, minors % p, -tr % p, 1]


def _roots(coeffs, p: int) -> list[int]:
    t = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        val = (val * t + c) % p
    return [int(r) for r in np.nonzero(val == 0)[0]]


def indecomposable_single(A: np.ndarray, p: int) -> bool:
    """Whether F_p^n as an F_p[T]-module through A (n <= 3) is
    indecomposable.  For n <= 3 the characteristic polynomial is reducible
    exactly when it has a root; a simple root splits off a summand, and a
    single root of full multiplicity leaves the module indecomposable
    exactly when A is cyclic."""
    n = A.shape[0]
    if n == 1:
        return True
    cp = _charpoly_small(A, p)
    roots = _roots(cp, p)
    if not roots:
        return True
    deriv = [(k * c) % p for k, c in enumerate(cp)][1:]
    if any(_value(deriv, r, p) for r in roots):  # a simple root
        return False
    lam = roots[0]
    return rank((A - lam * np.eye(n, dtype=np.int64)) % p, p) == n - 1


def _value(coeffs, x: int, p: int) -> int:
    val = 0
    for c in reversed(coeffs):
        val = (val * x + c) % p
    return val


def brute_conjugate(As, Bs, p: int) -> bool:
    """Simultaneous conjugacy by enumerating GL_n(F_p); tiny n and p only."""
    n = As[0].shape[0]
    for entries in product(range(p), repeat=n * n):
        S = mat(entries).reshape(n, n)
        if rank(S, p) == n and all(
            np.array_equal(mul(S, A, p), mul(B, S, p)) for A, B in zip(As, Bs)
        ):
            return True
    return False


def brute_decomposable(mats, p: int) -> bool:
    """A nontrivial idempotent commuting with every action, by enumeration."""
    n = mats[0].shape[0]
    eye = np.eye(n, dtype=np.int64)
    for entries in product(range(p), repeat=n * n):
        E = mat(entries).reshape(n, n)
        if not E.any() or np.array_equal(E, eye):
            continue
        if np.array_equal(mul(E, E, p), E) and all(
            np.array_equal(mul(E, A, p), mul(A, E, p)) for A in mats
        ):
            return True
    return False
