"""Plain reference versions of monomial, basis and linear-algebra helpers
that only the tests use: exponent tuples, tuple-keyed views and one dense
solve, each written without the packed kernel it is compared against."""

import numpy as np

from cmwild.field import DEFAULT_PRIME
from cmwild.matalg import identity_matrix, mat_mul, solve_many, u_trim
from cmwild.poly import Poly, PolyRing, grevlex_key
from cmwild.rings import QuotientRing


def mono_divides(a, b) -> bool:
    """True iff a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_deg(a) -> int:
    return sum(a)


def monomials_of_degree(nvars: int, degree: int) -> list:
    """All exponent tuples of the given total degree, grevlex descending."""
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return out


def polynomial_ring(variables, p: int = DEFAULT_PRIME) -> QuotientRing:
    """F_p[variables] as a quotient ring with no relations."""
    return QuotientRing(PolyRing(variables, p), ())


def leading_terms(gb) -> list:
    """The leading terms of a basis as (pos, exponent tuple): the first
    term of each tuple-keyed basis vector, which lists it first."""
    return [next(iter(v)) for v in gb.vectors]


def is_minimal(fmap) -> bool:
    """True iff no entry of the map has a unit (nonzero constant)
    coefficient."""
    return not any(sum(m) == 0 for col in fmap.columns for (_pos, m) in col)


def solve(A: np.ndarray, b, p: int):
    """One x with A x = b over F_p, or None."""
    return solve_many(A, np.asarray(b, dtype=np.int64).reshape(-1, 1), p)[0]


def u_eval_matrix(f, A: np.ndarray, p: int) -> np.ndarray:
    """f(A) by Horner, for ascending coefficients f."""
    n = A.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(u_trim(f)):
        out = mat_mul(out, A, p)
        out = (out + c * identity_matrix(n)) % p
    return out


def compose(poly: Poly, images) -> Poly:
    """Substitute images[i] for the i-th variable."""
    ring = images[0].ring
    out = ring.zero()
    for e, c in poly.terms.items():
        term = ring.const(c)
        for img, exp in zip(images, e):
            for _ in range(exp):
                term = term * img
        out = out + term
    return out
