"""Plain reference versions of monomial, basis and linear-algebra helpers
that only the tests use: exponent tuples, tuple-keyed views and one dense
solve, each written without the packed kernel it is compared against."""

import numpy as np

from cmwild.field import DEFAULT_PRIME
from cmwild.matalg import solve_many
from cmwild.poly import PolyRing, grevlex_key
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
