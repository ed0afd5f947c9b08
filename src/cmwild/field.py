"""Arithmetic in the prime field F_p.

Elements are plain ints in [0, p).  The hot loops elsewhere in the package
work on raw ints and reduce with ``% p``; this class is the validated entry
point and the home of inversion.
"""

import operator

from .errors import InputError

DEFAULT_PRIME = 32003
MAX_CHARACTERISTIC = 2**31

_MR_BASES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5, 7: exact for n < 3,215,031,751
    (Jaeschke 1993), so for every n <= MAX_CHARACTERISTIC; not beyond."""
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        # strong probable prime to base a: a^d = 1 or a^(d 2^r) = -1, r < s
        xs = [pow(a, d << r, n) for r in range(s)]
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


def check_characteristic(p) -> int:
    """p as an int (``operator.index``), when it is a prime <= 2**31; an
    InputError otherwise.  The size goes first: ``is_prime`` is exact there."""
    try:
        p = operator.index(p)
    except TypeError:
        raise InputError(f"characteristic must be an integer, not {type(p).__name__}") from None
    if p > MAX_CHARACTERISTIC:
        raise InputError(f"characteristic {p} exceeds 2^31")
    if not is_prime(p):
        raise InputError(f"characteristic {p} is not prime")
    return p


class PrimeField:
    """F_p with p an odd prime, p <= 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        self.p = check_characteristic(p)
        if self.p == 2:
            raise InputError("characteristic 2 is not supported at ring level")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"
