"""Arithmetic in the prime field F_p.

Elements are plain ints in [0, p).  The hot loops elsewhere in the package
work on raw ints and reduce with ``% p``; this class is the validated entry
point and the home of inversion.
"""

from .errors import InputError

DEFAULT_PRIME = 32003
MAX_CHARACTERISTIC = 2**31

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10**24, far beyond 2**31.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with p an odd prime, p <= 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"characteristic {p!r} is not prime")
        if p > MAX_CHARACTERISTIC:
            raise InputError(f"characteristic {p} exceeds 2^31")
        if p == 2:
            raise InputError("characteristic 2 is not supported at ring level")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"
