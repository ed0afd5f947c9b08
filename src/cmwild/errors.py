"""Exception types shared across the package.

The CLI maps these to exit codes: InputError -> 2, BudgetExhausted -> 3.
Everything else is a bug and surfaces as an ordinary traceback.
"""


class CmwildError(Exception):
    """Base class for all package errors."""


class InputError(CmwildError):
    """Malformed or invalid user input: bad polynomial syntax, composite
    characteristic, inhomogeneous relations, dimension mismatches."""


class BudgetExhausted(CmwildError):
    """The regular-sequence search ran out of candidates: no element of
    one slot's finite pool is nonzero and regular modulo the slots before
    it.  Nothing else raises it."""
