"""Sparse homogeneous multivariate polynomials over a prime field.

Monomials are exponent tuples of fixed length ``nvars``.  The term order is
graded reverse lexicographic throughout: higher total degree wins, ties are
broken so that the monomial whose exponent-difference has a negative last
nonzero entry is the larger one.  ``grevlex_key`` encodes this as a sortable
tuple so ``max``/``sorted`` give the order directly.

Polynomials are dicts mapping exponent tuple -> coefficient in [1, p), with
zero coefficients never stored.  The ``Poly`` class is a thin wrapper; the
Groebner engine works on the raw dicts.  ``add_terms`` is the one update
of such a dict that every layer shares, for any key type: module vectors
key it by (position, exponent tuple).

``PolyRing.parse`` reads polynomial text (grammar above ``PolyRing``) with
one term regex, matched once per signed term, and one pass over that
term's factors, and adds the term in place with ``add_terms``'s update
written out; a syntax error names the position where parsing stops.
``str`` prints the terms grevlex descending.
"""

from __future__ import annotations

import re

from .errors import InputError
from .field import DEFAULT_PRIME, PrimeField

Mono = tuple  # exponent tuple, length nvars

# --------------------------------------------------------------- monomials


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def grevlex_key(m: Mono):
    """Sort key: m1 > m2 in grevlex iff grevlex_key(m1) > grevlex_key(m2)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def add_terms(out: dict, terms: dict, p: int, c: int = 1) -> None:
    """out += c * terms over F_p, in place, dropping zero coefficients.

    Existing keys keep their place and new keys go in at the end in
    ``terms`` order, so every listing built from ``out`` is reproducible.
    ``terms`` must not be ``out`` itself.
    """
    for t, k in terms.items():
        v = (out.get(t, 0) + c * k) % p
        if v:
            out[t] = v
        elif t in out:
            del out[t]


# ------------------------------------------------------------------- rings
#
# Parser grammar:
#
# poly := ['+'|'-'] term (('+'|'-') term)*
# term := coeff | coeff '*' factors | factors
# factors := var ('^' exp)? ('*' var ('^' exp)?)*
#
# '**' reads as '^' and whitespace may separate any two tokens.  A repeated
# variable adds its exponents; coefficients are reduced mod p.  The optional
# leading sign and bare integer terms are tolerated extensions.  Every part
# of _TERM_RE is optional, so it matches at any position: a '*' that no
# variable follows lands in ``star`` and a missing term leaves ``body``
# empty, so the error can name where the input stops.

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_FACTOR_RE = re.compile(rf"({_NAME})\s*(?:(?:\^|\*\*)\s*(\d+))?")
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?P<body>(?P<coeff>\d+)?"
    rf"(?:(?(coeff)\s*\*\s*){_FACTOR_RE.pattern}"
    rf"(?:\s*\*\s*{_FACTOR_RE.pattern})*)?)\s*(?P<star>\*?)\s*"
)


class PolyRing:
    """The ambient polynomial ring F_p[vars] with grevlex order."""

    __slots__ = ("vars", "field", "nvars", "_var_index")

    def __init__(self, variables, p: int = DEFAULT_PRIME):
        variables = tuple(variables)
        if not variables:
            raise InputError("a ring needs at least one variable")
        for v in variables:
            if not re.fullmatch(_NAME, v):
                raise InputError(f"invalid variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise InputError("duplicate variable names")
        self.vars = variables
        self.field = PrimeField(p)
        self.nvars = len(variables)
        self._var_index = {v: i for i, v in enumerate(variables)}

    @property
    def p(self) -> int:
        return self.field.p

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.vars == other.vars
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.vars, self.p))

    def __repr__(self):
        return f"PolyRing(vars={self.vars}, p={self.p})"

    # -- element factories

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c: int) -> "Poly":
        c %= self.p
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def gen(self, i: int) -> "Poly":
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): 1})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff: int = 1) -> "Poly":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise InputError(f"bad exponent tuple {exps!r}")
        coeff %= self.p
        return Poly(self, {exps: coeff} if coeff else {})

    def parse(self, text: str) -> "Poly":
        """The polynomial ``text`` spells in the grammar above.  Each term
        is matched once, its factors are read in one pass, and it is added
        into the result where it stands: a repeated monomial keeps the
        place of its first term and leaves when its coefficients cancel."""
        if not text.strip():
            raise InputError(f"empty polynomial in {text!r}")
        p, index = self.p, self._var_index
        terms: dict = {}
        pos = 0
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            sign, body, coeff, star = m.group("sign", "body", "coeff", "star")
            if pos and not sign:
                raise _expected("'+' or '-'", pos, text)
            if not body:
                raise _expected("a term", m.start("body"), text)
            if star:
                raise _expected("a variable", m.end(), text)
            exps = [0] * self.nvars
            start, end = m.span("body")
            try:
                for name, exp in _FACTOR_RE.findall(text, start, end):
                    i = index.get(name)
                    if i is None:
                        at = next(
                            f.start() for f in _FACTOR_RE.finditer(text, start, end)
                            if f[1] not in index
                        )
                        raise InputError(
                            f"unknown variable {name!r} at position {at} in {text!r}"
                        )
                    exps[i] += int(exp or 1)
                c = int(coeff or 1)
            except ValueError:  # more digits than int() takes
                raise _expected("a shorter integer", start, text) from None
            key = tuple(exps)
            c = (terms.get(key, 0) + (-c if sign == "-" else c)) % p
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]
            pos = m.end()
        return Poly(self, terms)


def _expected(what: str, at: int, text: str) -> InputError:
    return InputError(f"expected {what} at position {at} in {text!r}")


# ---------------------------------------------------------------- elements


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def lt(self):
        """(monomial, coeff) of the grevlex-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def lc(self) -> int:
        return self.lt()[1]

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        inv = self.ring.field.inv(self.lc())
        return self.scale(inv)

    def scale(self, c: int) -> "Poly":
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, {e: k * c % p for e, k in self.terms.items()})

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise InputError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check_ring(other)
        out = dict(self.terms)
        add_terms(out, other.terms, self.ring.p)
        return Poly(self.ring, out)

    def __neg__(self):
        p = self.ring.p
        return Poly(self.ring, {e: -c % p for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        p = self.ring.p
        out: dict = {}
        for e1, c1 in self.terms.items():
            add_terms(
                out, {mono_mul(e1, e2): c2 for e2, c2 in other.terms.items()}, p, c1
            )
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.vars
        parts = []
        # grevlex descending: higher degree first, then the smaller
        # exponent of the last variable that differs
        for e in sorted(self.terms, key=lambda m: (-sum(m), m[::-1])):
            c = self.terms[e]
            mono = "*".join(
                [name if exp == 1 else f"{name}^{exp}" for name, exp in zip(names, e) if exp]
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return "+".join(parts)

    def __repr__(self):
        return f"Poly({self})"


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
