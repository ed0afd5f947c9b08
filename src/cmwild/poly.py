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
"""

from __future__ import annotations

import re

from .errors import InputError
from .field import DEFAULT_PRIME, PrimeField

Mono = tuple  # exponent tuple, length nvars

# --------------------------------------------------------------- monomials


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def grevlex_key(m: Mono):
    """Sort key: m1 > m2 in grevlex iff grevlex_key(m1) > grevlex_key(m2)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def monomials_of_degree(nvars: int, degree: int):
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

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class PolyRing:
    """The ambient polynomial ring F_p[vars] with grevlex order."""

    __slots__ = ("vars", "field", "nvars", "_var_index")

    def __init__(self, variables, p: int = DEFAULT_PRIME):
        variables = tuple(variables)
        if not variables:
            raise InputError("a ring needs at least one variable")
        for v in variables:
            if not _NAME_RE.match(v):
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
        return _parse_poly(self, text)


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

    def lm(self) -> Mono:
        return self.lt()[0]

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
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, exp in zip(names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
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


# ------------------------------------------------------------------ parser
#
# poly := ['+'|'-'] term (('+'|'-') term)*
# term := coeff | coeff '*' factors | factors
# factors := var ('^' exp)? ('*' var ('^' exp)?)*
#
# The optional leading sign and bare integer terms are tolerated extensions.

_SCANNER = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[*^+\-]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _SCANNER.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise InputError(
                f"unexpected character {stripped[0]!r} at position {at}"
            )
        if m.group("num") is not None:
            tokens.append(("num", int(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            if op == "**":
                op = "^"
            tokens.append(("op", op, m.start("op")))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.i += 1
        return t

    def fail(self, message, token=None):
        where = token[2] if token else len(self.text)
        raise InputError(f"{message} at position {where} in {self.text!r}")


def _parse_factor(ring, ts, exps):
    tok = ts.next()
    if tok is None or tok[0] != "name":
        ts.fail("expected a variable name", tok)
    if tok[1] not in ring._var_index:
        ts.fail(f"unknown variable {tok[1]!r}", tok)
    idx = ring._var_index[tok[1]]
    exp = 1
    nxt = ts.peek()
    if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
        ts.next()
        etok = ts.next()
        if etok is None or etok[0] != "num":
            ts.fail("expected an integer exponent", etok)
        exp = etok[1]
    exps[idx] += exp


def _parse_term(ring, ts):
    coeff = 1
    exps = [0] * ring.nvars
    tok = ts.peek()
    if tok is None:
        ts.fail("expected a term", tok)
    if tok[0] == "num":
        ts.next()
        coeff = tok[1]
        nxt = ts.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "*":
            ts.next()
            _parse_factor(ring, ts, exps)
        else:
            return coeff, tuple(exps)  # bare constant
    else:
        _parse_factor(ring, ts, exps)
    while True:
        nxt = ts.peek()
        if nxt is None or nxt[0] != "op" or nxt[1] != "*":
            break
        ts.next()
        _parse_factor(ring, ts, exps)
    return coeff, tuple(exps)


def _parse_poly(ring: PolyRing, text: str) -> Poly:
    ts = _TokenStream(_tokenize(text), text)
    if ts.peek() is None:
        raise InputError(f"empty polynomial in {text!r}")
    p = ring.p
    terms: dict = {}
    sign = 1
    tok = ts.peek()
    if tok[0] == "op" and tok[1] in "+-":
        ts.next()
        sign = -1 if tok[1] == "-" else 1
    while True:
        coeff, exps = _parse_term(ring, ts)
        add_terms(terms, {exps: coeff}, p, sign)
        tok = ts.next()
        if tok is None:
            break
        if tok[0] != "op" or tok[1] not in "+-":
            ts.fail(f"expected '+' or '-', got {tok[1]!r}", tok)
        sign = -1 if tok[1] == "-" else 1
    return Poly(ring, terms)
