"""Standard graded quotient rings R = F_p[vars]/I.

One class covers the ambient polynomial ring (empty relations), the input
algebra R, and its Artinian reductions: all computations happen in the
ambient ring against the reduced Groebner basis of the relation ideal.
Relations must be homogeneous of positive degree so the grading is by total
degree.
"""

from __future__ import annotations

from .errors import InputError
from .field import DEFAULT_PRIME
from .groebner import (
    GroebnerBasis,
    ModuleOrder,
    Staircase,
    buchberger,
)
from .poly import Poly, PolyRing


def _poly_to_vec(f: Poly):
    return {(0, e): c for e, c in f.terms.items()}


def _vec_to_poly(ring: PolyRing, v) -> Poly:
    return Poly(ring, {m: c for (_pos, m), c in v.items()})


class QuotientRing(Staircase):
    """R = F_p[vars]/(relations), with cached Groebner data; its Hilbert
    data is the rank-one staircase of the relation ideal."""

    def __init__(self, ambient: PolyRing, relations=()):
        self.ambient = ambient
        rels = []
        for f in relations:
            if not isinstance(f, Poly) or f.ring != ambient:
                raise InputError("relation does not live in the ambient ring")
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise InputError(f"relation {f} is not homogeneous")
            if f.degree() == 0:
                raise InputError(f"relation {f} is a unit")
            rels.append(f)
        self.relations = tuple(rels)
        self._gb: GroebnerBasis | None = None
        self._numerator: dict | None = None
        self._stripped: tuple | None = None
        # set by ``extend``: the ring whose basis this one grows
        self._parent: QuotientRing | None = None
        # (extra, R/(extra)) of the last ``extend``
        self._extended: tuple | None = None

    # -- constructors

    @classmethod
    def from_strings(cls, variables, relation_strings, p: int = DEFAULT_PRIME) -> "QuotientRing":
        amb = PolyRing(variables, p)
        return cls(amb, [amb.parse(s) for s in relation_strings])

    @classmethod
    def from_json(cls, data: dict) -> "QuotientRing":
        if not isinstance(data, dict) or "vars" not in data:
            raise InputError("ring JSON needs a 'vars' list")
        variables, relations = data["vars"], data.get("relations", [])
        for key, value in (("vars", variables), ("relations", relations)):
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                raise InputError(f"ring JSON {key!r} must be a list of strings")
        return cls.from_strings(variables, relations, data.get("p", DEFAULT_PRIME))

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "relations": [str(f) for f in self.relations],
            "p": self.p,
        }

    # -- basic data

    @property
    def vars(self):
        return self.ambient.vars

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def nvars(self) -> int:
        return self.ambient.nvars

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.ambient == other.ambient
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.ambient, self.relations))

    def __repr__(self):
        rel = ", ".join(str(f) for f in self.relations)
        return f"QuotientRing(F_{self.p}[{', '.join(self.vars)}] / ({rel}))"

    # -- Groebner data

    @property
    def gb(self) -> GroebnerBasis:
        """Reduced Groebner basis of the relation ideal.  A ring made by
        ``extend`` grows its parent's basis by the extra relations when the
        parent already holds one; otherwise it is built from all relations,
        and the parent's basis is not computed.  The reduced basis is
        unique, so both give the same ordered dicts."""
        if self._gb is None:
            parent, self._parent = self._parent, None
            if parent is None or parent._gb is None:
                new, base = self.relations, None
            else:
                new, base = self.relations[len(parent.relations):], parent._gb
            order = ModuleOrder((0,), self.nvars)
            self._gb = buchberger(
                [_poly_to_vec(f) for f in new], order, self.p, base=base
            )
        return self._gb

    @property
    def groebner(self) -> list[Poly]:
        """Reduced Groebner basis of the relation ideal, leading terms
        descending, monic."""
        return [_vec_to_poly(self.ambient, v) for v in self.gb.vectors]

    def _packed_normal_form(self, f: Poly) -> dict:
        """The normal form of f, packed in the order of ``gb``."""
        if f.ring != self.ambient:
            raise InputError("element does not live in the ambient ring")
        gb = self.gb
        return gb.normal_form(gb.order.pack_vec(_poly_to_vec(f), self.p))

    def normal_form(self, f: Poly) -> Poly:
        nf = self._packed_normal_form(f)
        return _vec_to_poly(self.ambient, self.gb.order.unpack_vec(nf.items()))

    def is_zero_element(self, f: Poly) -> bool:
        return not self._packed_normal_form(f)

    # -- numerical invariants

    @property
    def is_artinian(self) -> bool:
        return self.krull_dimension <= 0

    def component_basis(self, t: int) -> list[Poly]:
        """Monomial basis of R_t, grevlex descending."""
        terms = self.gb.order.unpack_vec((u, 1) for u in self.component_terms(t))
        return [self.ambient.monomial(m) for (_pos, m) in terms]

    # -- derived rings

    def extend(self, extra) -> "QuotientRing":
        """R/(extra): same ambient ring, more relations.  Asked again for
        the same extra relations, it hands back the same ring, so the
        Groebner basis built for one reader (a regularity check) serves
        the next (a module reduced modulo the same sequence)."""
        extra = tuple(extra)
        if self._extended is None or self._extended[0] != extra:
            # this ring's relations were checked when it was built
            child = QuotientRing(self.ambient, extra)
            child.relations = self.relations + child.relations
            child._parent = self
            self._extended = extra, child
        return self._extended[1]

    def parse(self, text: str) -> Poly:
        return self.ambient.parse(text)
