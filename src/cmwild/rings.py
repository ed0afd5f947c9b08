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
    buchberger,
    hilbert_polynomial_values,
    module_numerator,
    staircase_krull_dim,
    standard_terms,
)
from .poly import Poly, PolyRing


def _poly_to_vec(f: Poly):
    return {(0, e): c for e, c in f.terms.items()}


def _vec_to_poly(ring: PolyRing, v) -> Poly:
    return Poly(ring, {m: c for (_pos, m), c in v.items()})


class QuotientRing:
    """R = F_p[vars]/(relations), with cached Groebner data."""

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
        self._dim: int | None = None
        self._numerator: dict | None = None

    # -- constructors

    @classmethod
    def polynomial_ring(cls, variables, p: int = DEFAULT_PRIME) -> "QuotientRing":
        return cls(PolyRing(variables, p), ())

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
    def ideal_basis(self) -> GroebnerBasis:
        if self._gb is None:
            order = ModuleOrder((0,), self.nvars)
            self._gb = buchberger(
                [_poly_to_vec(f) for f in self.relations], order, self.p
            )
        return self._gb

    @property
    def groebner(self) -> list[Poly]:
        """Reduced Groebner basis of the relation ideal, leading terms
        descending, monic."""
        return [_vec_to_poly(self.ambient, v) for v in self.ideal_basis.vectors]

    def normal_form(self, f: Poly) -> Poly:
        if f.ring != self.ambient:
            raise InputError("element does not live in the ambient ring")
        return _vec_to_poly(self.ambient, self.ideal_basis.normal_form(_poly_to_vec(f)))

    def is_zero_element(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    # -- numerical invariants

    @property
    def lead_monomials(self):
        return [m for (_pos, m) in self.ideal_basis.lts]

    @property
    def krull_dimension(self) -> int:
        if self._dim is None:
            self._dim = staircase_krull_dim(self.lead_monomials, self.nvars)
        return self._dim

    @property
    def is_artinian(self) -> bool:
        return self.krull_dimension <= 0

    @property
    def hilbert_numerator(self) -> dict:
        if self._numerator is None:
            self._numerator = module_numerator(
                self.ideal_basis.lts, (0,), self.nvars
            )
        return dict(self._numerator)

    def hilbert_dim(self, t: int) -> int:
        if t < 0:
            return 0
        return len(standard_terms(self.ideal_basis.lts, (0,), self.nvars, t))

    def component_basis(self, t: int) -> list[Poly]:
        """Monomial basis of R_t, grevlex descending."""
        return [
            self.ambient.monomial(m)
            for (_pos, m) in standard_terms(self.ideal_basis.lts, (0,), self.nvars, t)
        ]

    def hilbert_function(self) -> dict:
        """Finite Hilbert function {t: dim R_t}; Artinian rings only."""
        try:
            return hilbert_polynomial_values(self.hilbert_numerator, self.nvars)
        except ValueError:
            raise InputError("ring has positive Krull dimension") from None

    def top_degree(self) -> int:
        """Largest t with R_t != 0; -1 for the zero ring.  Artinian only."""
        hf = self.hilbert_function()
        return max(hf) if hf else -1

    # -- derived rings

    def extend(self, extra) -> "QuotientRing":
        """R/(extra): same ambient ring, more relations."""
        return QuotientRing(self.ambient, list(self.relations) + list(extra))

    def parse(self, text: str) -> Poly:
        return self.ambient.parse(text)
