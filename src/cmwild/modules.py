"""Graded free modules over a quotient ring, maps between them, and finite
module presentations.

A free module stores its twists: the module is (+)_i R(twists[i]), so the
i-th generator sits in degree -twists[i].  A map is stored by columns (the
images of the source generators), each column a homogeneous vector of the
target packed in its order, so ``apply`` and ``compose`` run on
``add_mul``.  A presentation is a cokernel: ambient free module plus
relation vectors, packed the same way.  Its Groebner basis grows the free
module's lifted ring basis (the ring's relation ideal times each
generator) by the relations, so everything runs in the ambient
polynomial ring.  ``columns`` and ``relations`` are tuple-keyed views.
"""

from __future__ import annotations

from .errors import InputError
from .groebner import (
    GroebnerBasis,
    ModuleOrder,
    Staircase,
    _reduce,
    add_mul,
    buchberger,
)
from .poly import Poly
from .rings import QuotientRing


class FreeModule:
    __slots__ = ("ring", "twists", "order", "_ring_basis")

    def __init__(self, ring: QuotientRing, twists):
        self.ring = ring
        self.twists = tuple(int(t) for t in twists)
        self.order = ModuleOrder(
            tuple(-t for t in self.twists), ring.nvars
        )
        self._ring_basis: GroebnerBasis | None = None

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def gen_degrees(self):
        return self.order.gen_degrees

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.twists == other.twists
        )

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"FreeModule(twists={self.twists})"

    # -- vector assembly

    def gen_vec(self, i: int) -> dict:
        zero = (0,) * self.ring.nvars
        return {(i, zero): 1}

    def component_polys(self, v: dict) -> list[Poly]:
        comps: list[dict] = [{} for _ in range(self.rank)]
        for (pos, m), c in v.items():
            comps[pos][m] = c
        return [Poly(self.ring.ambient, t) for t in comps]

    @property
    def ring_basis(self) -> GroebnerBasis:
        """The ring's reduced basis lifted to this module: each ring
        relation times each generator, relation-major, packed in this
        module's order.  It is a reduced basis of I*F, so reducing a vector
        against it reduces every component modulo the ring.  Built on
        first use."""
        if self._ring_basis is None:
            self._ring_basis = self.ring.gb.lift(self.order)
        return self._ring_basis

    def ring_reduce(self, v: dict) -> dict:
        """Normal form modulo the ring of a packed vector of this module,
        which it consumes."""
        return _reduce(v, self.ring_basis)


class FreeMap:
    """A graded map source -> target, stored by columns: the images of the
    source generators, each packed in the target's order (see the
    ``groebner`` docstring).  ``columns`` is their tuple-keyed view.

    A tuple-keyed column is packed on entry, with its coefficients reduced
    mod p; a packed one must hold residues in [1, p) and is copied."""

    __slots__ = ("source", "target", "packed")

    def __init__(self, source: FreeModule, target: FreeModule, columns):
        if source.ring != target.ring:
            raise InputError("source and target live over different rings")
        order, p = target.order, target.ring.p
        packed = []
        for col in columns:
            v = order.pack_vec(col, p)
            packed.append(dict(v) if v is col else v)
        if len(packed) != source.rank:
            raise InputError("column count does not match source rank")
        for j, col in enumerate(packed):
            d = order.degree(col)
            if d is not None and d != source.gen_degrees[j]:
                raise InputError(
                    f"column {j} has degree {d}, expected {source.gen_degrees[j]}"
                )
        self.source = source
        self.target = target
        self.packed = packed

    @property
    def ring(self) -> QuotientRing:
        return self.source.ring

    @property
    def columns(self) -> list:
        """The columns as tuple-keyed vectors, unpacked on each read."""
        unpack = self.target.order.unpack_vec
        return [unpack(col.items()) for col in self.packed]

    def apply(self, v: dict) -> dict:
        """The image of a packed vector of the source, packed in the
        target's order."""
        order, cols, p = self.source.order, self.packed, self.ring.p
        rank_shift, pos_of, term_shift = order.rank_shift, order.pos_of, order.term_shift
        out: dict = {}
        for t, c in v.items():
            add_mul(out, ((term_shift(t), c),), cols[pos_of[t >> rank_shift]], p)
        return out

    def compose(self, other: "FreeMap") -> "FreeMap":
        """self o other."""
        if other.target != self.source:
            raise InputError("maps are not composable")
        return FreeMap(
            other.source, self.target, [self.apply(c) for c in other.packed]
        )

    def is_zero_over_ring(self) -> bool:
        """True iff every column reduces to zero modulo the ring relations."""
        basis = self.target.ring_basis
        # the normal form consumes a packed vector
        return not any(basis.normal_form(dict(col)) for col in self.packed)


class ModulePresentation(Staircase):
    """M = coker(relations -> free) over ``ring``; its Hilbert data is the
    staircase of the relations plus the ring-relation adjunction.  The
    nonzero relations are kept ``packed`` in ``free.order``, taken as
    ``FreeMap`` takes its columns.

    ``numerator`` is the Hilbert numerator when it is already known, from
    another presentation of the module or from an exact sequence; reading
    it then builds no basis."""

    __slots__ = ("ring", "free", "packed", "_gb", "_parent", "_reduced")

    def __init__(self, ring: QuotientRing, gen_degrees, relations, numerator=None):
        self.ring = ring
        self.free = FreeModule(ring, tuple(-int(d) for d in gen_degrees))
        order, p = self.free.order, ring.p
        self.packed: list = []
        for v in relations:
            w = order.pack_vec(v, p)
            if w:
                order.degree(w)  # homogeneity check
                self.packed.append(dict(w) if w is v else w)
        self._gb: GroebnerBasis | None = None
        self._numerator: dict | None = numerator
        self._stripped: tuple | None = None
        # set by ``quotient``: the presentation whose basis this one grows
        self._parent: ModulePresentation | None = None
        # (ys, the presentation over R/(ys)) of the last ``reduce_mod``
        self._reduced: tuple | None = None

    @property
    def relations(self) -> tuple:
        """The relations as tuple-keyed vectors, unpacked on each read."""
        unpack = self.free.order.unpack_vec
        return tuple(unpack(v.items()) for v in self.packed)

    @property
    def rank(self) -> int:
        return self.free.rank

    @property
    def gen_degrees(self):
        return self.free.gen_degrees

    @property
    def gb(self) -> GroebnerBasis:
        """Reduced Groebner basis of the relations plus the ring relations
        times each generator.  It grows the free module's lifted ring
        basis, which is already reduced, by the relations; a presentation
        made by ``quotient`` grows its parent's basis by the extra
        relations instead."""
        if self._gb is None:
            parent, self._parent = self._parent, None
            if parent is None:
                gens, base = self.packed, self.free.ring_basis
            else:
                gens, base = self.packed[len(parent.packed):], parent.gb
            self._gb = buchberger(gens, self.free.order, self.ring.p, base=base)
        return self._gb

    # -- Hilbert data

    def is_zero(self) -> bool:
        return not self.hilbert_numerator

    # -- derived presentations

    def quotient(self, extra_relations) -> "ModulePresentation":
        child = ModulePresentation(
            self.ring,
            self.free.gen_degrees,
            self.packed + list(extra_relations),
        )
        child._parent = self
        return child

    def reduce_mod(self, ys) -> "ModulePresentation":
        """The same presentation over R/(ys).  Asked again for the same
        sequence, it hands back the same presentation, so a basis built
        for one reader (a regularity check) serves the next."""
        ys = tuple(ys)
        if self._reduced is None or self._reduced[0] != ys:
            child = ModulePresentation(
                self.ring.extend(ys), self.free.gen_degrees, self.packed
            )
            self._reduced = ys, child
        return self._reduced[1]

    def __repr__(self):
        return (
            f"ModulePresentation(gens={list(self.free.gen_degrees)}, "
            f"relations={len(self.packed)})"
        )

