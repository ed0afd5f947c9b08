"""Koszul complexes, minimal graded free resolutions over quotient rings,
Betti tables, and comparison maps.

Resolutions are built stepwise: syzygies of the current differential's
columns (modulo the lifted ring basis, which enters untagged) come from a
tagged elimination basis, and unit entries of the new differential are
eliminated immediately.
Eliminating a unit at (r, c) of delta_i clears its row by column operations
(a basis change of F_i, invisible to anything already built), clears its
column by row operations whose mirror is a column operation on delta_{i-1},
and then deletes generator c of F_i and generator r of F_{i-1}; the deleted
column of delta_{i-1} must have become zero over the ring, which is checked.
Row/column mirrors never create new unit entries upstream: a degree-zero
entry of a minimal matrix is already zero, and the graded operations cannot
raise it.

The last requested step k >= 1 computes no syzygies.  A redundant
generator of F_k would show only as a unit entry of delta_{k+1}; instead
F_k keeps the columns of delta_k that ``minimal_generators`` picks, a
minimal generating set of the image modulo the ring.  It is the set that
eliminating those units, smallest position of F_k first, would keep: each
elimination drops the column it frees and writes no other.  A dropped
column's certificate is its zero normal form against a basis complete
through its degree.  ``terminated`` is the Euler identity HS(M) =
sum_{i <= k} (-1)^i HS(F_i), which holds exactly when delta_k is
injective.

The same alternating sum gives every syzygy's Hilbert series: the chain
0 -> Omega^i -> F_{i-1} -> ... -> F_0 -> M -> 0 is exact, so
HS(Omega^i) = (-1)^i (HS(M) - sum_{j < i} (-1)^j HS(F_j)), and the
Euler identity at k is HS(Omega^{k+1}) = 0.  ``syzygy_presentation``
hands Omega^i back with that numerator, so reading it builds no basis of
Omega^i; only the numerator of M is read off a basis.

Columns are packed (see the ``groebner`` docstring), each in the order of
its target free module, from the presentation's packed relations to the
finished ``FreeMap``s, whose packed columns are in turn the relations of
the syzygy presentations.  A constant term is read off the degree and
exponent fields, a column update ``acc + f*v`` is ``add_mul`` with one
integer shift per term of f, and dropping freed generators rewrites rank
bits.  Reduction modulo the ring is one ``_reduce`` against the free
module's lifted ring basis (``FreeModule.ring_basis``, built once per
module).  A new column is reduced once, at the end of unit elimination,
which takes the relations and the syzygies as they come.  A real
position packs to the same int in the tagged order, so the columns enter
``TaggedBasis`` as they are and the syzygies leave it packed, moved to
F_i by a swap of rank bits.  ``comparison_map`` solves only in the
degrees of the Koszul generators, so its tagged bases are cut there; it
lifts with ``FreeMap.apply`` and certifies each lift with the
differential's ``apply``; ``check_complex`` composes the maps the same
way.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import CmwildError, InputError
from .groebner import TaggedBasis, add_mul, minimal_generators, series_add
from .modules import FreeMap, FreeModule, ModulePresentation
from .poly import add_terms
from .rings import QuotientRing


class Resolution:
    """A chain F_k -> ... -> F_1 -> F_0 (-> M) of graded free modules.

    M is coker(delta_1) over F_0, so Omega^i = Im delta_i is well defined
    for i >= 1; ``syzygy_presentation(0)`` presents M itself.
    ``terminated`` records that the module ran out of syzygies before the
    requested length (finite projective dimension).  ``module`` is M as
    given to ``minimal_resolution``, set only on a chain exact below its
    top; the syzygy numerators, M's own included, are read off its
    numerator.
    """

    minimal = True  # both constructors leave no unit entry in a differential

    def __init__(self, ring, frees, maps, terminated=False, module=None):
        self.ring = ring
        self.frees = list(frees)
        self.maps = dict(maps)  # {i: FreeMap for delta_i}, i >= 1
        self.terminated = terminated
        self.module = module

    @property
    def length(self) -> int:
        return len(self.frees) - 1

    def betti(self) -> dict:
        """{(homological degree i, internal degree j): rank}."""
        return Counter(
            (i, d) for i, free in enumerate(self.frees) for d in free.gen_degrees
        )

    def betti_json(self) -> dict:
        entries = [
            {"i": i, "j": j, "rank": r}
            for (i, j), r in sorted(self.betti().items())
        ]
        return {"betti": entries, "minimal": bool(self.minimal)}

    def syzygy_presentation(self, i: int) -> ModulePresentation:
        """Presentation of Omega^i = Im(delta_i) (for i = 0: of M itself).

        On an exact chain (one with ``module``) it carries the numerator of
        Omega^i from the Euler sum, as exactness at F_i makes
        coker(delta_{i+1}) equal to Omega^i; for i = 0 that is M's own."""
        if i < 0 or i > self.length:
            raise InputError(f"syzygy index {i} outside computed range")
        if i + 1 in self.maps:
            rels = self.maps[i + 1].packed
        elif self.terminated and i == self.length:
            rels = []
        else:
            raise InputError(
                f"resolution not computed past step {i}; Omega^{i} needs delta_{i + 1}"
            )
        numerator = None
        if self.module is not None:
            numerator = _syzygy_numerator(self.module, self.frees[:i])
        return ModulePresentation(
            self.ring, self.frees[i].gen_degrees, rels, numerator=numerator
        )

    def check_complex(self) -> bool:
        """delta_i o delta_{i+1} = 0 over the ring, for every computed i."""
        for i in range(1, self.length):
            comp = self.maps[i].compose(self.maps[i + 1])
            if not comp.is_zero_over_ring():
                return False
        return True

    def __repr__(self):
        ranks = " <- ".join(str(f.rank) for f in self.frees)
        return f"Resolution({ranks}; minimal={self.minimal})"


# ------------------------------------------------------------------ Koszul


def koszul_complex(ring: QuotientRing, elems, copies: int = 1) -> Resolution:
    """The Koszul complex on ``elems`` over ``ring``, n-fold via ``copies``.

    K_i has one generator per i-subset of the elements (lex order) and copy,
    copy-major; the differential contracts with alternating signs.  The
    complex is a resolution of copies * R/(elems) exactly when the elements
    form a regular sequence; this function builds the complex either way.
    """
    elems = list(elems)
    if copies < 1:
        raise InputError("copies must be positive")
    for f in elems:
        if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
            raise InputError("Koszul elements must be homogeneous of positive degree")
    d = len(elems)
    degs = [f.degree() for f in elems]
    p = ring.p

    subsets = [list(combinations(range(d), i)) for i in range(d + 1)]
    frees = []
    for i in range(d + 1):
        twists = [
            -sum(degs[j] for j in s)
            for _copy in range(copies)
            for s in subsets[i]
        ]
        frees.append(FreeModule(ring, twists))

    maps = {}
    for i in range(1, d + 1):
        index_prev = {s: k for k, s in enumerate(subsets[i - 1])}
        block_rows = len(subsets[i - 1])
        columns = []
        for copy in range(copies):
            for s in subsets[i]:
                col: dict = {}
                for t, elem_idx in enumerate(s):
                    rest = s[:t] + s[t + 1 :]
                    row = copy * block_rows + index_prev[rest]
                    terms = elems[elem_idx].terms
                    add_terms(col, {(row, m): c for m, c in terms.items()}, p, (-1) ** t)
                columns.append(col)
        maps[i] = FreeMap(frees[i], frees[i - 1], columns)
    return Resolution(ring, frees, maps, terminated=True)


# ------------------------------------------------- minimal free resolutions


def _eliminate_units(frees, maps_cols, cols):
    """Eliminate unit entries from candidate delta_level columns, where
    level = len(frees), then reduce them modulo the ring.

    The columns are packed in the order of frees[-1]; for level >= 2 the
    stored columns of delta_{level-1}, maps_cols[-1], are packed in that
    of frees[-2].  The candidates need not be reduced: a reduction keeps
    every constant term, so the same units are found, and what an
    unreduced column carries through the operations lies in I*F, so the
    final reduction gives the same columns.  Mutates the candidates,
    frees[-1] (dropping generators) and maps_cols[-1].  Returns the
    nonzero reduced columns.
    """
    ring = frees[0].ring
    p = ring.p
    order = frees[-1].order
    rank_shift, pos_of, term_shift = order.rank_shift, order.pos_of, order.term_shift
    const, mask = order.const_term, order.term_mask
    D = list(cols)
    E = maps_cols[-1] if maps_cols else None
    dropped = set()

    while True:
        unit = min(
            ((pos_of[t >> rank_shift], c, t) for c, col in enumerate(D)
             for t in col if t & mask == const),
            default=None,
        )
        if unit is None:
            break
        r0, c0, t0 = unit
        rank0 = t0 >> rank_shift
        pivot = D[c0]
        # a homogeneous entry with a constant term is that constant
        uinv = pow(pivot[t0], -1, p)
        # clear row r0 in the other columns (basis change of F_level)
        for c, col in enumerate(D):
            if c != c0:
                alpha = [
                    (term_shift(t), k * (p - uinv) % p)
                    for t, k in col.items() if t >> rank_shift == rank0
                ]
                if alpha:
                    add_mul(col, alpha, pivot, p)
        # clear column c0 (basis change of F_{level-1}, mirrored on E)
        if E is not None:
            rows: dict = {}
            for t, k in pivot.items():
                rows.setdefault(t >> rank_shift, []).append((term_shift(t), k * uinv % p))
            for rank, f in rows.items():
                if rank != rank0:
                    add_mul(E[r0], f, E[pos_of[rank]], p)
            # the freed column of delta_{level-1} must vanish over the ring;
            # it is dropped below, so the reduction may consume it
            if frees[-2].ring_reduce(E[r0]):
                raise CmwildError("minimization produced a nonzero freed column")
        del D[c0]
        dropped.add(r0)

    if dropped:
        # drop the freed generators of F_{level-1}; no column has an entry
        # there, and every other generator keeps its place in the order
        keep = [r for r in range(order.rank) if r not in dropped]
        free = FreeModule(ring, [frees[-1].twists[r] for r in keep])
        rank_bits = [0] * order.rank
        for i, r in enumerate(keep):
            rank_bits[order.rank_of[r]] = free.order.rank_bits[i]
        D = [order.rerank(col.items(), rank_bits) for col in D]
        frees[-1] = free
        if E is not None:
            E[:] = [E[r] for r in keep]
    return [c for c in map(frees[-1].ring_reduce, D) if c]


def minimal_resolution(pres: ModulePresentation, length: int) -> Resolution:
    """Minimal graded free resolution of coker(pres) to the given length.

    The columns stay packed in the order of their target free module from
    the relations to the finished maps; see the module docstring."""
    if length < 0:
        raise InputError("resolution length must be nonnegative")
    ring = pres.ring
    p = ring.p
    frees: list = [pres.free]
    maps_cols: list = []
    # unit elimination edits its columns, so it gets copies of the relations
    cols = [dict(v) for v in pres.packed]
    terminated = False

    for i in range(1, max(length, 1) + 1):
        cols = _eliminate_units(frees, maps_cols, cols)
        if not cols:
            # F_{i-1} has no syzygies left: it is the last module
            terminated = True
            break
        if length == 0:
            # step 1 only prunes F_0; its relations become no stored map
            break
        target = frees[i - 1]
        if i == length:
            # the last module keeps a minimal generating set of the image
            kept = minimal_generators(cols, target.order, p, base=target.ring_basis)
            cols = [cols[j] for j in kept]
        source = FreeModule(ring, [-target.order.term_degree(min(c)) for c in cols])
        frees.append(source)
        maps_cols.append(cols)
        if i == length:
            terminated = _euler_identity_holds(pres, frees)
            break
        tagged = TaggedBasis(cols, target.order, p, base=target.ring_basis)
        cols = tagged.syzygies(source.order, len(cols))

    maps = {
        i + 1: FreeMap(frees[i + 1], frees[i], maps_cols[i])
        for i in range(len(maps_cols))
    }
    res = Resolution(ring, frees, maps, terminated=terminated, module=pres)
    if not res.check_complex():
        raise CmwildError("resolution differentials do not compose to zero")
    return res


def _syzygy_numerator(pres: ModulePresentation, frees) -> dict:
    """HN(Omega^i) for i = len(frees), as a numerator over (1 - t)^nvars:
    (-1)^i (HN(M) - sum_{j < i} (-1)^j HN(F_j)), where M = coker(pres)
    and HN(F_j) is sum_g t^g HN(R) over the generator degrees g of F_j.

    Here Omega^0 is M and Omega^i is the kernel of F_{i-1} -> F_{i-2} (of
    F_0 -> M for i = 1), and F_{i-1} -> ... -> F_0 -> M -> 0 must be
    exact, as it is below the top of a minimal resolution."""
    out = pres.hilbert_numerator
    ring_numerator = pres.ring.hilbert_numerator
    for j, free in enumerate(frees):
        for d in free.gen_degrees:
            series_add(out, ring_numerator, d, (-1) ** (j + 1))
    if len(frees) % 2:
        out = {d: -c for d, c in out.items()}
    return out


def _euler_identity_holds(pres: ModulePresentation, frees) -> bool:
    """HS(M) = sum_i (-1)^i HS(F_i), as numerators over (1 - t)^nvars.

    F_k -> ... -> F_0 -> M -> 0 is exact except at the top F_k, so the
    two sides differ by +-HS(K) for the kernel K of delta_k, which is
    Omega^{k+1}: the identity holds iff its numerator is zero."""
    return not _syzygy_numerator(pres, frees)


# --------------------------------------------------------- comparison maps


def comparison_map(koszul: Resolution, res: Resolution) -> list[FreeMap]:
    """Chain maps phi_i : K_i -> F_i lifting the identity on degree-zero
    generators, via normal-form division against each differential's tagged
    basis.  Returns [phi_0, ..., phi_min(lengths)].

    Each lift and its chain-map certificate run on packed columns."""
    ring = res.ring
    p = ring.p
    k0, f0 = koszul.frees[0], res.frees[0]
    if k0.gen_degrees != f0.gen_degrees:
        raise InputError("comparison map needs matching degree-zero generators")
    phis = [FreeMap(k0, f0, [f0.gen_vec(i) for i in range(f0.rank)])]
    top = min(koszul.length, res.length)
    for i in range(1, top + 1):
        target, source = res.frees[i - 1], res.frees[i]
        delta = res.maps[i]
        # every vector solved here has the degree of a generator of K_i
        tagged = TaggedBasis(
            delta.packed, target.order, p, base=target.ring_basis,
            bound=max(koszul.frees[i].gen_degrees),
        )
        cols = []
        for w in koszul.maps[i].packed:
            v = phis[-1].apply(w)  # phi_{i-1}(w)
            coords = tagged.solve(dict(v), source.order, source.rank)
            if coords is None:
                raise CmwildError("comparison lift failed: target not in image")
            # certify the chain-map identity delta_i phi_i = phi_{i-1} d_i
            diff = delta.apply(coords)
            add_terms(diff, v, p, -1)
            if target.ring_reduce(diff):
                raise CmwildError("comparison map is not a chain map")
            cols.append(coords)
        phis.append(FreeMap(koszul.frees[i], source, cols))
    return phis
