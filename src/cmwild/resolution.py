"""Koszul complexes, minimal graded free resolutions over quotient rings,
Betti tables, and comparison maps.

Resolutions are built stepwise: syzygies of the current differential's
columns (with the ring-relation adjunction) come from a tagged elimination
basis, and unit entries of the new differential are eliminated immediately.
Eliminating a unit at (r, c) of delta_i clears its row by column operations
(a basis change of F_i, invisible to anything already built), clears its
column by row operations whose mirror is a column operation on delta_{i-1},
and then deletes generator c of F_i and generator r of F_{i-1}; the deleted
column of delta_{i-1} must have become zero over the ring, which is checked.
Row/column mirrors never create new unit entries upstream: a degree-zero
entry of a minimal matrix is already zero, and the graded operations cannot
raise it.

One extra syzygy step beyond the requested length is computed and discarded:
a redundant generator in the top differential only becomes visible as a unit
entry one step later, and the elimination cascade is what prunes it.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import CmwildError, InputError
from .groebner import TaggedBasis, vec_add_mul, vec_degree
from .modules import FreeMap, FreeModule, ModulePresentation, ring_reduce_vec
from .poly import add_terms
from .rings import QuotientRing


class Resolution:
    """A chain F_k -> ... -> F_1 -> F_0 (-> M) of graded free modules.

    ``presentation`` is the presentation of M matching F_0 and delta_1 (the
    augmentation data), so Omega^i = Im delta_i is well defined for i >= 1.
    ``terminated`` records that the module ran out of syzygies before the
    requested length (finite projective dimension).
    """

    def __init__(self, ring, frees, maps, minimal, presentation, terminated=False):
        self.ring = ring
        self.frees = list(frees)
        self.maps = dict(maps)  # {i: FreeMap for delta_i}, i >= 1
        self.minimal = minimal
        self.presentation = presentation
        self.terminated = terminated

    @property
    def length(self) -> int:
        return len(self.frees) - 1

    def free(self, i: int) -> FreeModule:
        return self.frees[i]

    def map(self, i: int) -> FreeMap:
        return self.maps[i]

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
        """Presentation of Omega^i = Im(delta_i) (for i = 0: of M itself)."""
        if i < 0 or i > self.length:
            raise InputError(f"syzygy index {i} outside computed range")
        if i + 1 in self.maps:
            rels = self.maps[i + 1].columns
        elif self.terminated and i == self.length:
            rels = []
        else:
            raise InputError(
                f"resolution not computed past step {i}; Omega^{i} needs delta_{i + 1}"
            )
        return ModulePresentation(self.ring, self.frees[i].gen_degrees, rels)

    def check_complex(self) -> bool:
        """delta_i o delta_{i+1} = 0 over the ring, for every computed i."""
        for i in range(1, self.length):
            if (i + 1) not in self.maps:
                continue
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

    presentation = ModulePresentation(
        ring, frees[0].gen_degrees, maps[1].columns if d >= 1 else []
    )
    return Resolution(ring, frees, maps, True, presentation, terminated=(d >= 0))


# ------------------------------------------------- minimal free resolutions


def _row_terms(col: dict, r: int, scale: int, p: int) -> dict:
    """Row r of a column as a term dict, times a scalar."""
    return {m: c * scale % p for (pos, m), c in col.items() if pos == r}


def _eliminate_units(ring, frees, maps_cols, level, cols):
    """Eliminate unit entries from candidate delta_level columns.

    Mutates frees[level-1] (dropping generators) and, for level >= 2, the
    stored columns of delta_{level-1} in maps_cols[level-2].  Returns the
    cleaned column list.
    """
    p = ring.p
    zero = (0,) * ring.nvars
    D = list(cols)
    E = maps_cols[level - 2] if level >= 2 else None
    dropped = set()

    while True:
        unit = min(
            ((pos, c) for c, col in enumerate(D)
             for (pos, m), k in col.items() if m == zero and k % p),
            default=None,
        )
        if unit is None:
            break
        r0, c0 = unit
        pivot = D[c0]
        # a homogeneous entry with a constant term is that constant
        uinv = pow(pivot[(r0, zero)], -1, p)
        # clear row r0 in the other columns (basis change of F_level)
        for c, col in enumerate(D):
            if c != c0:
                alpha = _row_terms(col, r0, p - uinv, p)
                if alpha:
                    D[c] = vec_add_mul(col, alpha, pivot, p)
        # clear column c0 (basis change of F_{level-1}, mirrored on E)
        if E is not None:
            for r in {pos for (pos, _m) in pivot} - {r0}:
                E[r0] = vec_add_mul(E[r0], _row_terms(pivot, r, uinv, p), E[r], p)
            # the freed column of delta_{level-1} must vanish over the ring
            if ring_reduce_vec(ring, E[r0]):
                raise CmwildError("minimization produced a nonzero freed column")
        del D[c0]
        dropped.add(r0)

    # drop the freed generators of F_{level-1}; no column has an entry there
    keep = [r for r in range(frees[level - 1].rank) if r not in dropped]
    index = {r: i for i, r in enumerate(keep)}
    frees[level - 1] = FreeModule(ring, [frees[level - 1].twists[r] for r in keep])
    if E is not None:
        E[:] = [E[r] for r in keep]
    out = []
    for col in D:
        col = ring_reduce_vec(ring, {(index[pos], m): c for (pos, m), c in col.items()})
        if col:
            out.append(col)
    return out


def minimal_resolution(pres: ModulePresentation, length: int) -> Resolution:
    """Minimal graded free resolution of coker(pres) to the given length."""
    if length < 0:
        raise InputError("resolution length must be nonnegative")
    ring = pres.ring
    p = ring.p
    frees: list = [FreeModule(ring, pres.free.twists)]
    maps_cols: list = []
    cols = [ring_reduce_vec(ring, c) for c in pres.relations]
    cols = [c for c in cols if c]
    terminated = False

    for i in range(1, length + 2):
        if not cols:
            terminated = True
            break
        cols = _eliminate_units(ring, frees, maps_cols, i, cols)
        if not cols:
            terminated = True
            break
        if i == length + 1:
            # the extra step exists only to prune the one below it
            break
        src_degrees = [vec_degree(c, frees[i - 1].gen_degrees) for c in cols]
        frees.append(FreeModule(ring, tuple(-d for d in src_degrees)))
        maps_cols.append(cols)
        tagged = TaggedBasis(
            list(cols) + frees[i - 1].ring_adjunction(), frees[i - 1].order, p
        )
        k = len(cols)
        nxt = []
        for s in tagged.syzygy_generators():
            restr = {(pos, m): c for (pos, m), c in s.items() if pos < k}
            restr = ring_reduce_vec(ring, restr)
            if restr:
                nxt.append(restr)
        cols = nxt

    maps = {
        i + 1: FreeMap(frees[i + 1], frees[i], maps_cols[i])
        for i in range(len(maps_cols))
    }
    if maps:
        pres_rels = maps[1].columns
    else:
        # length 0: the pruned relation list never became a stored map
        pres_rels = [] if terminated else cols
    presentation = ModulePresentation(ring, frees[0].gen_degrees, pres_rels)
    res = Resolution(ring, frees, maps, True, presentation, terminated=terminated)
    if not res.check_complex():
        raise CmwildError("resolution differentials do not compose to zero")
    return res


# --------------------------------------------------------- comparison maps


def comparison_map(koszul: Resolution, res: Resolution) -> list[FreeMap]:
    """Chain maps phi_i : K_i -> F_i lifting the identity on degree-zero
    generators, via normal-form division against each differential's tagged
    basis.  Returns [phi_0, ..., phi_min(lengths)]."""
    ring = res.ring
    p = ring.p
    k0, f0 = koszul.frees[0], res.frees[0]
    if k0.gen_degrees != f0.gen_degrees:
        raise InputError("comparison map needs matching degree-zero generators")
    phis = [FreeMap(k0, f0, [f0.gen_vec(i) for i in range(f0.rank)])]
    top = min(koszul.length, res.length)
    for i in range(1, top + 1):
        delta = res.maps[i]
        cols_delta = list(delta.columns)
        tagged = TaggedBasis(
            cols_delta + res.frees[i - 1].ring_adjunction(),
            res.frees[i - 1].order,
            p,
        )
        k = len(cols_delta)
        phi_cols = []
        for w in koszul.maps[i].columns:
            v = phis[i - 1].apply(w)
            coords = tagged.coordinates(v)
            if coords is None:
                raise CmwildError("comparison lift failed: target not in image")
            phi_cols.append(
                {(pos, m): c for (pos, m), c in coords.items() if pos < k}
            )
        phi = FreeMap(koszul.frees[i], res.frees[i], phi_cols)
        # certify the chain-map identity delta_i phi_i = phi_{i-1} d_i
        lhs = delta.compose(phi)
        rhs = phis[i - 1].compose(koszul.maps[i])
        for a, b in zip(lhs.columns, rhs.columns):
            diff = dict(a)
            add_terms(diff, b, p, -1)
            if ring_reduce_vec(ring, diff):
                raise CmwildError("comparison map is not a chain map")
        phis.append(phi)
    return phis

