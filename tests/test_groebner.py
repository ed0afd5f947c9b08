"""Groebner bases, syzygies, and staircase numerics, checked against frozen
hand-derived values and an independent dense linear-algebra oracle."""

import random
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmwild.errors import InputError
from cmwild.groebner import (
    MAX_DEGREE,
    ModuleOrder,
    TaggedBasis,
    _normal_form,
    add_mul,
    buchberger,
    divide_by_one_minus_t,
    module_numerator,
    mono_divides,
    minimalize_monomials,
    monomial_ideal_numerator,
    series_add,
    standard_terms,
    strip_one_minus_t,
    vec_degree,
    vec_mono_shift,
)
from cmwild.matalg import rank as mat_rank
from cmwild.modules import FreeMap, FreeModule, ModulePresentation, ring_reduce_vec
from cmwild.poly import (
    Poly,
    PolyRing,
    add_terms,
    grevlex_key,
    mono_deg,
    mono_mul,
    monomials_of_degree,
)
from cmwild.rings import QuotientRing


def vec_add(u, v, p):
    """u + v over F_p as a new dict: the reference for ``add_terms``."""
    out = dict(u)
    for t, c in v.items():
        c2 = (out.get(t, 0) + c) % p
        if c2:
            out[t] = c2
        elif t in out:
            del out[t]
    return out


def gauss_rank_mod_p(rows, p):
    """Row-echelon rank over F_p, independent of the package internals."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def ideal_gb(ring: QuotientRing):
    return [str(f) for f in ring.groebner]


class TestBuchbergerIdeals:
    def test_two_quadrics(self):
        # (x^2 - y^2, x^2 + y^2) = (x^2, y^2) since 2 is invertible
        r = QuotientRing.from_strings(["x", "y"], ["x^2-y^2", "x^2+y^2"])
        assert ideal_gb(r) == ["x^2", "y^2"]

    def test_fermat_quartic_plus_squares(self):
        r = QuotientRing.from_strings(
            ["x", "y", "z"], ["x^4+y^4+z^4", "x^2", "y^2"]
        )
        assert ideal_gb(r) == ["x^2", "y^2", "z^4"]

    def test_membership_of_inputs(self):
        r = QuotientRing.from_strings(
            ["x", "y", "z"], ["x^4+y^4+z^4", "x^2", "y^2"]
        )
        for f in r.relations:
            assert r.is_zero_element(f)
        assert not r.is_zero_element(r.parse("z^3"))

    def test_spolys_of_output_reduce_to_zero(self):
        rng = random.Random(3)
        ring = PolyRing(["x", "y", "z"], 101)
        for _ in range(25):
            gens = []
            for _g in range(rng.randrange(1, 4)):
                d = rng.randrange(1, 4)
                f = ring.zero()
                for m in monomials_of_degree(3, d):
                    if rng.random() < 0.4:
                        f = f + ring.monomial(m, rng.randrange(1, 101))
                if not f.is_zero():
                    gens.append(f)
            if not gens:
                continue
            q = QuotientRing(ring, gens)
            gb = q.gb
            vecs = gb.vectors
            p = 101
            for i in range(len(vecs)):
                for j in range(i):
                    (pi, mi), (pj, mj) = gb.lts[i], gb.lts[j]
                    assert pi == pj == 0
                    lcm = tuple(max(a, b) for a, b in zip(mi, mj))
                    s = vec_add(
                        vec_mono_shift(vecs[i], tuple(l - a for l, a in zip(lcm, mi)), 1, p),
                        vec_mono_shift(vecs[j], tuple(l - a for l, a in zip(lcm, mj)), p - 1, p),
                        p,
                    )
                    assert gb.reduces_to_zero(s)
            for f in gens:
                assert q.is_zero_element(f)

    def test_deterministic_under_permutation(self):
        rels = ["x^4+y^4+z^4", "x^2", "y^2"]
        perms = [
            rels,
            [rels[2], rels[0], rels[1]],
            [rels[1], rels[2], rels[0]],
        ]
        bases = [
            ideal_gb(QuotientRing.from_strings(["x", "y", "z"], pr))
            for pr in perms
        ]
        assert bases[0] == bases[1] == bases[2]


class TestModuleBasesAndSyzygies:
    def test_koszul_syzygy_of_two_squares(self):
        # syzygies of (x^2, y^2) over F_p[x, y]: generated by (y^2, -x^2)
        ring = PolyRing(["x", "y"])
        p = ring.p
        order = ModuleOrder((0,), 2)
        gens = [{(0, (2, 0)): 1}, {(0, (0, 2)): 1}]
        tb = TaggedBasis(gens, order, p)
        syz = tb.syzygy_generators()
        assert syz == [{(0, (0, 2)): 1, (1, (2, 0)): p - 1}]

    def test_product_criterion_not_applied_to_modules(self):
        # u = x*e1 + y*e2, v = y*e1 + x*e2: (y^2 - x^2)*e2 lies in the span
        # and must be detected, which fails if coprime S-pairs are skipped
        ring = PolyRing(["x", "y"], 101)
        order = ModuleOrder((1, 1), 2)
        u = {(0, (1, 0)): 1, (1, (0, 1)): 1}
        v = {(0, (0, 1)): 1, (1, (1, 0)): 1}
        gb = buchberger([u, v], order, 101)
        w = {(1, (0, 2)): 1, (1, (2, 0)): 100}
        assert gb.reduces_to_zero(w)

    def test_tagged_coordinates_solve_membership(self):
        ring = PolyRing(["x", "y"], 101)
        order = ModuleOrder((0,), 2)
        gens = [{(0, (2, 0)): 1}, {(0, (0, 2)): 1}]  # x^2, y^2
        tb = TaggedBasis(gens, order, 101)
        # x^3 + x*y^2 = x * x^2 + x * y^2
        target = {(0, (3, 0)): 1, (0, (1, 2)): 1}
        coords = tb.coordinates(target)
        assert coords is not None
        p = 101
        rebuilt = {}
        for (idx, m), c in coords.items():
            rebuilt = vec_add(rebuilt, vec_mono_shift(gens[idx], m, c, p), p)
        assert rebuilt == target
        assert tb.coordinates({(0, (1, 0)): 1}) is None

    def test_syzygies_are_syzygies_random(self):
        rng = random.Random(4)
        ring = PolyRing(["x", "y", "z"], 101)
        p = 101
        for _ in range(10):
            order = ModuleOrder((0, 0), 3)
            gens = []
            for _g in range(3):
                v = {}
                for pos in range(2):
                    for m in monomials_of_degree(3, 2):
                        if rng.random() < 0.25:
                            v[(pos, m)] = rng.randrange(1, p)
                if v and len({sum(m) for (_q, m) in v}) == 1:
                    gens.append(v)
            if not gens:
                continue
            tb = TaggedBasis(gens, order, p)
            for s in tb.syzygy_generators():
                total = {}
                for (idx, m), c in s.items():
                    total = vec_add(total, vec_mono_shift(gens[idx], m, c, p), p)
                assert total == {}


def random_homogeneous_vec(rng, gen_degrees, nvars, p, deg):
    """A random degree-``deg`` vector of the free module with generators in
    ``gen_degrees``; may be zero."""
    v = {}
    for pos, gd in enumerate(gen_degrees):
        if deg < gd:
            continue
        for m in monomials_of_degree(nvars, deg - gd):
            if rng.random() < 0.3:
                v[(pos, m)] = rng.randrange(1, p)
    return v


class TestReducedBasisProperty:
    @pytest.mark.parametrize(
        "gen_degrees", [(0,), (0, 1), (2, 0, 1)], ids=["ideal", "rank2", "rank3"]
    )
    def test_monic_reduced_and_permutation_invariant(self, gen_degrees):
        rng = random.Random(29 + len(gen_degrees))
        p, nvars = 31, 3
        order = ModuleOrder(gen_degrees, nvars)
        lo, hi = min(gen_degrees) + 2, max(gen_degrees) + 3
        for _ in range(15):
            gens = [
                random_homogeneous_vec(rng, gen_degrees, nvars, p, rng.randint(lo, hi))
                for _g in range(rng.randint(1, 4))
            ]
            gb = buchberger(gens, order, p)
            for i, (v, lt) in enumerate(zip(gb.vectors, gb.lts)):
                assert lt == max(v, key=order.key)
                assert v[lt] == 1
                for pos, m in v:
                    divisors = [
                        j for j, (lpos, lm) in enumerate(gb.lts)
                        if lpos == pos and mono_divides(lm, m)
                    ]
                    assert divisors == ([i] if (pos, m) == lt else [])
            shuffled = list(gens)
            rng.shuffle(shuffled)
            again = buchberger(shuffled, order, p)
            assert again.vectors == gb.vectors
            assert again.lts == gb.lts


def rescan_normal_form(v, basis):
    """Reference reduction loop: find the leading term of the working vector
    by scanning all of it on every step, and take the first basis element,
    by index, whose leading term divides it."""
    key = basis.order.key
    p = basis.p
    work = dict(v)
    out = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        pos, m = t
        hit = next(
            (i for i, (lpos, lm) in enumerate(basis.lts)
             if lpos == pos and mono_divides(lm, m)),
            None,
        )
        if hit is None:
            out[t] = c
            continue
        shift = tuple(a - b for a, b in zip(m, basis.lts[hit][1]))
        for (gpos, gm), gc in basis.vectors[hit].items():
            if (gpos, gm) == basis.lts[hit]:
                continue
            t2 = (gpos, tuple(a + b for a, b in zip(gm, shift)))
            c2 = (work.get(t2, 0) - c * gc) % p
            if c2:
                work[t2] = c2
            elif t2 in work:
                del work[t2]
    return out


class TestNormalFormOracle:
    """The heap-ordered ``_normal_form`` against the rescan loop, compared
    as ordered dicts: same terms, same coefficients, same term order."""

    @staticmethod
    def check(basis, vectors):
        for v in vectors:
            got = _normal_form(v, basis)
            assert list(got.items()) == list(rescan_normal_form(v, basis).items())

    @pytest.mark.parametrize(
        "gen_degrees", [(0,), (0, 1), (2, 0, 1)], ids=["ideal", "rank2", "rank3"]
    )
    def test_matches_rescan_on_buchberger_bases(self, gen_degrees):
        rng = random.Random(61 + len(gen_degrees))
        p, nvars = 31, 3
        order = ModuleOrder(gen_degrees, nvars)
        lo, hi = min(gen_degrees) + 2, max(gen_degrees) + 3
        for _ in range(12):
            gens = [
                random_homogeneous_vec(rng, gen_degrees, nvars, p, rng.randint(lo, hi))
                for _g in range(rng.randint(1, 4))
            ]
            gb = buchberger(gens, order, p)
            self.check(gb, [
                random_homogeneous_vec(rng, gen_degrees, nvars, p, rng.randint(lo, hi + 2))
                for _v in range(6)
            ])

    def test_matches_rescan_in_a_tagged_order(self):
        rng = random.Random(67)
        p, nvars = 31, 3
        base = ModuleOrder((0, 1), nvars)
        for _ in range(8):
            gens = [
                random_homogeneous_vec(rng, base.gen_degrees, nvars, p, rng.randint(2, 3))
                for _g in range(rng.randint(2, 4))
            ]
            tb = TaggedBasis(gens, base, p)
            self.check(tb.gb, [
                random_homogeneous_vec(rng, tb.order.gen_degrees, nvars, p, rng.randint(2, 5))
                for _v in range(6)
            ])

    def test_term_cancelled_then_recreated(self):
        # basis {x^2 + y^2, x*y - y^2, y^3}; reducing x^2 + x*y + y^2:
        # x^2 cancels y^2, whose heap entry goes stale; x*y then brings
        # y^2 back with a second entry.  Exactly one of the two may count.
        p = 101
        order = ModuleOrder((0,), 2)
        gb = buchberger(
            [{(0, (2, 0)): 1, (0, (0, 2)): 1}, {(0, (1, 1)): 1, (0, (0, 2)): p - 1}],
            order,
            p,
        )
        assert gb.lts == [(0, (2, 0)), (0, (1, 1)), (0, (0, 3))]
        v = {(0, (2, 0)): 1, (0, (1, 1)): 1, (0, (0, 2)): 1}
        assert _normal_form(v, gb) == {(0, (0, 2)): 1}
        self.check(gb, [v])


# ------------------------------------------------- grown bases

GROW_P, GROW_NVARS = 31, 3
GROW_RANKS = {"ideal": (0,), "rank2": (0, 1), "rank3": (2, 0, 1)}
GROW_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def homogeneous_vectors(draw, gen_degrees, min_count, max_count, max_excess=3):
    """Nonzero homogeneous vectors over F_31 in 3 variables, each of degree
    between 1 and ``max_excess`` above the largest generator degree."""
    out = []
    for _ in range(draw(st.integers(min_count, max_count))):
        deg = draw(st.integers(max(min(gen_degrees), 0) + 1, max(gen_degrees) + max_excess))
        terms = [
            (pos, m)
            for pos, gd in enumerate(gen_degrees)
            for m in monomials_of_degree(GROW_NVARS, deg - gd)
        ]
        chosen = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=5, unique=True))
        coeffs = draw(st.lists(
            st.integers(1, GROW_P - 1), min_size=len(chosen), max_size=len(chosen)
        ))
        out.append(dict(zip(chosen, coeffs)))
    return out


def polys_from(ring, vectors):
    return [Poly(ring, {m: c for (_pos, m), c in v.items()}) for v in vectors]


def listing(gb):
    """A basis as ordered dicts in listing order, with its leading terms."""
    return [list(v.items()) for v in gb.vectors], list(gb.lts)


def along(f, rank):
    """f times each generator of a free module of the given rank."""
    return [{(j, m): c for m, c in f.terms.items()} for j in range(rank)]


class TestGrownBases:
    """A basis grown from a reduced basis equals the basis rebuilt from
    all generators: the same vectors in the same listing and dict order,
    and the same cached leading terms."""

    @pytest.mark.parametrize("rank", sorted(GROW_RANKS))
    @GROW_SETTINGS
    @given(data=st.data())
    def test_grown_equals_rebuilt(self, rank, data):
        gen_degrees = GROW_RANKS[rank]
        order = ModuleOrder(gen_degrees, GROW_NVARS)
        old = data.draw(homogeneous_vectors(gen_degrees, 1, 3))
        new = data.draw(homogeneous_vectors(gen_degrees, 0, 3))
        base = buchberger(old, order, GROW_P)
        before = listing(base)
        grown = buchberger(new, order, GROW_P, base=base)
        assert listing(grown) == listing(buchberger(old + new, order, GROW_P))
        assert listing(base) == before

    @GROW_SETTINGS
    @given(data=st.data())
    def test_extend_chain_equals_fresh_ring(self, data):
        amb = PolyRing(["x", "y", "z"], GROW_P)
        rels = polys_from(amb, data.draw(homogeneous_vectors((0,), 0, 2)))
        seq = polys_from(amb, data.draw(homogeneous_vectors((0,), 1, 3, max_excess=2)))
        # as in verify_regular_sequence: each stage extends the one before;
        # with ``eager`` off, only the last stage's basis is asked for
        eager = data.draw(st.booleans())
        stage = QuotientRing(amb, rels)
        for y in seq:
            stage = stage.extend([y])
            if eager:
                stage.gb
        assert listing(stage.gb) == listing(QuotientRing(amb, rels + seq).gb)

    @pytest.mark.parametrize("rank", ["rank2", "rank3"])
    @GROW_SETTINGS
    @given(data=st.data())
    def test_quotient_chain_equals_fresh_presentation(self, rank, data):
        gen_degrees = GROW_RANKS[rank]
        amb = PolyRing(["x", "y", "z"], GROW_P)
        ring = QuotientRing(amb, polys_from(amb, data.draw(homogeneous_vectors((0,), 0, 1))))
        rels = data.draw(homogeneous_vectors(gen_degrees, 1, 2))
        seq = polys_from(amb, data.draw(homogeneous_vectors((0,), 1, 2, max_excess=2)))
        # as in FamilyMember.mcm_verified: stage i is N/(y_1..y_i)N
        stage = ModulePresentation(ring, gen_degrees, rels)
        for y in seq:
            stage.gb
            stage = stage.quotient(along(y, len(gen_degrees)))
        all_rels = rels + [v for y in seq for v in along(y, len(gen_degrees))]
        fresh = ModulePresentation(ring, gen_degrees, all_rels)
        assert listing(stage.gb) == listing(fresh.gb)
        # as in verify_shift_embedding: reduce mod the sequence, then
        # divide by more relations
        extra = data.draw(homogeneous_vectors(gen_degrees, 1, 2))
        grown = ModulePresentation(ring, gen_degrees, rels).reduce_mod(seq).quotient(extra)
        fresh = ModulePresentation(QuotientRing(amb, ring.relations + tuple(seq)),
                                   gen_degrees, rels + extra)
        assert listing(grown.gb) == listing(fresh.gb)


# ------------------------------------------------- packed terms


def pack(order, term):
    """The kernel's packed int of one term."""
    (t,) = order.pack_vec({term: 1}, 101)
    return t


def degree_limit(order, pos):
    """The documented limit: deg(m) + gen_degrees[pos] - min(gen_degrees)
    is at most MAX_DEGREE."""
    return MAX_DEGREE + min(order.gen_degrees) - order.gen_degrees[pos]


@st.composite
def packed_orders(draw):
    """Orders of rank 1-3 with twists, in 1-8 variables."""
    gen_degrees = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    return ModuleOrder(gen_degrees, draw(st.integers(1, 8)))


@st.composite
def limit_terms(draw, order, pos=None, degree=None):
    """A term (pos, m) of degree at most ``degree`` (by default the limit
    at pos), with exponents from 0 up to the limit."""
    if pos is None:
        pos = draw(st.integers(0, order.rank - 1))
    left = degree_limit(order, pos) if degree is None else degree
    m = [0] * order.nvars
    for i in draw(st.permutations(range(order.nvars))):
        m[i] = min(draw(st.integers(0, 3) | st.integers(0, MAX_DEGREE)), left)
        left -= m[i]
    return pos, tuple(m)


class TestPackedTerms:
    """Packed comparison, divisibility and shift against ``ModuleOrder.key``,
    ``mono_divides`` and ``mono_mul`` on the tuple terms."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_packed_ops_agree_with_tuples(self, data):
        order = data.draw(packed_orders())
        a, b = data.draw(limit_terms(order)), data.draw(limit_terms(order))
        ta, tb = pack(order, a), pack(order, b)
        assert order.unpack_vec([(ta, 7)]) == {a: 7}
        # the smaller int is the larger term
        assert (ta < tb) == (order.key(a) > order.key(b))
        assert (ta == tb) == (a == b)

        def divides(tg, t):
            return not ((t & order.exp_mask) - (tg & order.exp_mask)) & order.guards

        assert divides(tb, ta) == mono_divides(b[1], a[1])
        # a multiple of b and a shift by the same quotient
        pos, mb = b
        q = data.draw(limit_terms(order, pos, degree_limit(order, pos) - mono_deg(mb)))[1]
        a = (pos, mono_mul(mb, q))
        ta = pack(order, a)
        assert divides(tb, ta) and mono_divides(mb, a[1])
        cpos = data.draw(st.integers(0, order.rank - 1))
        c = data.draw(limit_terms(order, cpos, degree_limit(order, cpos) - mono_deg(q)))
        assert pack(order, c) + (ta - tb) == pack(order, (cpos, mono_mul(c[1], q)))


KERNEL_P = 31


@st.composite
def column_orders(draw):
    """Free-module orders of rank 1-3 with twists, in 1-6 variables."""
    gen_degrees = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    return ModuleOrder(gen_degrees, draw(st.integers(1, 6)))


@st.composite
def small_monomials(draw, nvars):
    return tuple(draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)))


@st.composite
def column_vectors(draw, order, max_terms=6):
    """Tuple-keyed vectors over F_31 with small exponents, any degrees."""
    keys = draw(st.lists(
        st.tuples(st.integers(0, order.rank - 1), small_monomials(order.nvars)),
        max_size=max_terms, unique=True,
    ))
    return {k: draw(st.integers(1, KERNEL_P - 1)) for k in keys}


@st.composite
def quotient_rings(draw, nvars):
    """F_31[x_1..x_n] modulo 0-2 random sparse forms of degree 2 or 3."""
    amb = PolyRing([f"x{i}" for i in range(nvars)], KERNEL_P)
    rels = []
    for _ in range(draw(st.integers(0, 2))):
        monos = monomials_of_degree(nvars, draw(st.integers(2, 3)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        rels.append(Poly(amb, {m: draw(st.integers(1, KERNEL_P - 1)) for m in chosen}))
    return QuotientRing(amb, rels)


class TestPackedColumnKernels:
    """The kernels that keep resolution columns packed, against tuple
    references: ``add_mul`` (acc + f * v, f read off a packed row as in
    unit elimination) against ``mono_mul`` and ``add_terms``, and the
    lifted ring basis against per-component normal forms in the ring."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_column_update_matches_tuples(self, data):
        order = data.draw(column_orders())
        acc = data.draw(column_vectors(order))
        v = data.draw(column_vectors(order))
        # f is row r of a packed column, as unit elimination reads it
        r = data.draw(st.integers(0, order.rank - 1))
        f = {m: c for (_pos, m), c in data.draw(column_vectors(order, 4)).items()}
        row = order.pack_vec({(r, m): c for m, c in f.items()}, KERNEL_P)
        shifts = [(order.term_shift(t), c) for t, c in row.items()]
        assert [s for s, _c in shifts] == [order.shift(m) for m in f]

        ref = dict(acc)
        for m, c in f.items():
            add_terms(ref, {(pos, mono_mul(mv, m)): k for (pos, mv), k in v.items()}, KERNEL_P, c)
        out = order.pack_vec(acc, KERNEL_P)
        add_mul(out, shifts, order.pack_vec(v, KERNEL_P), KERNEL_P)
        # the same packed ints (rank, degree field and exponents) in the
        # same dict order
        assert list(out.items()) == list(order.pack_vec(ref, KERNEL_P).items())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_lifted_ring_reduction_matches_components(self, data):
        order = data.draw(column_orders())
        ring = data.draw(quotient_rings(order.nvars))
        free = FreeModule(ring, [-d for d in order.gen_degrees])
        v = data.draw(column_vectors(free.order, 8))
        ref = {}
        for pos in range(free.rank):
            comp = {(0, m): c for (q, m), c in v.items() if q == pos}
            ref.update({(pos, m): c for (_z, m), c in ring.gb.normal_form(comp).items()})
        out = free.ring_reduce(free.order.pack_vec(v, KERNEL_P))
        assert out == free.order.pack_vec(ref, KERNEL_P)
        # descending order: the smallest int first
        assert list(out) == sorted(out)
        assert ring_reduce_vec(ring, v) == ref
        # the lift is the adjunction: each ring relation times each generator
        assert free.ring_adjunction() == [
            {(i, m): c for (_z, m), c in g.items()}
            for g in ring.gb.vectors for i in range(free.rank)
        ]


class TestPackedLimit:
    """A degree past the packed fields is an InputError where a term enters
    the kernel and where an S-pair would form, never a wrapped exponent."""

    def test_terms_past_the_limit_are_refused(self):
        ring = QuotientRing.from_strings(["x", "y"], ["x^2"], 101)
        y = ring.parse("y")
        assert ring.normal_form(y ** MAX_DEGREE) == y ** MAX_DEGREE
        with pytest.raises(InputError, match="limit"):
            ring.normal_form(y ** (MAX_DEGREE + 1))
        # in a module the limit counts from the lowest generator degree
        order = ModuleOrder((0, 5), 2)
        assert len(buchberger([{(1, (MAX_DEGREE - 5, 0)): 1}], order, 101)) == 1
        with pytest.raises(InputError, match="limit"):
            buchberger([{(1, (MAX_DEGREE - 4, 0)): 1}], order, 101)

    def test_inhomogeneous_generator_is_refused(self):
        order = ModuleOrder((0,), 2)
        with pytest.raises(InputError, match="not homogeneous"):
            buchberger([{(0, (2, 0)): 1, (0, (0, 1)): 1}], order, 101)

    def test_s_pair_past_the_limit_is_refused(self):
        order = ModuleOrder((0,), 2)
        e = 2 * MAX_DEGREE // 3  # each generator fits, their lcm does not
        with pytest.raises(InputError, match="S-pair of degree 43688"):
            buchberger([{(0, (e, 1)): 1}, {(0, (1, e)): 1}], order, 101)
        # the product criterion skips a coprime pair before any S-vector
        gb = buchberger([{(0, (e, 0)): 1}, {(0, (0, e)): 1}], order, 101)
        assert gb.lts == [(0, (e, 0)), (0, (0, e))]


class TestCoefficientsZeroModP:
    """A tuple-keyed vector enters the kernel with its coefficients reduced
    mod p and its zero terms dropped: a multiple of p is zero."""

    P = 7
    order = ModuleOrder((0,), 2)

    def basis(self):
        return buchberger([{(0, (1, 0)): 1}], self.order, self.P)

    def ring(self):
        return QuotientRing.from_strings(["x", "y"], ["x"], self.P)

    def test_generator_that_is_zero_mod_p(self):
        gb = buchberger([{(0, (1, 0)): 7}], self.order, self.P)
        assert len(gb) == 0
        gb = buchberger([{(0, (1, 0)): 7}, {(0, (0, 1)): 9}], self.order, self.P)
        assert gb.vectors == [{(0, (0, 1)): 1}]

    def test_zero_coefficient_reduces_to_zero(self):
        assert self.basis().reduces_to_zero({(0, (0, 1)): 0})

    def test_normal_form_reduces_coefficients(self):
        assert self.basis().normal_form({(0, (0, 1)): 8}) == {(0, (0, 1)): 1}
        assert self.basis().normal_form({(0, (1, 1)): 3, (0, (0, 2)): -1}) == {(0, (0, 2)): 6}

    def test_ring_reduction_of_a_multiple_of_p(self):
        assert ring_reduce_vec(self.ring(), {(0, (0, 1)): 14}) == {}
        assert ring_reduce_vec(self.ring(), {(1, (0, 1)): 15}) == {(1, (0, 1)): 1}

    def test_map_with_a_multiple_of_p_is_zero_over_the_ring(self):
        ring = QuotientRing.from_strings(["x", "y"], ["x^2"], self.P)
        F = FreeModule(ring, (0,))
        G = FreeModule(ring, (-1,))
        assert FreeMap(G, F, [{(0, (1, 0)): 7}]).is_zero_over_ring()
        assert not FreeMap(G, F, [{(0, (1, 0)): 8}]).is_zero_over_ring()


class TestHilbert:
    def test_frozen_component_basis(self):
        r = QuotientRing.from_strings(["x", "y", "z"], ["x^2", "y^2", "z^4"])
        assert r.hilbert_dim(4) == 3
        assert [str(m) for m in r.component_basis(4)] == [
            "x*y*z^2",
            "x*z^3",
            "y*z^3",
        ]

    def test_frozen_component_basis_two_vars(self):
        r = QuotientRing.from_strings(["x", "y"], ["x^2", "y^4"])
        assert [str(m) for m in r.component_basis(3)] == ["x*y^2", "y^3"]

    def test_corank_oracle_random_artinian(self):
        rng = random.Random(5)
        p = 101
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(8):
            rels = [
                ring.parse("x^2"), ring.parse("y^3"), ring.parse("z^3"),
            ]
            d = rng.randrange(2, 4)
            f = ring.zero()
            for m in monomials_of_degree(3, d):
                if rng.random() < 0.5:
                    f = f + ring.monomial(m, rng.randrange(1, p))
            if not f.is_zero():
                rels.append(f)
            q = QuotientRing(ring, rels)
            for t in range(7):
                monos = monomials_of_degree(3, t)
                index = {m: i for i, m in enumerate(monos)}
                rows = []
                for g in rels:
                    dg = g.degree()
                    if dg > t:
                        continue
                    for shift in monomials_of_degree(3, t - dg):
                        row = [0] * len(monos)
                        for m, c in g.terms.items():
                            me = tuple(a + b for a, b in zip(m, shift))
                            row[index[me]] = c
                        rows.append(row)
                expected = len(monos) - (gauss_rank_mod_p(rows, p) if rows else 0)
                assert q.hilbert_dim(t) == expected

    def test_pure_power_numerator_product_formula(self):
        r = QuotientRing.from_strings(["x", "y", "z"], ["x^2", "y^2", "z^4"])
        # numerator = (1 - t^2)^2 (1 - t^4)
        expect = {0: 1}
        for a in (2, 2, 4):
            nxt = {}
            for d, c in expect.items():
                nxt[d] = nxt.get(d, 0) + c
                nxt[d + a] = nxt.get(d + a, 0) - c
            expect = {d: c for d, c in nxt.items() if c}
        assert r.hilbert_numerator == expect

    def test_hilbert_function_and_top_degree(self):
        r = QuotientRing.from_strings(["x", "y", "z"], ["x^2", "y^2", "z^4"])
        hf = r.hilbert_function()
        # (1 + t)(1 + t)(1 + t + t^2 + t^3) expanded
        expect = {}
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1, 2, 3):
                    expect[i + j + k] = expect.get(i + j + k, 0) + 1
        assert hf == expect
        assert r.top_degree() == 5
        total = sum(hf.values())
        assert total == 16

    def test_numerator_matches_enumeration_random(self):
        rng = random.Random(6)
        ring = PolyRing(["x", "y"], 101)
        for _ in range(10):
            rels = []
            for _g in range(rng.randrange(1, 4)):
                d = rng.randrange(1, 5)
                f = ring.zero()
                for m in monomials_of_degree(2, d):
                    if rng.random() < 0.5:
                        f = f + ring.monomial(m, rng.randrange(1, 101))
                if not f.is_zero():
                    rels.append(f)
            q = QuotientRing(ring, rels)
            hn = q.hilbert_numerator
            # expand hn / (1-t)^2 as a power series up to degree 8
            series = dict(hn)
            for _v in range(2):
                out = {}
                acc = 0
                for dd in range(9):
                    acc += series.get(dd, 0)
                    out[dd] = acc
                series = out
            for t in range(9):
                assert series.get(t, 0) == q.hilbert_dim(t)

    def test_positive_dimension_rejected_for_hilbert_function(self):
        r = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"])
        with pytest.raises(InputError):
            r.hilbert_function()


def subset_krull_dim(monos, nvars: int) -> int:
    """Oracle: Krull dimension of S/(monos) as the size of the largest
    variable set containing the support of no generator; -1 for the zero
    ring.  Enumerates all 2^nvars subsets, so small nvars only."""
    monos = minimalize_monomials(monos)
    if any(mono_deg(m) == 0 for m in monos):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monos]
    best = 0
    for mask in range(1 << nvars):
        u = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(u) > best and all(not s <= u for s in supports):
            best = len(u)
    return best


class TestKrullDimension:
    def test_frozen_dimensions(self):
        assert QuotientRing.from_strings(
            ["x", "y", "z"], ["x^2", "y^2", "z^4"]
        ).krull_dimension == 0
        assert QuotientRing.from_strings(
            ["x", "y", "z"], ["x^4+y^4+z^4"]
        ).krull_dimension == 2
        assert QuotientRing.polynomial_ring(["x", "y"]).krull_dimension == 2
        assert QuotientRing.from_strings(
            ["x", "y", "z"], ["x*y"]
        ).krull_dimension == 2

    def test_matches_subset_oracle_random(self):
        # seeded random homogeneous ideals in 1..5 variables: the dimension
        # read off the numerator equals the largest set of variables that
        # contains the support of no leading monomial
        rng = random.Random(11)
        p = 101
        for trial in range(300):
            nv = 1 + trial % 5
            amb = PolyRing([f"x{i}" for i in range(nv)], p)
            rels = []
            for _ in range(rng.randrange(0, nv + 1)):
                monos = monomials_of_degree(nv, rng.randrange(1, 4))
                f = amb.zero()
                for m in rng.sample(monos, min(len(monos), rng.randrange(1, 4))):
                    f = f + amb.monomial(m, rng.randrange(1, p))
                rels.append(f)
            ring = QuotientRing(amb, rels)
            lts = [m for (_pos, m) in ring.gb.lts]
            assert ring.krull_dimension == subset_krull_dim(lts, nv), rels


class TestSeriesHelpers:
    def test_exact_division(self):
        # (1 - t^2)^2 / (1 - t) = (1 - t)(1 + t)^2
        f = {0: 1, 2: -2, 4: 1}
        q = divide_by_one_minus_t(f)
        assert q == {0: 1, 1: 1, 2: -1, 3: -1}

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            divide_by_one_minus_t({0: 1})

    def test_module_numerator_with_shifts(self):
        # F = R(-1) (+) R over F_p[x]: numerator t + 1
        hn = module_numerator([], (1, 0), 1)
        assert hn == {0: 1, 1: 1}
        assert strip_one_minus_t({0: 1, 1: -1}, 1) == (1, {0: 1})

    def test_strip_stops_at_the_first_inexact_division(self):
        # (1 - t)(1 + t^2) over 3 variables: one exact division, then none
        assert strip_one_minus_t({0: 1, 1: -1, 2: 1, 3: -1}, 3) == (1, {0: 1, 2: 1})
        assert strip_one_minus_t({}, 2) == (2, {})


# ------------------------------------------------- coefficient kernels

KERNEL_SETTINGS = settings(max_examples=100, deadline=None)
# few keys and a small prime, so that sums cancel often
KERNEL_KEYS = st.one_of(
    st.integers(0, 3), st.tuples(st.integers(0, 1), st.tuples(st.integers(0, 1)))
)


def sparse(keys, values):
    return st.dictionaries(keys, values, max_size=6)


class TestCoefficientKernels:
    @KERNEL_SETTINGS
    @given(
        start=sparse(KERNEL_KEYS, st.integers(1, 4)),
        steps=st.lists(
            st.tuples(sparse(KERNEL_KEYS, st.integers(-6, 6)), st.integers(-6, 6)),
            max_size=5,
        ),
    )
    def test_add_terms_matches_the_reference(self, start, steps):
        p = 5
        out, ref = dict(start), dict(start)
        for terms, c in steps:
            add_terms(out, terms, p, c)
            ref = vec_add(ref, {t: c * k for t, k in terms.items()}, p)
            assert list(out.items()) == list(ref.items())

    def test_add_terms_puts_a_cancelled_key_back_at_the_end(self):
        p = 7
        out = {"a": 1, "b": 2, "c": 3}
        add_terms(out, {"a": 6, "b": 1}, p)
        assert list(out.items()) == [("b", 3), ("c", 3)]
        add_terms(out, {"b": 1}, p, -3)
        assert out == {"c": 3}
        add_terms(out, {"d": 1, "a": 2, "c": 1}, p, 2)
        assert list(out.items()) == [("c", 5), ("d", 2), ("a", 4)]

    @KERNEL_SETTINGS
    @given(
        start=sparse(st.integers(0, 6), st.integers(-3, 3).filter(bool)),
        f=sparse(st.integers(0, 6), st.integers(-3, 3).filter(bool)),
        shift=st.integers(0, 4),
        c=st.integers(-3, 3),
    )
    def test_series_add_matches_a_dense_reference(self, start, f, shift, c):
        dense = [start.get(d, 0) for d in range(11)]
        for d, k in f.items():
            dense[d + shift] += c * k
        out = dict(start)
        series_add(out, f, shift, c)
        assert out == {d: k for d, k in enumerate(dense) if k}
        kept = [d for d in start if d in out]
        new = [d + shift for d in f if d + shift not in start and d + shift in out]
        assert list(out) == kept + new


# ------------------------------------------------- Macaulay-matrix oracle


@st.composite
def homogeneous_ideals(draw):
    """Rings F_31[x0..x(n-1)]/I, n = 2..4, I by 1-3 nonzero homogeneous
    generators of degree 1-3."""
    nv = draw(st.integers(2, 4))
    amb = PolyRing([f"x{i}" for i in range(nv)], 31)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(nv, draw(st.integers(1, 3)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(1, 30), min_size=len(chosen), max_size=len(chosen)))
        gens.append(Poly(amb, dict(zip(chosen, coeffs))))
    return QuotientRing(amb, gens)


def macaulay_dim(ring, t):
    """dim_k (S/I)_t as the number of degree-t monomials minus the rank of
    the degree-t Macaulay matrix: rows m*g over generators g of I and
    monomials m of degree t - deg g, columns the degree-t monomials."""
    nv, p = ring.nvars, ring.p
    cols = {m: j for j, m in enumerate(monomials_of_degree(nv, t))}
    rows = []
    for g in ring.relations:
        for m in monomials_of_degree(nv, t - g.degree()):
            row = [0] * len(cols)
            for e, c in g.terms.items():
                row[cols[mono_mul(m, e)]] = c
            rows.append(row)
    r = mat_rank(np.array(rows, dtype=np.int64), p) if rows else 0
    return len(cols) - r


class TestMacaulayOracle:
    @settings(max_examples=60, deadline=None)
    @given(ring=homogeneous_ideals())
    def test_hilbert_function_matches_macaulay_ranks(self, ring):
        n = ring.nvars
        hn = ring.hilbert_numerator
        for t in range(7):
            from_series = sum(
                h * comb(t - k + n - 1, n - 1) for k, h in hn.items() if k <= t
            )
            assert ring.hilbert_dim(t) == from_series == macaulay_dim(ring, t)
