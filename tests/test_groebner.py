"""Groebner bases, syzygies, and staircase numerics, checked against frozen
hand-derived values and an independent dense linear-algebra oracle."""

import random
from math import comb, inf
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from oracles import (
    is_minimal,
    leading_terms,
    mono_deg,
    mono_divides,
    monomials_of_degree,
    polynomial_ring,
)

from cmwild import groebner
from cmwild.errors import InputError
from cmwild.groebner import (
    MAX_DEGREE,
    BuchbergerRun,
    GroebnerBasis,
    ModuleOrder,
    TaggedBasis,
    _make_monic,
    _reduce,
    add_mul,
    buchberger,
    divide_by_one_minus_t,
    minimal_generators,
    module_numerator,
    series_add,
    standard_terms,
    strip_one_minus_t,
)
from cmwild.matalg import rank as mat_rank
from cmwild.modules import FreeMap, FreeModule, ModulePresentation
from cmwild.poly import Poly, PolyRing, add_terms, grevlex_key, mono_mul
from cmwild.rings import QuotientRing
from cmwild.wildness import verify_regular_element


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


def vec_mono_shift(v, shift, c, p):
    """c * x^shift * v on tuple-keyed vectors: the reference for shifts by
    packed ints."""
    c %= p
    if c == 0:
        return {}
    return {(pos, mono_mul(m, shift)): k * c % p for (pos, m), k in v.items()}


def tuple_apply(columns, v, p):
    """The image of the tuple-keyed vector v under the map with the given
    tuple-keyed columns: the reference for ``FreeMap.apply``."""
    out = {}
    for (j, m), c in v.items():
        add_terms(out, vec_mono_shift(columns[j], m, c, p), p)
    return out


def tuple_degree(v, gen_degrees):
    """Uniform degree of a homogeneous tuple-keyed vector, None for zero."""
    degs = {mono_deg(m) + gen_degrees[pos] for (pos, m) in v}
    assert len(degs) <= 1
    return degs.pop() if degs else None


def tuple_normal_form(basis, v):
    """The normal form of the tuple-keyed v, tuple-keyed: ``normal_form``
    between ``pack_vec`` and ``unpack_vec``."""
    order = basis.order
    return order.unpack_vec(basis.normal_form(order.pack_vec(v, basis.p)).items())


def generator_order(gens, base_order):
    """The free module whose position j is generator j of a tagged basis."""
    return ModuleOrder([tuple_degree(g, base_order.gen_degrees) for g in gens], base_order.nvars)


def syzygy_generators(tb, gens, base_order):
    """The tagged basis's syzygies of ``gens``, tuple-keyed over positions
    0..len(gens)-1."""
    order = generator_order(gens, base_order)
    return [order.unpack_vec(s.items()) for s in tb.syzygies(order, len(gens))]


def coordinates(tb, gens, base_order, v, p):
    """Coordinates of the tuple-keyed v over ``gens``, tuple-keyed, or None."""
    order = generator_order(gens, base_order)
    w = tb.solve(base_order.pack_vec(v, p), order, len(gens))
    return None if w is None else order.unpack_vec(w.items())


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
            vecs, lts = gb.vectors, leading_terms(gb)
            p = 101
            for i in range(len(vecs)):
                for j in range(i):
                    (pi, mi), (pj, mj) = lts[i], lts[j]
                    assert pi == pj == 0
                    lcm = tuple(max(a, b) for a, b in zip(mi, mj))
                    s = vec_add(
                        vec_mono_shift(vecs[i], tuple(l - a for l, a in zip(lcm, mi)), 1, p),
                        vec_mono_shift(vecs[j], tuple(l - a for l, a in zip(lcm, mj)), p - 1, p),
                        p,
                    )
                    assert not tuple_normal_form(gb, s)
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

    @pytest.mark.parametrize("gen_degrees", [(0,), (0, 1)])
    def test_monomial_generators_form_no_s_vector(self, gen_degrees):
        # (x0..x3)^5 in each position: every pair of two monomials has a
        # zero S-vector, so the run reduces none and the basis is the input
        order = ModuleOrder(gen_degrees, 4)
        gens = [
            {(pos, m): 1}
            for pos in range(len(gen_degrees))
            for m in monomials_of_degree(4, 5)
        ]
        run = BuchbergerRun(order, 101)
        run.add(gens)
        with patch.object(groebner, "_reduce", side_effect=AssertionError("an S-vector was reduced")):
            run.advance()
        assert sorted(map(list, run.basis().vectors)) == sorted(map(list, gens))


class TestModuleBasesAndSyzygies:
    def test_koszul_syzygy_of_two_squares(self):
        # syzygies of (x^2, y^2) over F_p[x, y]: generated by (y^2, -x^2)
        ring = PolyRing(["x", "y"])
        p = ring.p
        order = ModuleOrder((0,), 2)
        gens = [{(0, (2, 0)): 1}, {(0, (0, 2)): 1}]
        tb = TaggedBasis(gens, order, p)
        syz = syzygy_generators(tb, gens, order)
        assert syz == [{(0, (0, 2)): 1, (1, (2, 0)): p - 1}]

    def test_minimal_generators_keep_the_highest_indices_per_degree(self):
        p = 101
        order = ModuleOrder((0,), 2)
        x, y, xy = {(0, (1, 0)): 1}, {(0, (0, 1)): 1}, {(0, (1, 1)): 1}
        x_plus_y = {(0, (1, 0)): 1, (0, (0, 1)): 1}
        gens = [order.pack_vec(g, p) for g in (x, xy, y, x_plus_y)]
        # x*y lies in (x); of x, y, x + y the last two span degree 1
        assert minimal_generators(gens, order, p) == [2, 3]
        # modulo (x*y, y^2), y is still needed but x*y is not
        base = buchberger([order.pack_vec(xy, p), order.pack_vec({(0, (0, 2)): 1}, p)], order, p)
        assert minimal_generators(gens[:3], order, p, base=base) == [0, 2]
        assert minimal_generators([gens[1]], order, p, base=base) == []

    def test_product_criterion_not_applied_to_modules(self):
        # u = x*e1 + y*e2, v = y*e1 + x*e2: (y^2 - x^2)*e2 lies in the span
        # and must be detected, which fails if coprime S-pairs are skipped
        ring = PolyRing(["x", "y"], 101)
        order = ModuleOrder((1, 1), 2)
        u = {(0, (1, 0)): 1, (1, (0, 1)): 1}
        v = {(0, (0, 1)): 1, (1, (1, 0)): 1}
        gb = buchberger([u, v], order, 101)
        w = {(1, (0, 2)): 1, (1, (2, 0)): 100}
        assert not tuple_normal_form(gb, w)

    def test_tagged_coordinates_solve_membership(self):
        ring = PolyRing(["x", "y"], 101)
        order = ModuleOrder((0,), 2)
        gens = [{(0, (2, 0)): 1}, {(0, (0, 2)): 1}]  # x^2, y^2
        tb = TaggedBasis(gens, order, 101)
        # x^3 + x*y^2 = x * x^2 + x * y^2
        target = {(0, (3, 0)): 1, (0, (1, 2)): 1}
        p = 101
        coords = coordinates(tb, gens, order, target, p)
        assert coords is not None
        rebuilt = {}
        for (idx, m), c in coords.items():
            rebuilt = vec_add(rebuilt, vec_mono_shift(gens[idx], m, c, p), p)
        assert rebuilt == target
        assert coordinates(tb, gens, order, {(0, (1, 0)): 1}, p) is None

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
            for s in syzygy_generators(tb, gens, order):
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
            lts = leading_terms(gb)
            for i, (v, lt) in enumerate(zip(gb.vectors, lts)):
                assert lt == max(v, key=order.key)
                assert v[lt] == 1
                for pos, m in v:
                    divisors = [
                        j for j, (lpos, lm) in enumerate(lts)
                        if lpos == pos and mono_divides(lm, m)
                    ]
                    assert divisors == ([i] if (pos, m) == lt else [])
            shuffled = list(gens)
            rng.shuffle(shuffled)
            again = buchberger(shuffled, order, p)
            assert again.vectors == gb.vectors
            assert leading_terms(again) == lts


def rescan_normal_form(v, basis):
    """Reference reduction loop: find the leading term of the working vector
    by scanning all of it on every step, and take the first basis element,
    by index, whose leading term divides it."""
    key = basis.order.key
    p = basis.p
    lts = leading_terms(basis)
    work = dict(v)
    out = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        pos, m = t
        hit = next(
            (i for i, (lpos, lm) in enumerate(lts)
             if lpos == pos and mono_divides(lm, m)),
            None,
        )
        if hit is None:
            out[t] = c
            continue
        shift = tuple(a - b for a, b in zip(m, lts[hit][1]))
        for (gpos, gm), gc in basis.vectors[hit].items():
            if (gpos, gm) == lts[hit]:
                continue
            t2 = (gpos, tuple(a + b for a, b in zip(gm, shift)))
            c2 = (work.get(t2, 0) - c * gc) % p
            if c2:
                work[t2] = c2
            elif t2 in work:
                del work[t2]
    return out


class TestNormalFormOracle:
    """The heap-ordered ``normal_form`` against the rescan loop, compared
    as ordered dicts: same terms, same coefficients, same term order."""

    @staticmethod
    def check(basis, vectors):
        for v in vectors:
            got = tuple_normal_form(basis, v)
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
        assert leading_terms(gb) == [(0, (2, 0)), (0, (1, 1)), (0, (0, 3))]
        v = {(0, (2, 0)): 1, (0, (1, 1)): 1, (0, (0, 2)): 1}
        assert tuple_normal_form(gb, v) == {(0, (0, 2)): 1}
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
    return [list(v.items()) for v in gb.vectors], leading_terms(gb)


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
        # as in find_regular_sequence's slot walk, run when the recipe is
        # not a regular sequence: each stage extends the one before; with
        # ``eager`` off, only the last stage's basis is asked for, as when
        # verify_regular_element checks a whole sequence or the recipe
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
        # stage i is N/(y_1..y_i)N over R, each y_i times every generator
        stage = ModulePresentation(ring, gen_degrees, rels)
        for y in seq:
            stage.gb
            stage = stage.quotient(along(y, len(gen_degrees)))
        all_rels = rels + [v for y in seq for v in along(y, len(gen_degrees))]
        fresh = ModulePresentation(ring, gen_degrees, all_rels)
        assert listing(stage.gb) == listing(fresh.gb)
        # stage i is N presented over R/(y_1..y_i); the walk, the chain
        # above and the one-shot reduction of FamilySpec.reduced_syzygy
        # reach the same basis
        walked = ModulePresentation(ring, gen_degrees, rels)
        for y in seq:
            walked.gb
            walked = walked.reduce_mod([y])
        assert walked.ring == ring.extend(seq)
        one_shot = ModulePresentation(ring, gen_degrees, rels).reduce_mod(seq)
        assert listing(walked.gb) == listing(stage.gb) == listing(one_shot.gb)
        # as in verify_shift_embedding: reduce mod the sequence, then
        # divide by more relations
        extra = data.draw(homogeneous_vectors(gen_degrees, 1, 2))
        grown = ModulePresentation(ring, gen_degrees, rels).reduce_mod(seq).quotient(extra)
        fresh = ModulePresentation(QuotientRing(amb, ring.relations + tuple(seq)),
                                   gen_degrees, rels + extra)
        assert listing(grown.gb) == listing(fresh.gb)

    @pytest.mark.parametrize("rank", sorted(GROW_RANKS))
    @GROW_SETTINGS
    @given(data=st.data())
    def test_presentation_basis_grows_the_lifted_ring_basis(self, rank, data):
        # a presentation's basis starts from its free module's lifted ring
        # basis; rebuilt without a base it must come out the same
        gen_degrees = GROW_RANKS[rank]
        amb = PolyRing(["x", "y", "z"], GROW_P)
        ring = QuotientRing(amb, polys_from(amb, data.draw(homogeneous_vectors((0,), 0, 2))))
        pres = ModulePresentation(ring, gen_degrees, data.draw(homogeneous_vectors(gen_degrees, 0, 3)))
        free = pres.free
        rebuilt = buchberger(list(pres.relations) + free.ring_basis.vectors, free.order, GROW_P)
        assert listing(pres.gb) == listing(rebuilt)


# ------------------------------------------------- resumed runs

RUN_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def run_orders(draw):
    """(order, p): rank 1-3 with generator degrees 0-2, 2-4 variables."""
    nvars = draw(st.integers(2, 4))
    gen_degrees = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    return ModuleOrder(gen_degrees, nvars), draw(st.sampled_from((2, 3, 32003)))


@st.composite
def run_vectors(draw, order, p, min_count, max_count):
    """Nonzero homogeneous tuple-keyed vectors of the free module of
    ``order``, each of degree 1 or 2 above its lowest generator degree,
    with at most four terms."""
    low = min(order.gen_degrees)
    out = []
    for _ in range(draw(st.integers(min_count, max_count))):
        deg = low + draw(st.integers(1, 2))
        terms = [
            (pos, m)
            for pos, gd in enumerate(order.gen_degrees)
            if gd <= deg
            for m in monomials_of_degree(order.nvars, deg - gd)
        ]
        chosen = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=4, unique=True))
        out.append({t: draw(st.integers(1, p - 1)) for t in chosen})
    return out


def tuple_vec_degree(order, v):
    pos, m = next(iter(v))
    return sum(m) + order.gen_degrees[pos]


def through(gb, t):
    """The listing of the elements of degree at most t."""
    vectors, lts = listing(gb)
    keep = [sum(m) + gb.order.gen_degrees[pos] <= t for pos, m in lts]
    return (
        [v for v, k in zip(vectors, keep) if k],
        [lt for lt, k in zip(lts, keep) if k],
    )


def rebuilt_minimal_generators(gens, order, p, base=None):
    """``minimal_generators`` as it was first written: for each degree j,
    a fresh basis of ``base`` and the generators kept below j, cut at j."""
    degree = [order.term_degree(min(g)) for g in gens]
    kept: list = []
    for j in sorted(set(degree)):
        gb = buchberger([gens[i] for i in kept], order, p, base=base, bound=j)
        for i in reversed(range(len(gens))):
            if degree[i] == j:
                r = _reduce(dict(gens[i]), gb)
                if r:
                    gb._add(*_make_monic(r, p))
                    kept.append(i)
    return sorted(kept)


class TestResumedRuns:
    """A run stopped after each of some degrees, with generators added
    between the stops, ends at the same reduced basis as one call of
    ``buchberger``, and after each stop its part through that degree is
    the cut basis of what it was given so far.  The cut basis in turn is
    the part of the full reduced basis through the cut."""

    @RUN_SETTINGS
    @given(data=st.data())
    def test_resumed_run_equals_one_shot(self, data):
        order, p = data.draw(run_orders())
        gens = data.draw(run_vectors(order, p, 1, 4))
        base = None
        if data.draw(st.booleans()):
            base = buchberger(data.draw(run_vectors(order, p, 0, 2)), order, p)
        low = min(order.gen_degrees)
        bound = data.draw(st.none() | st.integers(low, low + 4))
        stops = sorted(data.draw(st.sets(st.integers(low, low + 4), max_size=3)))
        # a generator joins before the first stop or after a stop below
        # its degree
        stage = []
        for g in gens:
            deg = tuple_vec_degree(order, g)
            stage.append(data.draw(st.sampled_from(
                [k for k in range(len(stops) + 1) if k == 0 or stops[k - 1] < deg]
            )))
        top = inf if bound is None else bound
        run = BuchbergerRun(order, p, base)
        added = []
        for k, t in enumerate(stops):
            now = [g for g, s in zip(gens, stage) if s == k]
            run.add(now)
            added += now
            cut = min(t, top)
            run.advance(cut)
            assert through(run.basis(), cut) == listing(
                buchberger(added, order, p, base=base, bound=cut)
            )
        run.add([g for g, s in zip(gens, stage) if s == len(stops)])
        run.advance(top)
        assert through(run.basis(), top) == listing(
            buchberger(gens, order, p, base=base, bound=bound)
        )

    @RUN_SETTINGS
    @given(data=st.data())
    def test_cut_basis_is_the_low_part_of_the_full_one(self, data):
        order, p = data.draw(run_orders())
        gens = data.draw(run_vectors(order, p, 1, 4))
        base = None
        if data.draw(st.booleans()):
            base = buchberger(data.draw(run_vectors(order, p, 0, 2)), order, p)
        full = buchberger(gens, order, p, base=base)
        low = min(order.gen_degrees)
        for b in range(low, low + 6):
            assert listing(buchberger(gens, order, p, base=base, bound=b)) == through(full, b)

    @RUN_SETTINGS
    @given(data=st.data())
    def test_minimal_generators_keep_what_the_rebuild_kept(self, data):
        order, p = data.draw(run_orders())
        gens = [order.pack_vec(v, p) for v in data.draw(run_vectors(order, p, 1, 5))]
        # dependent generators: monomial multiples and same-degree sums
        for _ in range(data.draw(st.integers(0, 3))):
            g = data.draw(st.sampled_from(gens))
            if data.draw(st.booleans()):
                m = data.draw(st.sampled_from(monomials_of_degree(order.nvars, 1)))
                gens.append({t + order.shift(m): c for t, c in g.items()})
            else:
                same = [h for h in gens if order.degree(h) == order.degree(g)]
                w = dict(g)
                add_terms(w, data.draw(st.sampled_from(same)), p)
                if w:
                    gens.append(w)
        gens = data.draw(st.permutations(gens))
        base = None
        if data.draw(st.booleans()):
            base = buchberger(data.draw(run_vectors(order, p, 0, 2)), order, p)
        want = rebuilt_minimal_generators(gens, order, p, base)
        with patch.object(groebner, "buchberger", side_effect=AssertionError("a basis was built")):
            assert minimal_generators(gens, order, p, base=base) == want


# ------------------------------------------------- the ring basis as a base

TAGGED_RINGS = [["x^3+y^3+z^3"], ["x^2*y+y*z^2+z^3"], ["x^2+y*z", "y^2+x*z"]]


@st.composite
def tagged_inputs(draw):
    """(free module, generators): a free module of rank 1-3 over a
    hypersurface (fixed or random) or the complete intersection
    (x^2+yz, y^2+xz) in 3 variables over F_31, and 1-3 homogeneous
    tuple-keyed generators, one of them maybe zero."""
    amb = PolyRing(["x", "y", "z"], GROW_P)
    rels = draw(st.one_of(
        st.sampled_from(TAGGED_RINGS).map(lambda strs: [amb.parse(s) for s in strs]),
        homogeneous_vectors((0,), 1, 1).map(lambda vs: polys_from(amb, vs)),
    ))
    gen_degrees = GROW_RANKS[draw(st.sampled_from(sorted(GROW_RANKS)))]
    free = FreeModule(QuotientRing(amb, rels), [-d for d in gen_degrees])
    gens = draw(homogeneous_vectors(gen_degrees, 1, 3))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), {})
    return free, gens


def tag_order(tb, count):
    """The free module whose position j is generator j of a tagged basis,
    in its tag degrees: a zero generator has the lowest real degree."""
    r = tb.real_rank
    return ModuleOrder(tb.order.gen_degrees[r : r + count], tb.order.nvars)


def ring_tagged(gens, free):
    """The tagged basis with the ring basis tagged like the generators:
    the construction an untagged ``base`` replaces, kept as its oracle."""
    return TaggedBasis(gens + free.ring_basis.packed(), free.order, GROW_P)


def span_vectors(rng, gens, free, degrees):
    """Random elements of the span of ``gens`` and the ring basis, one in
    each of the given degrees; tuple-keyed."""
    p, nvars = GROW_P, free.ring.nvars
    spanning = [g for g in gens if g] + free.ring_basis.vectors
    out = []
    for deg in degrees:
        v = {}
        for g in spanning:
            d = tuple_degree(g, free.gen_degrees)
            if d > deg:
                continue
            for m in monomials_of_degree(nvars, deg - d):
                if rng.random() < 0.3:
                    v = vec_add(v, vec_mono_shift(g, m, rng.randrange(1, p), p), p)
        out.append(v)
    return out


def items(vectors):
    """Packed vectors as (term, coefficient) lists, so that equality also
    compares the order of each dict."""
    return [list(v.items()) for v in vectors]


class TestUntaggedRingBase:
    """``TaggedBasis(gens, order, p, base=ring_basis)`` against the ring
    basis entered with tags of its own: dropping the ring-tag coordinates
    of the tagged construction gives the untagged one, so both list the
    same syzygies (the tagged one also lists the syzygies among ring
    relations, which project to zero) and solve to the same coordinates.
    A degree bound keeps the part of both up to the bound."""

    @GROW_SETTINGS
    @given(inputs=tagged_inputs(), seed=st.integers(0, 2**16))
    def test_untagged_base_matches_tagged_ring_basis(self, inputs, seed):
        free, gens = inputs
        rng = random.Random(seed)
        k = len(gens)
        new = TaggedBasis(gens, free.order, GROW_P, base=free.ring_basis)
        old = ring_tagged(gens, free)
        order = tag_order(new, k)
        assert items(new.syzygies(order, k)) == items(s for s in old.syzygies(order, k) if s)
        low = min(free.gen_degrees)
        for v in span_vectors(rng, gens, free, range(low + 1, low + 5)):
            got = new.solve(free.order.pack_vec(v, GROW_P), order, k)
            assert got is not None
            assert list(got.items()) == list(
                old.solve(free.order.pack_vec(v, GROW_P), order, k).items()
            )
        for _ in range(4):
            v = random_homogeneous_vec(rng, free.gen_degrees, 3, GROW_P, rng.randint(low, low + 4))
            got = new.solve(free.order.pack_vec(v, GROW_P), order, k)
            want = old.solve(free.order.pack_vec(v, GROW_P), order, k)
            assert (got is None) == (want is None)
            if got is not None:
                assert list(got.items()) == list(want.items())

    @GROW_SETTINGS
    @given(inputs=tagged_inputs(), data=st.data())
    def test_bounded_basis_is_the_unbounded_one_up_to_the_bound(self, inputs, data):
        free, gens = inputs
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        k = len(gens)
        full = TaggedBasis(gens, free.order, GROW_P, base=free.ring_basis)
        order = tag_order(full, k)
        bound = data.draw(st.integers(min(order.gen_degrees), max(order.gen_degrees) + 3))
        cut = TaggedBasis(gens, free.order, GROW_P, base=free.ring_basis, bound=bound)
        basis, basis_cut = full.gb.packed(), cut.gb.packed()
        assert items(basis_cut) == items(basis[: len(basis_cut)])
        assert all(full.order.degree(v) <= bound for v in basis_cut)
        assert all(full.order.degree(v) > bound for v in basis[len(basis_cut) :])
        syz, syz_cut = full.syzygies(order, k), cut.syzygies(order, k)
        assert items(syz_cut) == items(syz[: len(syz_cut)])
        assert all(order.degree(s) <= bound for s in syz_cut)
        assert all(order.degree(s) > bound for s in syz[len(syz_cut) :])
        low = min(free.gen_degrees)
        degrees = range(low + 1, bound + 1)
        vectors = span_vectors(rng, gens, free, degrees) + [
            random_homogeneous_vec(rng, free.gen_degrees, 3, GROW_P, d) for d in degrees
        ]
        for v in vectors:
            got = cut.solve(free.order.pack_vec(v, GROW_P), order, k)
            want = full.solve(free.order.pack_vec(v, GROW_P), order, k)
            assert (got is None) == (want is None)
            if got is not None:
                assert list(got.items()) == list(want.items())

    def test_zero_generator_bound_in_tag_degrees(self):
        # generators in degree 2 and 3 of a module generated in degree 2:
        # the zero generator's tag has degree 2, so its syzygy eps_0 is the
        # only one a bound of 2 keeps
        free = FreeModule(QuotientRing.from_strings(["x", "y", "z"], ["x^2+y*z"], GROW_P), [-2])
        gens = [{}, {(0, (1, 0, 0)): 1}]
        full = TaggedBasis(gens, free.order, GROW_P, base=free.ring_basis)
        cut = TaggedBasis(gens, free.order, GROW_P, base=free.ring_basis, bound=2)
        order = tag_order(full, 2)
        assert order.gen_degrees == (2, 3)
        syz = full.syzygies(order, 2)
        eps_0 = [(order.rank_bits[0] | order.const_term, 1)]
        assert items(cut.syzygies(order, 2)) == items(syz[:1]) == [eps_0]
        # x is a nonzerodivisor, so the other syzygy is the ring relation
        # x^2 + y z on the degree-3 generator
        assert [order.degree(s) for s in syz] == [2, 5]
        assert items(syz) == items(s for s in ring_tagged(gens, free).syzygies(order, 2) if s)


class TestPackedPresentations:
    """A presentation keeps its relations packed in its free module's
    order.  Built from packed or from tuple-keyed relations it is the same
    presentation, and its packed normal forms unpack to the tuple-keyed
    normal form of the former ``_normal_form``: ``unpack_vec`` of
    ``_reduce`` of ``pack_vec``."""

    @pytest.mark.parametrize("rank", sorted(GROW_RANKS))
    @GROW_SETTINGS
    @given(data=st.data())
    def test_packed_and_tuple_relations_agree(self, rank, data):
        gen_degrees = GROW_RANKS[rank]
        amb = PolyRing(["x", "y", "z"], GROW_P)
        ring = QuotientRing(amb, polys_from(amb, data.draw(homogeneous_vectors((0,), 0, 2))))
        rels = data.draw(homogeneous_vectors(gen_degrees, 0, 3))
        a = ModulePresentation(ring, gen_degrees, rels)
        order = a.free.order
        packed = [order.pack_vec(v, GROW_P) for v in rels]
        b = ModulePresentation(ring, gen_degrees, packed)
        assert a.relations == b.relations == tuple(rels)
        # packed relations are copied, not aliased
        assert all(x is not y for x, y in zip(b.packed, packed))
        assert [list(v.items()) for v in a.gb.packed()] == [
            list(v.items()) for v in b.gb.packed()
        ]
        assert a.hilbert_numerator == b.hilbert_numerator
        for v in data.draw(homogeneous_vectors(gen_degrees, 1, 3, max_excess=4)):
            old = order.unpack_vec(_reduce(order.pack_vec(v, GROW_P), a.gb).items())
            got = order.unpack_vec(a.gb.normal_form(order.pack_vec(v, GROW_P)).items())
            assert list(got.items()) == list(old.items())
            assert list(got.items()) == list(rescan_normal_form(v, a.gb).items())


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
        # a position where some term times x^q stays within the limit; pos
        # itself is one
        cpos = data.draw(st.sampled_from(
            [i for i in range(order.rank) if degree_limit(order, i) >= mono_deg(q)]
        ))
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
            ref.update({(pos, m): c for (_z, m), c in tuple_normal_form(ring.gb, comp).items()})
        out = free.ring_reduce(free.order.pack_vec(v, KERNEL_P))
        assert out == free.order.pack_vec(ref, KERNEL_P)
        # descending order: the smallest int first
        assert list(out) == sorted(out)
        assert tuple_normal_form(free.ring_basis, v) == ref
        # the lift is the adjunction: each ring relation times each generator
        assert free.ring_basis.vectors == [
            {(i, m): c for (_z, m), c in g.items()}
            for g in ring.gb.vectors for i in range(free.rank)
        ]


@st.composite
def free_modules(draw, ring, low):
    """A free module over ``ring`` of rank 1-3 with generator degrees in
    low..low+2."""
    degrees = draw(st.lists(st.integers(low, low + 2), min_size=1, max_size=3))
    return FreeModule(ring, [-d for d in degrees])


@st.composite
def map_columns(draw, source, target):
    """Homogeneous tuple-keyed columns of a graded map source -> target;
    some may be zero."""
    nvars = target.ring.nvars
    cols = []
    for d in source.gen_degrees:
        terms = [
            (pos, m)
            for pos, gd in enumerate(target.gen_degrees) if d >= gd
            for m in monomials_of_degree(nvars, d - gd)
        ]
        chosen = draw(st.lists(st.sampled_from(terms), max_size=4, unique=True)) if terms else []
        cols.append({t: draw(st.integers(1, KERNEL_P - 1)) for t in chosen})
    return cols


class TestFreeMapColumns:
    """``FreeMap`` keeps its columns packed in the target's order.  Its
    ``apply`` and ``compose`` run on ``add_mul``; the tuple formula
    (``tuple_apply``) is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_apply_and_compose_match_tuples(self, data):
        ring = data.draw(quotient_rings(data.draw(st.integers(1, 3))))
        E = data.draw(free_modules(ring, data.draw(st.integers(-1, 1))))
        F = data.draw(free_modules(ring, min(E.gen_degrees)))
        G = data.draw(free_modules(ring, min(F.gen_degrees)))
        f = FreeMap(F, E, data.draw(map_columns(F, E)))
        g = FreeMap(G, F, data.draw(map_columns(G, F)))
        v = data.draw(column_vectors(F.order))
        got = f.apply(F.order.pack_vec(v, KERNEL_P))
        assert E.order.unpack_vec(got.items()) == tuple_apply(f.columns, v, KERNEL_P)
        h = f.compose(g)
        assert (h.source, h.target) == (G, E)
        assert h.columns == [tuple_apply(f.columns, c, KERNEL_P) for c in g.columns]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_tuple_and_packed_columns_give_the_same_map(self, data):
        ring = data.draw(quotient_rings(data.draw(st.integers(1, 3))))
        E = data.draw(free_modules(ring, 0))
        F = data.draw(free_modules(ring, min(E.gen_degrees)))
        cols = data.draw(map_columns(F, E))
        packed = [E.order.pack_vec(c, KERNEL_P) for c in cols]
        a, b = FreeMap(F, E, cols), FreeMap(F, E, packed)
        assert [list(c.items()) for c in a.packed] == [list(c.items()) for c in b.packed]
        assert a.columns == b.columns == cols
        # a packed column is copied, not aliased
        assert all(x is not y for x, y in zip(b.packed, packed))

    def test_column_errors(self):
        ring = QuotientRing.from_strings(["x", "y"], ["x^2"], 101)
        F, G = FreeModule(ring, (0,)), FreeModule(ring, (-2,))
        uneven = {(0, (2, 0)): 1, (0, (0, 1)): 1}
        high = {(0, (1, 2)): 1}
        # tuple-keyed and packed columns
        for form in (dict, lambda v: F.order.pack_vec(v, 101)):
            with pytest.raises(InputError, match="vector is not homogeneous"):
                FreeMap(G, F, [form(uneven)])
            with pytest.raises(InputError, match="column 0 has degree 3, expected 2"):
                FreeMap(G, F, [form(high)])

    def test_malformed_terms_are_refused(self):
        # ``pack_vec`` is where tuple-keyed columns and relations enter
        ring = QuotientRing.from_strings(["x", "y"], ["x^2"], 101)
        F, G = FreeModule(ring, (0, 0)), FreeModule(ring, (-1,))
        cases = [
            ({(-1, (1, 0)): 1}, "relation position out of range"),
            ({(2, (1, 0)): 1}, "relation position out of range"),
            ({(0, (1,)): 1}, r"exponents \(1,\) are not 2 nonnegative integers"),
            ({(0, (1, 0, 0)): 1}, "are not 2 nonnegative integers"),
            ({(1, (2, -1)): 1}, "are not 2 nonnegative integers"),
        ]
        for v, message in cases:
            with pytest.raises(InputError, match=message):
                FreeMap(G, F, [v])
            with pytest.raises(InputError, match=message):
                ModulePresentation(ring, [0, 0], [{(0, (1, 0)): 1}, v])
        # a zero coefficient drops its term before any check
        assert ModulePresentation(ring, [0, 0], [{(2, (1, 0)): 101}]).relations == ()

    def test_is_minimal_sees_a_unit_entry(self):
        ring = QuotientRing.from_strings(["x", "y"], ["x^2"], 101)
        F, G = FreeModule(ring, (0, -1)), FreeModule(ring, (-1,))
        assert is_minimal(FreeMap(G, F, [{(0, (1, 0)): 1}]))
        assert not is_minimal(FreeMap(G, F, [{(0, (0, 1)): 1, (1, (0, 0)): 5}]))


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
        assert leading_terms(gb) == [(0, (e, 0)), (0, (0, e))]


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
        assert not tuple_normal_form(self.basis(), {(0, (0, 1)): 0})

    def test_normal_form_reduces_coefficients(self):
        assert tuple_normal_form(self.basis(), {(0, (0, 1)): 8}) == {(0, (0, 1)): 1}
        assert tuple_normal_form(self.basis(), {(0, (1, 1)): 3, (0, (0, 2)): -1}) == {
            (0, (0, 2)): 6
        }

    def test_ring_reduction_of_a_multiple_of_p(self):
        free = FreeModule(self.ring(), (0, 0))
        reduce = free.ring_reduce
        assert reduce(free.order.pack_vec({(0, (0, 1)): 14}, self.P)) == {}
        assert free.order.unpack_vec(
            reduce(free.order.pack_vec({(1, (0, 1)): 15}, self.P)).items()
        ) == {(1, (0, 1)): 1}

    def test_presentation_reduces_relation_coefficients(self):
        P = self.P
        pres = ModulePresentation(
            self.ring(), [0, 1], [{(0, (0, 1)): P + 1, (1, (0, 0)): 2 * P}, {(0, (1, 0)): -1}]
        )
        assert pres.relations == ({(0, (0, 1)): 1}, {(0, (1, 0)): P - 1})

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


def minimalize_monomials(monos) -> tuple:
    """Minimal generating set of the monomial ideal, sorted ascending."""
    out: list = []
    for m in sorted(set(monos), key=grevlex_key):
        if not any(mono_divides(o, m) for o in out):
            out.append(m)
    return tuple(out)


def monomial_ideal_numerator(monos, memo: dict | None = None) -> dict:
    """Oracle: numerator of the Hilbert series of S/(monos) over
    (1-t)^nvars, by the exponent-tuple recursion with pivot q:
    HN(I' + (q)) = HN(I') - t^deg(q) * HN(I' : q).  It recurses on the
    prefix, so its depth is the number of generators."""
    if memo is None:
        memo = {}

    def rec(ms: tuple) -> dict:
        cached = memo.get(ms)
        if cached is not None:
            return cached
        if not ms:
            res = {0: 1}
        elif any(mono_deg(m) == 0 for m in ms):
            res = {}
        elif len(ms) == 1:
            d = mono_deg(ms[0])
            res = {0: 1, d: -1}
        else:
            pivot = ms[-1]
            rest = ms[:-1]
            a = rec(rest)
            colon = minimalize_monomials(
                tuple(max(g - q, 0) for g, q in zip(gm, pivot)) for gm in rest
            )
            b = rec(colon)
            res = dict(a)
            series_add(res, b, mono_deg(pivot), -1)
        memo[ms] = res
        return res

    return rec(minimalize_monomials(monos))


def tuple_module_numerator(lts, gen_degrees) -> dict:
    """Oracle for ``module_numerator``: the tuple recursion per position on
    the leading terms (pos, exponent tuple), summed with generator-degree
    shifts and one memo."""
    by_pos: dict = {}
    for pos, m in lts:
        by_pos.setdefault(pos, []).append(m)
    memo: dict = {}
    total: dict = {}
    for pos, gd in enumerate(gen_degrees):
        series_add(total, monomial_ideal_numerator(tuple(by_pos.get(pos, ())), memo), gd)
    return total


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
        assert polynomial_ring(["x", "y"]).krull_dimension == 2
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
            lts = [m for (_pos, m) in leading_terms(ring.gb)]
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
        hn = module_numerator(GroebnerBasis(ModuleOrder((1, 0), 1), 101))
        assert hn == {0: 1, 1: 1}
        assert strip_one_minus_t({0: 1, 1: -1}, 1) == (1, {0: 1})

    def test_strip_stops_at_the_first_inexact_division(self):
        # (1 - t)(1 + t^2) over 3 variables: one exact division, then none
        assert strip_one_minus_t({0: 1, 1: -1, 2: 1, 3: -1}, 3) == (1, {0: 1, 2: 1})
        assert strip_one_minus_t({}, 2) == (2, {})


def series_through(hn: dict, nvars: int, low: int, top: int) -> list:
    """The coefficients of t^low..t^top in hn / (1 - t)^nvars, for hn
    with no degree below low."""
    out = [hn.get(d, 0) for d in range(low, top + 1)]
    for _ in range(nvars):
        for i in range(1, len(out)):
            out[i] += out[i - 1]
    return out


def staircase_terms(gb, t) -> list:
    """Oracle for ``standard_terms``: every (pos, m) of degree t, by
    position and then grevlex descending, that no leading term divides."""
    order = gb.order
    lts = leading_terms(gb)
    return [
        (pos, m)
        for pos, gd in enumerate(order.gen_degrees)
        for m in monomials_of_degree(order.nvars, t - gd)
        if not any(lpos == pos and mono_divides(lm, m) for lpos, lm in lts)
    ]


def packed_monomials(nvars: int, d: int) -> list:
    """The exponent bits of every degree-d monomial in ascending order,
    which is grevlex descending."""
    level = [(0, d)]  # (exponent bits so far, degree left)
    for i in range(nvars - 1, 0, -1):
        shift = groebner.FIELD_BITS * i
        level = [(v | e << shift, r - e) for v, r in level for e in range(r + 1)]
    return [v | r for v, r in level]


def enumerated_terms(gb, t) -> list:
    """Oracle for ``standard_terms`` on packed terms: every monomial of
    degree t per position, kept when no leading term of that position
    divides it."""
    order = gb.order
    out = []
    for pos, gd in enumerate(order.gen_degrees):
        if t < gd:
            continue
        rank = order.rank_of[pos]
        blockers = [lt & order.exp_mask for lt in gb._lts if lt >> order.rank_shift == rank]
        head = order.rank_bits[pos] | (MAX_DEGREE - t + gd) << order.deg_shift
        out.extend(
            head | e
            for e in packed_monomials(order.nvars, t - gd)
            if all((e - b) & order.guards for b in blockers)
        )
    return out


def monomial_basis(order, p, lts) -> GroebnerBasis:
    """A basis whose vectors are the given terms (pos, m), packed straight
    in without a Buchberger run."""
    gb = GroebnerBasis(order, p)
    for t in order.pack_vec(dict.fromkeys(lts, 1), p):
        gb._add(t, ())
    return gb


STAIRCASE_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def staircase_orders(draw, nvars=st.integers(1, 5)):
    """(order, p): rank 1-3 with generator degrees -1..2, 1-5 variables."""
    gen_degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3))
    return ModuleOrder(gen_degrees, draw(nvars)), draw(st.sampled_from((2, 3, 32003)))


class TestPackedStaircase:
    """The numerator and the standard terms read off packed leading terms
    agree with the exponent-tuple recursion, with each other and with a
    brute-force staircase."""

    def check_staircase(self, gb, brute_top=inf):
        """Every degree up to two past the numerator and the leading terms:
        the count against the series, and up to ``brute_top`` the terms
        themselves against both enumerations."""
        order = gb.order
        lts = leading_terms(gb)
        hn = module_numerator(gb)
        assert list(hn.items()) == list(tuple_module_numerator(lts, order.gen_degrees).items())
        low = min(order.gen_degrees)
        lt_top = max((sum(m) + order.gen_degrees[pos] for pos, m in lts), default=low)
        top = max([lt_top, *hn]) + 2
        series = series_through(hn, order.nvars, low, top)
        for t in range(low, top + 1):
            terms = standard_terms(gb, t)
            assert len(terms) == series[t - low]
            if t <= brute_top:
                assert terms == enumerated_terms(gb, t)
                assert list(order.unpack_vec((u, 1) for u in terms)) == staircase_terms(gb, t)

    @STAIRCASE_SETTINGS
    @given(data=st.data())
    def test_module_bases(self, data):
        order, p = data.draw(staircase_orders())
        gens = data.draw(run_vectors(order, p, 0, 4))
        self.check_staircase(buchberger(gens, order, p))

    @STAIRCASE_SETTINGS
    @given(data=st.data())
    def test_monomial_staircases(self, data):
        # leading terms drawn directly, not minimal: many generators, and
        # divisibility and colons the numerator has to sort out itself
        order, p = data.draw(staircase_orders())
        terms = [
            (pos, m)
            for pos in range(order.rank)
            for d in range(4)
            for m in monomials_of_degree(order.nvars, d)
        ]
        lts = data.draw(st.lists(st.sampled_from(terms), max_size=25, unique=True))
        self.check_staircase(monomial_basis(order, p, lts))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_linear_terms_and_pure_powers(self, data):
        # the shape of an Artinian reduction by variables and their powers:
        # many variables, and prefixes cut at every level of the walk; a few
        # products of two variables are cut at the lower one only.  The
        # enumerations are compared in the low degrees, where they are small
        order, p = data.draw(staircase_orders(st.integers(6, 10)))
        n = order.nvars
        exponent = st.sampled_from((None, None, 0, 1, 1, 2, 3, 4))
        lts = []
        for pos in range(order.rank):
            for i in range(n):
                k = data.draw(exponent)
                if k is not None:
                    lts.append((pos, (0,) * i + (k,) + (0,) * (n - i - 1)))
            for i, j in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), max_size=3)):
                lts.append((pos, tuple((k == i) + (k == j) for k in range(n))))
        self.check_staircase(monomial_basis(order, p, lts), brute_top=4)

    def test_power_of_the_maximal_ideal(self):
        # (x0..x4)^10 has 1001 generators: the numerator loops over its
        # pivots, where a recursion on the prefix (as in the tuple oracle)
        # raises RecursionError; the leading terms are packed straight in,
        # as a Buchberger run on them is slow
        lts = [(0, m) for m in monomials_of_degree(5, 10)]
        gb = monomial_basis(ModuleOrder((0,), 5), 32003, lts)
        assert len(gb) == 1001
        k, hf = strip_one_minus_t(module_numerator(gb), 5)
        assert k == 5
        assert hf == {t: comb(t + 4, 4) for t in range(10)}


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

    @settings(max_examples=60, deadline=None)
    @given(ring=homogeneous_ideals(), data=st.data())
    def test_regular_elements_match_macaulay_ranks(self, ring, data):
        """Multiplication by y of degree e gives, in each degree t,
        dim (S/(I+(y)))_t = dim (S/I)_t - dim (S/I)_{t-e} + dim (0 : y)_{t-e},
        so y is regular exactly when the excess over the first two terms
        vanishes in every degree."""
        e = data.draw(st.integers(1, 2))
        monos = monomials_of_degree(ring.nvars, e)
        chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = data.draw(st.lists(st.integers(1, 30), min_size=len(chosen), max_size=len(chosen)))
        y = Poly(ring.ambient, dict(zip(chosen, coeffs)))
        cut = QuotientRing(ring.ambient, ring.relations + (y,))
        dims = [macaulay_dim(ring, t) for t in range(9)]
        excess = [macaulay_dim(cut, t) - dims[t] + (dims[t - e] if t >= e else 0) for t in range(9)]
        assert min(excess) >= 0
        regular = verify_regular_element(ring, y) is not None
        event("regular" if regular else "not regular")
        if regular:
            assert not any(excess)
        else:
            # the first excess may lie past degree 8
            assume(any(excess))
