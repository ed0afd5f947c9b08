"""Koszul complexes, minimal resolutions, and comparison maps."""

from math import comb
from unittest.mock import patch

import pytest
from acm_rings import generic_minors
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import is_minimal, monomials_of_degree, polynomial_ring
from test_matalg import brute_rref
from test_resolution_pins import MEMBERS, SEQUENCES
from test_resolution_pins import ring as pin_ring

from cmwild import modules, resolution
from cmwild.errors import CmwildError, InputError
from cmwild.family import FamilySpec
from cmwild.groebner import GroebnerBasis, TaggedBasis, buchberger
from cmwild.modules import FreeModule, ModulePresentation
from cmwild.resolution import (
    comparison_map,
    koszul_complex,
    minimal_resolution,
)
from cmwild.poly import Poly, PolyRing, add_terms, mono_mul
from cmwild.rings import QuotientRing

P = 32003


def poly_ring_xy():
    return polynomial_ring(["x", "y"], P)


def fermat_quartic():
    return QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)


# ----------------------------------------------------------------- Koszul


def test_koszul_two_squares_shape():
    R = poly_ring_xy()
    f = R.parse("x^2")
    g = R.parse("y^2")
    K = koszul_complex(R, [f, g])
    assert [F.rank for F in K.frees] == [1, 2, 1]
    assert K.frees[0].twists == (0,)
    assert K.frees[1].twists == (-2, -2)
    assert K.frees[2].twists == (-4,)
    assert K.check_complex()
    assert K.minimal
    # d(e_{01}) = x^2 e_1 - y^2 e_0
    assert K.maps[2].columns[0] == {(1, (2, 0)): 1, (0, (0, 2)): P - 1}
    assert K.betti() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_koszul_betti_json():
    R = poly_ring_xy()
    K = koszul_complex(R, [R.parse("x^2"), R.parse("y^2")])
    assert K.betti_json() == {
        "betti": [
            {"i": 0, "j": 0, "rank": 1},
            {"i": 1, "j": 2, "rank": 2},
            {"i": 2, "j": 4, "rank": 1},
        ],
        "minimal": True,
    }


def test_koszul_two_copies_block_diagonal():
    R = poly_ring_xy()
    K = koszul_complex(R, [R.parse("x^2"), R.parse("y^2")], copies=2)
    assert [F.rank for F in K.frees] == [2, 4, 2]
    # copy-major columns: 0,1 hit generator 0; 2,3 hit generator 1
    assert K.maps[1].columns == [
        {(0, (2, 0)): 1},
        {(0, (0, 2)): 1},
        {(1, (2, 0)): 1},
        {(1, (0, 2)): 1},
    ]
    assert K.check_complex()


def test_koszul_three_variables_resolves_residue_field():
    R = polynomial_ring(["x", "y", "z"], P)
    gens = [R.parse(v) for v in ("x", "y", "z")]
    K = koszul_complex(R, gens)
    assert [F.rank for F in K.frees] == [1, 3, 3, 1]
    assert K.check_complex()
    # the cokernel of d_1 is the residue field
    assert K.syzygy_presentation(0).hilbert_function() == {0: 1}


def test_koszul_rejects_bad_input():
    R = poly_ring_xy()
    with pytest.raises(InputError):
        koszul_complex(R, [R.parse("x^2+y")])
    with pytest.raises(InputError):
        koszul_complex(R, [R.parse("x")], copies=0)
    with pytest.raises(InputError):
        koszul_complex(R, [R.parse("5")])


# ------------------------------------------------------ minimal resolutions


def test_regular_sequence_quotient_matches_koszul():
    R = fermat_quartic()
    pres = ModulePresentation(
        R, [0], [{(0, (2, 0, 0)): 1}, {(0, (0, 2, 0)): 1}]
    )
    res = minimal_resolution(pres, 4)
    # (x^2, y^2) is a regular sequence on R, so the resolution is Koszul
    assert res.terminated
    assert res.length == 2
    assert res.betti() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert res.check_complex()
    assert all(is_minimal(res.maps[i]) for i in res.maps)

    K = koszul_complex(R, [R.parse("x^2"), R.parse("y^2")])
    assert res.betti() == K.betti()


def test_resolution_is_exact_at_step_one():
    R = fermat_quartic()
    pres = ModulePresentation(
        R, [0], [{(0, (2, 0, 0)): 1}, {(0, (0, 2, 0)): 1}]
    )
    res = minimal_resolution(pres, 2)
    d1, d2 = res.maps[1], res.maps[2]
    F0, F1 = res.frees[0], res.frees[1]
    # ker(d1) is generated by the tagged syzygies of d1's columns; each must
    # lie in the span of d2's columns plus the ring adjunction
    tagged = TaggedBasis(d1.packed + F0.ring_basis.packed(), F0.order, P)
    span = buchberger(d2.packed + F1.ring_basis.packed(), F1.order, P)
    k = len(d1.packed)
    checked = 0
    for s in tagged.syzygies(F1.order, k):
        restr = F1.ring_reduce(s)
        if restr:
            assert not span.normal_form(restr)
            checked += 1
    assert checked >= 1


def test_unit_relation_is_eliminated():
    R = poly_ring_xy()
    # generator 1 equals x^2 * generator 0, so the module is free of rank 1
    pres = ModulePresentation(
        R, [0, 2], [{(1, (0, 0)): 1, (0, (2, 0)): P - 1}]
    )
    res = minimal_resolution(pres, 2)
    assert res.terminated
    assert res.length == 0
    assert res.frees[0].twists == (0,)
    assert res.betti() == {(0, 0): 1}
    assert res.syzygy_presentation(0).relations == ()


def test_unit_in_first_row_is_eliminated():
    R = poly_ring_xy()
    # the same module with the generators swapped: the unit is in row 0
    pres = ModulePresentation(
        R, [2, 0], [{(0, (0, 0)): 1, (1, (2, 0)): P - 1}]
    )
    res = minimal_resolution(pres, 2)
    assert res.terminated
    assert res.frees[0].twists == (0,)
    assert res.betti() == {(0, 0): 1}


def test_finite_projective_dimension_over_hypersurface():
    R = QuotientRing.from_strings(["x", "y"], ["x^4+y^4"], P)
    # x^2 is regular on R, so R/(x^2) has projective dimension 1
    pres = ModulePresentation(R, [0], [{(0, (2, 0)): 1}])
    res = minimal_resolution(pres, 5)
    assert res.terminated
    assert res.length == 1
    assert res.frees[1].twists == (-2,)
    assert res.betti() == {(0, 0): 1, (1, 2): 1}


@pytest.mark.parametrize("c", [3, 4, 5])
def test_eagon_northcott_resolves_generic_2_by_c_minors(c):
    # Eagon-Northcott (1962): S/I_2 of the generic 2 x c matrix has a linear
    # resolution of length c - 1 with beta_{i,i+1} = i*C(c, i+1), and its
    # Hilbert numerator over (1 - t)^(2c) is (1 + (c-1)t)(1 - t)^(c-1)
    variables, minors = generic_minors(c)
    S = polynomial_ring(variables, P)
    pres = ModulePresentation(
        S, [0], [{(0, m): a for m, a in S.parse(f).terms.items()} for f in minors]
    )
    res = minimal_resolution(pres, c - 1)
    assert res.terminated
    assert res.betti() == {
        (0, 0): 1, **{(i, i + 1): i * comb(c, i + 1) for i in range(1, c)}
    }
    numerator = {0: 1, 1: c - 1}
    for _ in range(c - 1):
        numerator = {
            k: numerator.get(k, 0) - numerator.get(k - 1, 0)
            for k in range(max(numerator) + 2)
        }
    assert pres.hilbert_numerator == {k: a for k, a in numerator.items() if a}


def test_family_member_resolution_shape():
    R = fermat_quartic()
    w = R.parse("x*y*z^2+x*z^3+2*y*z^3")
    pres = ModulePresentation(
        R,
        [0],
        [
            {(0, (2, 0, 0)): 1},
            {(0, (0, 2, 0)): 1},
            {(0, m): c for m, c in w.terms.items()},
        ],
    )
    res = minimal_resolution(pres, 3)
    assert res.frees[1].twists == (-2, -2, -4)
    assert res.check_complex()
    assert all(is_minimal(res.maps[i]) for i in res.maps)
    assert not res.terminated
    assert all(res.frees[i].rank > 0 for i in range(4))


def test_length_zero_keeps_relations():
    R = fermat_quartic()
    pres = ModulePresentation(R, [0], [{(0, (2, 0, 0)): 1}])
    res = minimal_resolution(pres, 0)
    assert res.length == 0
    assert res.maps == {}


def test_resolution_is_deterministic():
    R = fermat_quartic()
    rels = [
        {(0, (2, 0, 0)): 1},
        {(0, (0, 2, 0)): 1},
        {(0, (1, 1, 2)): 1, (0, (1, 0, 3)): 1, (0, (0, 1, 3)): 2},
    ]
    pres = ModulePresentation(R, [0], rels)
    r1 = minimal_resolution(pres, 3)
    r2 = minimal_resolution(pres, 3)
    assert [F.twists for F in r1.frees] == [F.twists for F in r2.frees]
    for i in r1.maps:
        assert r1.maps[i].columns == r2.maps[i].columns


# -------------------------------------------------------- the last step
#
# The last requested module F_length keeps a minimal generating set of the
# image of delta_length (``groebner.minimal_generators``), and
# ``terminated`` is the verdict of the Euler identity.  The oracle below
# prunes F_length by resolving one step further instead: the syzygies of
# delta_length up to the top generator degree of F_length, whose units
# ``_eliminate_units`` eliminates one level up.


def euler_verdicts(monkeypatch) -> list:
    """The verdicts of the Euler-identity checks that ``minimal_resolution``
    makes from now on, in order."""
    seen = []
    check = resolution._euler_identity_holds

    def spy(pres, frees):
        seen.append(check(pres, frees))
        return seen[-1]

    monkeypatch.setattr(resolution, "_euler_identity_holds", spy)
    return seen


def test_pruning_step_terminates_exactly_at_the_length(monkeypatch):
    R = QuotientRing.from_strings(["x", "y"], ["x^4+y^4"], P)
    # x^2 is regular on R, so F_1 = R(-2) is the last module; at length 1
    # only the identity tells it ends
    pres = ModulePresentation(R, [0], [{(0, (2, 0)): 1}])
    seen = euler_verdicts(monkeypatch)
    res = minimal_resolution(pres, 1)
    assert seen == [True]
    assert res.terminated
    assert res.betti() == {(0, 0): 1, (1, 2): 1}
    assert res.syzygy_presentation(1).relations == ()
    # resolved further, step 2 has no columns: no check needed
    assert minimal_resolution(pres, 3).terminated
    assert seen == [True]


def test_pruning_step_empty_below_the_bound_does_not_terminate(monkeypatch):
    binary = QuotientRing.from_strings(["x", "y"], ["x^4+y^4"], P)
    spec = FamilySpec(binary, ["x^2"], 3, [[1, 1], [0, 1]])
    top = spec.d + 1
    seen = euler_verdicts(monkeypatch)
    res = minimal_resolution(spec.over_ring, top)
    # no syzygy of F_top has degree <= 5, but syzygies exist
    assert max(res.frees[top].gen_degrees) == 5
    assert seen == [False]
    assert not res.terminated
    longer = minimal_resolution(spec.over_ring, top + 1)
    assert [f.twists for f in longer.frees[: top + 1]] == [f.twists for f in res.frees]
    assert longer.frees[top + 1].gen_degrees == (6, 6, 7, 7)


def keep_every_column(gens, *args, **kwargs):
    return list(range(len(gens)))


def prune_by_syzygies(pres, length):
    """(twists, columns, terminated) of ``minimal_resolution(pres,
    length)`` with the last module pruned by the step past it: the
    syzygies of delta_length cut at the top generator degree of F_length,
    ``_eliminate_units`` at level length + 1, and the Euler identity when
    no syzygy is left."""
    with patch.object(resolution, "minimal_generators", keep_every_column):
        res = minimal_resolution(pres, length)
    frees = list(res.frees)
    maps_cols = [[dict(c) for c in res.maps[i].packed] for i in sorted(res.maps)]
    terminated = res.terminated
    if res.length == length >= 1:
        target, source = frees[-2], frees[-1]
        cols = maps_cols[-1]
        tagged = TaggedBasis(
            cols, target.order, pres.ring.p, base=target.ring_basis,
            bound=max(source.gen_degrees),
        )
        syz = [s for s in map(source.ring_reduce, tagged.syzygies(source.order, len(cols))) if s]
        if syz:
            syz = resolution._eliminate_units(frees, maps_cols, syz)
        terminated = not syz and resolution._euler_identity_holds(pres, frees)
    columns = [[list(c.items()) for c in cols] for cols in maps_cols]
    return [f.twists for f in frees], columns, terminated


PRUNE_RINGS = [pin_ring(name) for name in sorted(SEQUENCES)] + [
    QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], 7)
]


@st.composite
def pin_ring_presentations(draw):
    """(presentation, length) over a pin ring or the Fermat quartic over
    F_7: rank 1-2, 1-3 relations of degree 1-3 with at most two terms per
    position, length 1-4."""
    ring = draw(st.sampled_from(PRUNE_RINGS))
    gen_degrees = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        degree = min(gen_degrees) + draw(st.integers(1, 3))
        vec = {}
        for pos, gd in enumerate(gen_degrees):
            monos = monomials_of_degree(ring.nvars, degree - gd)
            for m in draw(st.lists(st.sampled_from(monos), max_size=2, unique=True)):
                vec[(pos, m)] = draw(st.integers(1, ring.p - 1))
        relations.append(vec)
    return ModulePresentation(ring, gen_degrees, relations), draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pin_ring_presentations())
def test_minimal_generators_prune_as_the_step_past_the_length(case):
    pres, length = case
    res = minimal_resolution(pres, length)
    columns = [[list(c.items()) for c in res.maps[i].packed] for i in sorted(res.maps)]
    got = [f.twists for f in res.frees], columns, res.terminated
    assert got == prune_by_syzygies(pres, length)


def eliminate_units(frees, maps_cols, cols, reduce_first):
    """(twists, stored columns, returned columns) of ``_eliminate_units``
    on copies of its input, the candidates reduced modulo the ring first
    or not."""
    frees = list(frees)
    maps_cols = [[dict(c) for c in m] for m in maps_cols]
    cols = [dict(c) for c in cols]
    if reduce_first:
        cols = [c for c in map(frees[-1].ring_reduce, cols) if c]
    out = resolution._eliminate_units(frees, maps_cols, cols)
    items = lambda vs: [list(v.items()) for v in vs]
    return [f.twists for f in frees], [items(m) for m in maps_cols], items(out)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pin_ring_presentations())
def test_unit_elimination_reduces_its_own_input(case):
    # minimal_resolution hands over the relations and the tagged syzygies
    # unreduced; reducing them first must change nothing
    pres, _ = case
    F0 = pres.free
    got = eliminate_units([F0], [], pres.packed, False)
    assert got == eliminate_units([F0], [], pres.packed, True)
    frees, cols = [F0], [dict(c) for c in pres.packed]
    cols = resolution._eliminate_units(frees, [], cols)
    if cols:
        F0 = frees[0]
        F1 = FreeModule(pres.ring, [-F0.order.term_degree(min(c)) for c in cols])
        tagged = TaggedBasis(cols, F0.order, pres.ring.p, base=F0.ring_basis)
        syz = tagged.syzygies(F1.order, len(cols))
        got = eliminate_units([F0, F1], [cols], syz, False)
        assert got == eliminate_units([F0, F1], [cols], syz, True)


PIN_CASES = [("member", name) for name in sorted(MEMBERS)] + [
    ("sequence", name) for name in sorted(SEQUENCES)
]


@pytest.mark.parametrize("kind, name", PIN_CASES)
def test_euler_identity_closes_exactly_when_terminated(kind, name):
    if kind == "member":
        rname, seq, c, Ax, Ay = MEMBERS[name]
        spec = FamilySpec(pin_ring(rname), seq, c, Ax, Ay=Ay)
        pres, res = spec.over_ring, spec.resolution
    else:
        R = pin_ring(name)
        ys = [R.parse(s) for s in SEQUENCES[name]]
        pres = ModulePresentation(R, [0], [{(0, m): c for m, c in y.terms.items()} for y in ys])
        res = minimal_resolution(pres, len(ys))
    assert resolution._euler_identity_holds(pres, res.frees) == res.terminated


# -------------------------------------------------------- syzygy modules


def with_basis_numerator(pres):
    """The numerator of a fresh presentation with the same relations, read
    off its own basis."""
    fresh = ModulePresentation(pres.ring, pres.gen_degrees, pres.packed)
    numerator = fresh.hilbert_numerator
    assert fresh._gb is not None
    return numerator


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pin_ring_presentations())
def test_syzygy_numerators_match_their_bases(case):
    pres, length = case
    res = minimal_resolution(pres, length)
    # Omega^length is known only when delta_length is injective
    top = res.length if res.terminated else res.length - 1
    for i in range(top + 1):
        omega = res.syzygy_presentation(i)
        assert omega.hilbert_numerator == with_basis_numerator(omega)
        assert omega._gb is None


def test_syzygy_presentation_hilbert_function():
    R = fermat_quartic()
    pres = ModulePresentation(
        R, [0], [{(0, (2, 0, 0)): 1}, {(0, (0, 2, 0)): 1}]
    )
    res = minimal_resolution(pres, 2)
    omega1 = res.syzygy_presentation(1)
    # dim Omega^1_t = dim R_t - dim (R/(x^2,y^2))_t
    rbar = R.extend([R.parse("x^2"), R.parse("y^2")])
    for t in range(2, 7):
        assert omega1.hilbert_dim(t) == R.hilbert_dim(t) - rbar.hilbert_dim(t)
    assert omega1.hilbert_numerator == with_basis_numerator(omega1)
    # the resolution is finite, so the top syzygy is free: R(-4), whose
    # numerator t^4 (1 - t^4) comes from the Euler sum
    omega2 = res.syzygy_presentation(2)
    assert omega2.relations == ()
    assert omega2.hilbert_numerator == {4: 1, 8: -1}
    with pytest.raises(InputError):
        res.syzygy_presentation(3)


def test_syzygy_presentation_zero_carries_the_input_numerator(monkeypatch):
    R = fermat_quartic()
    # generator 1 is x^2 * generator 0, so F_0 is pruned to rank 1 and M is
    # R/(y^2)
    pres = ModulePresentation(
        R, [0, 2], [{(1, (0, 0, 0)): 1, (0, (2, 0, 0)): P - 1}, {(0, (0, 2, 0)): 1}]
    )
    numerator = pres.hilbert_numerator
    res = minimal_resolution(pres, 2)
    calls = []
    real = modules.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "buchberger", counting)
    m = res.syzygy_presentation(0)
    assert m.rank == 1
    assert m.hilbert_numerator == numerator
    assert calls == []
    assert m._gb is None


def test_syzygy_presentation_needs_next_map():
    R = fermat_quartic()
    w = R.parse("x*y*z^2")
    pres = ModulePresentation(
        R,
        [0],
        [
            {(0, (2, 0, 0)): 1},
            {(0, (0, 2, 0)): 1},
            {(0, m): c for m, c in w.terms.items()},
        ],
    )
    res = minimal_resolution(pres, 2)
    assert res.syzygy_presentation(1).rank == res.frees[1].rank
    with pytest.raises(InputError):
        res.syzygy_presentation(2)  # needs delta_3


# --------------------------------------------------------- comparison maps


def test_comparison_map_to_koszul_resolution():
    R = fermat_quartic()
    ys = [R.parse("x^2"), R.parse("y^2")]
    K = koszul_complex(R, ys)
    pres = ModulePresentation(
        R, [0], [{(0, (2, 0, 0)): 1}, {(0, (0, 2, 0)): 1}]
    )
    res = minimal_resolution(pres, 2)
    phis = comparison_map(K, res)
    assert len(phis) == 3
    # phi_0 is the identity
    assert phis[0].columns == [res.frees[0].gen_vec(0)]
    # phi_1 and phi_2 are invertible constant matrices here
    zero = (0, 0, 0)
    for i in (1, 2):
        for col in phis[i].columns:
            assert all(m == zero for (_pos, m) in col)


def test_comparison_map_certifies_chain_identity():
    R = fermat_quartic()
    ys = [R.parse("x^2"), R.parse("y^2")]
    w = R.parse("x*y*z^2+x*z^3+2*y*z^3")
    K = koszul_complex(R, ys)
    pres = ModulePresentation(
        R,
        [0],
        [
            {(0, (2, 0, 0)): 1},
            {(0, (0, 2, 0)): 1},
            {(0, m): c for m, c in w.terms.items()},
        ],
    )
    res = minimal_resolution(pres, 2)
    phis = comparison_map(K, res)
    # the construction raises if the chain identity fails; re-check one square
    lhs = res.maps[1].compose(phis[1])
    rhs = phis[0].compose(K.maps[1])
    p = R.p
    for a, b in zip(lhs.packed, rhs.packed):
        diff = dict(a)
        add_terms(diff, b, p, -1)
        assert not res.frees[0].ring_reduce(diff)


def test_comparison_map_rejects_a_lift_that_is_not_a_chain_map(monkeypatch):
    R = fermat_quartic()
    ys = [R.parse("x^2"), R.parse("y^2")]
    K = koszul_complex(R, ys)
    pres = ModulePresentation(R, [0], [{(0, (2, 0, 0)): 1}, {(0, (0, 2, 0)): 1}])
    res = minimal_resolution(pres, 2)

    class Doubled(TaggedBasis):
        """Hands back twice the coordinates it finds."""

        def solve(self, v, order, count):
            w = super().solve(v, order, count)
            return None if w is None else {t: 2 * c % self.p for t, c in w.items()}

    monkeypatch.setattr(resolution, "TaggedBasis", Doubled)
    with pytest.raises(CmwildError, match="not a chain map"):
        comparison_map(K, res)


# --------------------------------------------------------------- reductions


def test_reduce_mod_collapses_to_artinian():
    R = fermat_quartic()
    pres = ModulePresentation(
        R, [0], [{(0, (2, 0, 0)): 1}, {(0, (0, 2, 0)): 1}]
    )
    reduced = pres.reduce_mod([R.parse("z")])
    assert reduced.hilbert_function() == {0: 1, 1: 2, 2: 1}


# ----------------------------------------------------- Macaulay-matrix oracle
#
# Each differential delta_i, restricted to degree t, is a linear map
# (F_i)_t -> (F_{i-1})_t.  On the bases of standard terms of R it is an F_p
# matrix whose columns are x^s * (column j), reduced modulo the ring one
# component at a time.  Its rank comes from the row reduction written in
# tests/test_matalg.py, not from the package's Groebner machinery.

ORACLE_P = 31
ORACLE_TOP_DEGREE = 5


@st.composite
def small_presentations(draw):
    """(presentation, length): at most 3 variables, ring and module
    relations of degree at most 3, rank at most 2, length at most 3."""
    nvars = draw(st.integers(1, 3))
    names = ["x", "y", "z"][:nvars]
    amb = PolyRing(names, ORACLE_P)

    def form(degree):
        terms = {}
        for m in monomials_of_degree(nvars, degree):
            if draw(st.booleans()):
                terms[m] = draw(st.integers(1, ORACLE_P - 1))
        return terms

    rels = [Poly(amb, form(draw(st.integers(2, 3)))) for _ in range(draw(st.integers(0, 2)))]
    ring = QuotientRing(amb, [f for f in rels if not f.is_zero()])
    gen_degrees = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3)) + min(gen_degrees)
        vec = {}
        for pos, gd in enumerate(gen_degrees):
            if 0 <= degree - gd <= 3:
                vec.update({(pos, m): c for m, c in form(degree - gd).items()})
        relations.append(vec)
    return ModulePresentation(ring, gen_degrees, relations), draw(st.integers(1, 3))


def graded_basis(ring, free, t):
    """{(generator, standard monomial): index} spanning (F)_t."""
    basis = {}
    for j, gd in enumerate(free.gen_degrees):
        if t >= gd:
            for mono in ring.component_basis(t - gd):
                (m,) = mono.terms
                basis[(j, m)] = len(basis)
    return basis


def degree_matrix(ring, delta, t):
    """The F_p matrix of delta in degree t, rows indexing (target)_t."""
    rows = graded_basis(ring, delta.target, t)
    cols = graded_basis(ring, delta.source, t)
    A = [[0] * len(cols) for _ in rows]
    columns = delta.columns
    for (j, s), col_index in cols.items():
        # entry (pos, j) of delta, shifted by s
        shifted: dict = {}
        for (pos, m), c in columns[j].items():
            shifted.setdefault(pos, {})[mono_mul(m, s)] = c
        for pos, terms in shifted.items():
            for m, c in ring.normal_form(Poly(ring.ambient, terms)).terms.items():
                A[rows[(pos, m)]][col_index] = c
    return A, len(rows), len(cols)


def oracle_rank(A):
    return len(brute_rref(A, ORACLE_P)[1]) if A and A[0] else 0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_presentations())
def test_resolution_is_exact_degree_by_degree(case):
    pres, length = case
    ring = pres.ring
    res = minimal_resolution(pres, length)
    zero = (0,) * ring.nvars
    for delta in res.maps.values():
        assert all(m != zero for col in delta.columns for (_pos, m) in col)
    top = max(res.maps, default=0)
    for t in range(ORACLE_TOP_DEGREE + 1):
        ranks, dims = {}, {}
        for i in range(top + 1):
            dims[i] = len(graded_basis(ring, res.frees[i], t))
        for i, delta in res.maps.items():
            A, n_rows, n_cols = degree_matrix(ring, delta, t)
            assert (n_rows, n_cols) == (dims[i - 1], dims[i])
            ranks[i] = oracle_rank(A)
        # coker delta_1 is M
        assert dims[0] - ranks.get(1, 0) == pres.hilbert_dim(t)
        for i in range(1, top):
            assert ranks[i] + ranks[i + 1] == dims[i]
        if res.terminated and top:
            # nothing maps into F_top, so delta_top is injective
            assert ranks[top] == dims[top]
