"""Regularity testing, sequence search, and the wildness verdict."""

import json
import random
from math import comb
from types import SimpleNamespace

import pytest
from acm_rings import rational_normal_curve, veronese
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cmwild import rings, wildness
from cmwild.errors import BudgetExhausted, InputError
from cmwild.modules import ModulePresentation
from cmwild.poly import Poly, PolyRing, compose, monomials_of_degree
from cmwild.rings import QuotientRing
from cmwild.wildness import (
    artinian_reduction,
    complete_intersection_certificate,
    find_regular_sequence,
    hypersurface_certificate,
    verify_regular_element,
    verify_regular_sequence,
    wildness_certificate,
)

P = 32003


def fermat_quartic():
    return QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)


# ------------------------------------------------------------- regularity


def test_variable_regular_on_polynomial_ring():
    R = QuotientRing.polynomial_ring(["x", "y"], P)
    assert verify_regular_element(R, R.parse("x"))
    assert verify_regular_element(R, R.parse("x+3*y"))


def test_zerodivisor_detected():
    R = QuotientRing.from_strings(["x", "y"], ["x*y"], P)
    assert not verify_regular_element(R, R.parse("x"))
    assert not verify_regular_element(R, R.parse("y"))
    # x + y avoids both components
    assert verify_regular_element(R, R.parse("x+y"))


def test_squares_regular_on_fermat_quartic():
    R = fermat_quartic()
    assert verify_regular_element(R, R.parse("x^2"))
    R1 = R.extend([R.parse("x^2")])
    assert verify_regular_element(R1, R.parse("y^2"))
    R2 = R1.extend([R.parse("y^2")])
    # the reduction is Artinian, nothing of positive degree is regular
    assert not verify_regular_element(R2, R.parse("z"))


def test_regular_element_returns_the_quotient():
    R = fermat_quartic()
    y = R.parse("x^2")
    quotient = verify_regular_element(R, y)
    assert quotient == R.extend([y])
    assert quotient.groebner == R.extend([y]).groebner
    # a zerodivisor gives None, not a quotient
    S = QuotientRing.from_strings(["x", "y"], ["x*y"], P)
    assert verify_regular_element(S, S.parse("x")) is None


def test_regular_sequence_returns_the_reduction():
    R = fermat_quartic()
    seq = [R.parse("x^2"), R.parse("y^2")]
    reduced = verify_regular_sequence(R, seq)
    assert reduced == R.extend(seq)
    assert reduced.hilbert_function() == artinian_reduction(R, seq)[1].hilbert_function()
    # the first element that fails is named, with its position
    with pytest.raises(InputError, match=r"element 1 \(x\*y\) is not regular"):
        verify_regular_sequence(R, [R.parse("x^2"), R.parse("x*y"), R.parse("z")])


def test_artinian_reduction_returns_the_verified_stage(monkeypatch):
    stages = []

    def recording(ring, seq):
        stages.append(verify_regular_sequence(ring, seq))
        return stages[-1]

    monkeypatch.setattr(wildness, "verify_regular_sequence", recording)
    R = fermat_quartic()
    seq, reduced = artinian_reduction(R, ["x^2", "y^2"])
    assert [str(y) for y in seq] == ["x^2", "y^2"]
    assert reduced is stages[0]
    assert reduced == R.extend(seq)


def count_ideal_buchberger(monkeypatch) -> list:
    """Record every ideal Groebner basis computed from here on."""
    calls = []
    real = rings.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rings, "buchberger", counting)
    return calls


@pytest.mark.parametrize("sequence", [None, ["x^2", "y^2"]], ids=["search", "given"])
def test_certificate_computes_each_stage_once(monkeypatch, sequence):
    calls = count_ideal_buchberger(monkeypatch)
    rep = wildness_certificate(fermat_quartic(), sequence=sequence)
    assert rep.verdict == "CMWild"
    # R, R/(x^2) and R/(x^2, y^2): the reduction is the last verified stage
    assert len(calls) == 3


def test_regularity_on_modules():
    R = QuotientRing.polynomial_ring(["x", "y"], P)
    free2 = ModulePresentation(R, [0, 1], [])
    assert verify_regular_element(free2, R.parse("x"))
    # on the Artinian module R/(x^2, y) nothing is regular
    art = ModulePresentation(R, [0], [{(0, (2, 0)): 1}, {(0, (0, 1)): 1}])
    assert not verify_regular_element(art, R.parse("x"))


def test_regularity_rejects_bad_candidates():
    R = QuotientRing.polynomial_ring(["x", "y"], P)
    with pytest.raises(InputError):
        verify_regular_element(R, R.parse("5"))
    with pytest.raises(InputError):
        verify_regular_element(R, R.parse("x^2+y"))


@pytest.mark.parametrize("target", ["ring", "module"])
def test_regularity_rejects_a_candidate_from_another_ring(target):
    R = QuotientRing.polynomial_ring(["x", "y"], P)
    N = R if target == "ring" else ModulePresentation(R, [0], [])
    with pytest.raises(InputError, match="ambient ring"):
        verify_regular_element(N, PolyRing(["a", "b"], 7).parse("a"))


# --------------------------------------------------------- sequence search


def test_sequence_on_polynomial_ring_is_variables():
    R = QuotientRing.polynomial_ring(["x", "y"], P)
    seq, _ = find_regular_sequence(R)
    assert [str(f) for f in seq] == ["x", "y"]


def test_sequence_on_fermat_quartic_is_recipe_squares():
    R = fermat_quartic()
    seq, _ = find_regular_sequence(R)
    assert [str(f) for f in seq] == ["x^2", "y^2"]
    _, reduced = artinian_reduction(R, seq)
    assert reduced.is_artinian


def test_budget_exhaustion():
    R = QuotientRing.polynomial_ring(["x"], P)
    with pytest.raises(BudgetExhausted):
        find_regular_sequence(R, budget=0)


# ------------------------------------------------------------ certificates


def test_fermat_quartic_is_wild():
    rep = wildness_certificate(fermat_quartic())
    assert rep.verdict == "CMWild"
    assert rep.dimension == 2
    assert rep.m == 4
    assert rep.window == (4, 5)
    assert rep.scan == [(4, 3), (5, 1)]
    assert rep.witness_c == 4
    assert rep.witness_dim == 3
    assert rep.cm_assumed is False


def test_binary_quartic_is_strictly_infinite():
    rep = hypersurface_certificate(
        QuotientRing.from_strings(["x", "y"], ["x^4+y^4"], P)
    )
    assert rep.verdict == "StrictlyCMInfinite"
    assert rep.dimension == 1
    assert [str(f) for f in rep.sequence] == ["x^2"]
    assert rep.window == (3, 4)
    assert rep.scan == [(3, 2), (4, 1)]
    assert rep.witness_c == 3
    assert rep.witness_dim == 2


def test_fermat_cubic_is_inconclusive():
    rep = hypersurface_certificate(
        QuotientRing.from_strings(["x", "y", "z"], ["x^3+y^3+z^3"], P)
    )
    assert rep.verdict == "Inconclusive"
    assert rep.window == (4, 4)
    assert rep.scan == [(4, 1)]
    assert rep.witness_c is None


def test_complete_intersection_instance_is_wild():
    rep = complete_intersection_certificate(
        QuotientRing.from_strings(
            ["x0", "x1", "x2", "x3"],
            ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"],
            P,
        )
    )
    assert rep.verdict == "CMWild"
    assert rep.dimension == 2
    assert [str(f) for f in rep.sequence] == ["x2^2", "x3"]
    assert rep.m == 3
    assert rep.window[0] == 3
    assert rep.scan[0] == (3, 3)
    assert rep.witness_c == 3
    assert rep.witness_dim == 3


def test_not_a_complete_intersection_is_rejected():
    with pytest.raises(InputError, match="complete intersection"):
        complete_intersection_certificate(
            QuotientRing.from_strings(["x", "y"], ["x*y", "x^2"], P)
        )


def test_polynomial_ring_is_inconclusive():
    R = QuotientRing.polynomial_ring(["x", "y"], P)
    rep = wildness_certificate(R)
    assert rep.verdict == "Inconclusive"
    assert rep.scan == []


def test_user_sequence_verified():
    R = fermat_quartic()
    rep = wildness_certificate(R, sequence=["x^2", "y^2"])
    assert rep.verdict == "CMWild"
    with pytest.raises(InputError, match="not regular"):
        wildness_certificate(R, sequence=["x^2", "x*y"])
    with pytest.raises(InputError, match="length"):
        wildness_certificate(R, sequence=["x^2"])


def test_c_window_override():
    rep = wildness_certificate(fermat_quartic(), c_window=(5, 9))
    # window is clamped to the top degree of the reduction
    assert rep.window == (5, 5)
    assert rep.scan == [(5, 1)]
    assert rep.verdict == "Inconclusive"


def test_c_window_clamped_to_threshold():
    # the Fermat cubic scans from its threshold 4; degrees 1..3 have
    # dimension >= 3 but lie below it and must never certify anything
    R = QuotientRing.from_strings(["x", "y", "z"], ["x^3+y^3+z^3"], P)
    default = wildness_certificate(R)
    assert default.verdict == "Inconclusive"
    assert default.window == (4, 4)
    rep = wildness_certificate(R, c_window=(0, 3))
    assert rep.window == (4, 3)
    assert rep.scan == []
    assert rep.verdict == "Inconclusive"
    assert rep.witness_c is None
    wide = wildness_certificate(R, c_window=(0, 9))
    assert wide.window == default.window
    assert wide.scan == default.scan
    assert wide.verdict == "Inconclusive"


def test_report_json_shape_and_determinism():
    rep = wildness_certificate(fermat_quartic(), seed=7)
    d = rep.to_json()
    assert d["p"] == P
    assert d["verdict"] == "CMWild"
    assert d["sequence"] == ["x^2", "y^2"]
    assert d["scan"] == [{"c": 4, "dim": 3}, {"c": 5, "dim": 1}]
    assert d["ring"]["relations"] == ["x^4+y^4+z^4"]
    s1 = json.dumps(d, sort_keys=True)
    s2 = json.dumps(wildness_certificate(fermat_quartic(), seed=7).to_json(), sort_keys=True)
    assert s1 == s2


def test_verdict_invariant_under_linear_change():
    R = fermat_quartic()
    amb = R.ambient
    rng = random.Random(99)
    done = 0
    while done < 5:
        rows = [[rng.randrange(P) for _ in range(3)] for _ in range(3)]
        # require invertibility mod p
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        ) % P
        if not det:
            continue
        images = []
        for i in range(3):
            f = amb.zero()
            for j in range(3):
                f = f + amb.const(rows[i][j]) * amb.gen(j)
            images.append(f)
        f2 = compose(R.relations[0], images)
        R2 = QuotientRing(amb, [f2])
        rep = wildness_certificate(R2, seed=done)
        assert rep.verdict == "CMWild"
        done += 1


# ------------------------------------------------- finite CM type atlas
#
# Eisenbud-Herzog (Math. Ann. 1988): the standard graded rings of finite
# CM type are the quadrics, the rational normal curves, the scroll S(1,2)
# and the Veronese surface.  Their classification is over an algebraically
# closed field of characteristic 0, so here it is a sanity oracle: none of
# these rings may ever be certified.  Each has minimal multiplicity, so a
# linear sequence leaves a reduction concentrated in degrees 0 and 1 and
# the window, which starts at m - d + 2 = 2, is empty; a floor one lower
# would certify the rational normal quartic (three linear forms left).


def _minors(top, bottom):
    return [
        f"{top[i]}*{bottom[j]}-{top[j]}*{bottom[i]}"
        for i in range(len(top))
        for j in range(i + 1, len(top))
    ]


FIVE = [f"x{i}" for i in range(5)]
FINITE_CM_TYPE = {
    "quadric-3": (["x", "y", "z"], ["x^2+y^2+z^2"]),
    "quadric-5": (FIVE, ["x0^2+x1^2+x2^2+x3^2+x4^2"]),
    "rational-normal-cubic": (
        FIVE[:4], _minors(["x0", "x1", "x2"], ["x1", "x2", "x3"])
    ),
    "rational-normal-quartic": (
        FIVE, _minors(["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "x4"])
    ),
    "scroll-1-2": (FIVE, _minors(["x0", "x2", "x3"], ["x1", "x3", "x4"])),
    "veronese-surface": (
        ["a", "b", "c", "d", "e", "f"],
        ["a*d-b^2", "a*e-b*c", "a*f-c^2", "b*e-c*d", "b*f-c*e", "d*f-e^2"],
    ),
}


def _assert_not_certified(rep):
    assert rep.verdict == "Inconclusive", (rep.sequence, rep.scan)
    assert rep.witness_c is None
    assert rep.window[0] == rep.m - rep.dimension + 2


@pytest.mark.parametrize("name", sorted(FINITE_CM_TYPE))
def test_finite_cm_type_is_never_certified(name):
    ring = QuotientRing.from_strings(*FINITE_CM_TYPE[name], P)
    _assert_not_certified(wildness_certificate(ring))


@st.composite
def atlas_sequences(draw):
    """A finite-CM-type ring and dim R random dense forms of degrees 1..3."""
    name = draw(st.sampled_from(sorted(FINITE_CM_TYPE)))
    ring = QuotientRing.from_strings(*FINITE_CM_TYPE[name], P)
    amb = ring.ambient
    seq = []
    for _ in range(ring.krull_dimension):
        monos = monomials_of_degree(ring.nvars, draw(st.integers(1, 3)))
        coeffs = draw(st.lists(st.integers(0, P - 1), min_size=len(monos),
                               max_size=len(monos)))
        f = amb.zero()
        for m, c in zip(monos, coeffs):
            f = f + amb.monomial(m, c)
        seq.append(f)
    return ring, seq


@settings(max_examples=40, deadline=None)
@given(atlas_sequences())
def test_finite_cm_type_is_never_certified_on_random_sequences(case):
    # with an h-vector 1 + e*t, R/(seq) tops out at m - d + 1, one below
    # the window, whatever the degrees
    ring, seq = case
    try:
        rep = wildness_certificate(ring, sequence=seq)
    except InputError:
        reject()  # some element is a zero divisor at its stage
    _assert_not_certified(rep)


@pytest.mark.parametrize("name", ["quadric-3", "quadric-5"])
def test_quadrics_stay_inconclusive_behind_the_guards(name):
    ring = QuotientRing.from_strings(*FINITE_CM_TYPE[name], P)
    _assert_not_certified(hypersurface_certificate(ring))
    _assert_not_certified(complete_intersection_certificate(ring))


# name -> (ring data, Hilbert function in closed form, Krull dimension, scan)
ACM_RINGS = {
    "v_2(P^2)": (veronese(3, 2), lambda t: comb(2 * t + 2, 2), 3, []),
    "v_3(P^2)": (veronese(3, 3), lambda t: comb(3 * t + 2, 2), 3, [(5, 1)]),
    "v_2(P^3)": (veronese(4, 2), lambda t: comb(2 * t + 3, 3), 4, [(6, 1)]),
    **{
        f"rational normal curve {k}": (rational_normal_curve(k), lambda t, k=k: k * t + 1, 2, [])
        for k in (3, 4, 5)
    },
}


@pytest.mark.parametrize("name", sorted(ACM_RINGS))
def test_acm_rings_match_their_closed_forms(name):
    # Veronese rings and rational normal curves are not complete
    # intersections; their h-vectors leave at most one dimension per
    # degree past the threshold, so the check stays Inconclusive
    (variables, relations), hf, dim, scan = ACM_RINGS[name]
    ring = QuotientRing.from_strings(variables, relations, P)
    assert [ring.hilbert_dim(t) for t in range(8)] == [hf(t) for t in range(8)]
    assert ring.krull_dimension == dim
    rep = wildness_certificate(ring)
    assert (rep.verdict, rep.scan) == ("Inconclusive", scan)


# ------------------------------------------------- lazy candidate pool


def eager_slot_candidates(ring, slot, rng) -> list:
    """Reference pool: every candidate built up front, repeats removed by
    their printed form.  The lazy pool must yield the same list and leave
    ``rng`` in the same state."""
    amb = ring.ambient
    nv = ring.nvars
    gens = [amb.gen(i) for i in range(nv)]
    k = len(ring.relations)
    pool: list = []
    if k == 1:
        if slot < 2 and slot < nv:
            pool.append(gens[slot] * gens[slot])
        elif slot < nv:
            pool.append(gens[slot])
    elif k >= 2:
        if slot == 0 and k < nv:
            pool.append(gens[k] * gens[k])
        elif 0 < slot and k + slot < nv:
            pool.append(gens[k + slot])
    else:
        if slot < nv:
            pool.append(gens[slot])
    pool.extend(g * g for g in gens)
    pool.extend(gens)
    for _ in range(12):
        f = amb.zero()
        for g in gens:
            f = f + amb.const(rng.randrange(ring.p)) * g
        if not f.is_zero():
            pool.append(f)
    deg2 = []
    for i in range(nv):
        for j in range(i, nv):
            deg2.append(gens[i] * gens[j])
    for _ in range(12):
        f = amb.zero()
        for mono in deg2:
            f = f + amb.const(rng.randrange(ring.p)) * mono
        if not f.is_zero():
            pool.append(f)
    seen = set()
    out = []
    for f in pool:
        key = str(f)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


# (vars, relations, p): rings where the recipe fails and the search falls
# back to random forms, then the README rings
POOL_RINGS = {
    "xy": (["x", "y"], ["x*y"], P),
    "xyz": (["x", "y", "z"], ["x*y*z"], P),
    "xy-zw": (["x", "y", "z", "w"], ["x*y-z*w"], P),
    "xz,yw": (["x", "y", "z", "w"], ["x*z", "y*w"], P),
    "xy,xz": (["x", "y", "z"], ["x*y", "x*z"], P),
    "fermat-quartic": (["x", "y", "z"], ["x^4+y^4+z^4"], P),
    "binary-quartic": (["x", "y"], ["x^4+y^4"], P),
    "ci-cubic-quadric": (
        ["x0", "x1", "x2", "x3"], ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"], P
    ),
    "fermat-cubic": (["x", "y", "z"], ["x^3+y^3+z^3"], P),
    # a small field makes zero coefficients, zero forms and repeats likely
    "xy-zw-mod-3": (["x", "y", "z", "w"], ["x*y-z*w"], 3),
    # x*y*(x+y)*(x+2*y) over F_3 kills every linear form in x, y, so only
    # a random quadric can be regular
    "four-lines-mod-3": (["x", "y"], ["x^3*y+2*x*y^3"], 3),
    "four-planes-mod-3": (["x", "y", "z"], ["x^3*y+2*x*y^3"], 3),
}


def _ordered_terms(f):
    return list(f.terms.items())


def _search(ring, seed):
    try:
        seq, stage = find_regular_sequence(ring, seed=seed)
    except BudgetExhausted as exc:
        return str(exc)
    return [_ordered_terms(y) for y in seq], [list(v.items()) for v in stage.gb.vectors]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(POOL_RINGS))
def test_lazy_pool_matches_the_eager_reference(monkeypatch, name, seed):
    variables, relations, p = POOL_RINGS[name]
    ring = QuotientRing.from_strings(variables, relations, p)
    lazy_rng, eager_rng = random.Random(seed), random.Random(seed)
    for slot in range(ring.nvars + 1):
        lazy = list(wildness._slot_candidates(ring, slot, lazy_rng))
        eager = eager_slot_candidates(ring, slot, eager_rng)
        assert [_ordered_terms(f) for f in lazy] == [_ordered_terms(f) for f in eager]
        assert lazy_rng.getstate() == eager_rng.getstate()
    # the same sequence and the same last stage, down to the dict order
    found = _search(ring, seed)
    monkeypatch.setattr(wildness, "_slot_candidates", eager_slot_candidates)
    assert found == _search(QuotientRing.from_strings(variables, relations, p), seed)


@pytest.mark.parametrize(
    "name, degree",
    [("xy", 1), ("xyz", 1), ("xy-zw", 1), ("four-lines-mod-3", 2), ("four-planes-mod-3", 2)],
)
def test_pool_rings_reach_the_random_forms(name, degree):
    # the recipe and the variables fail on these rings, so the sequences
    # compared above include random linear forms and random quadrics
    variables, relations, p = POOL_RINGS[name]
    seq, _ = find_regular_sequence(QuotientRing.from_strings(variables, relations, p))
    assert any(len(y.terms) > 1 and y.degree() == degree for y in seq)


def test_first_candidate_builds_no_random_form(monkeypatch):
    calls = []
    for name in ("__add__", "__mul__", "__str__"):
        real = getattr(Poly, name)

        def counting(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(Poly, name, counting)
    ring = QuotientRing.from_strings(["x", "y", "z", "w"], ["x*y-z*w"], P)
    rng = random.Random(0)
    first = next(iter(wildness._slot_candidates(ring, 0, rng)))
    assert first.terms == {(2, 0, 0, 0): 1}
    assert calls == []
    # the coefficients of all 24 random forms were still drawn
    ref = random.Random(0)
    for _ in range(12 * 4 + 12 * 10):
        ref.randrange(P)
    assert rng.getstate() == ref.getstate()


def test_last_slot_decided_by_its_recipe_draws_nothing(monkeypatch):
    # the Fermat quartic has dimension 2: slot 0 draws its 24 rows of
    # coefficients for the slot after it, and slot 1, the last, is decided
    # by its recipe y^2 before the pool reaches a random form
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(wildness, "random", SimpleNamespace(Random=CountingRandom))
    ring = QuotientRing.from_strings(*POOL_RINGS["fermat-quartic"])
    seq, _ = find_regular_sequence(ring)
    assert [str(y) for y in seq] == ["x^2", "y^2"]
    assert len(draws) == 12 * 3 + 12 * 6
    draws.clear()
    first = next(iter(wildness._slot_candidates(ring, 1, CountingRandom(0))))
    assert str(first) == "y^2"
    assert draws == []
