"""Regularity testing, sequence search, and the wildness verdict."""

import json
import random
import re
import time
from functools import partial
from math import comb
from types import SimpleNamespace

import pytest
from acm_rings import rational_normal_curve, segre, veronese
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st
from oracles import compose, leading_terms, monomials_of_degree, polynomial_ring

from cmwild import rings, wildness
from cmwild.cli import main
from cmwild.errors import BudgetExhausted, InputError
from cmwild.groebner import series_add
from cmwild.modules import ModulePresentation
from cmwild.poly import Poly, PolyRing
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
    R = polynomial_ring(["x", "y"], P)
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
    # ... also when it is the first element, or the last one
    S = QuotientRing.from_strings(["x", "y"], ["x*y"], P)
    with pytest.raises(InputError, match=r"element 0 \(x\) is not regular"):
        verify_regular_sequence(S, [S.parse("x"), S.parse("x+y")])
    with pytest.raises(InputError, match=r"element 2 \(z\) is not regular"):
        verify_regular_sequence(R, [R.parse("x^2"), R.parse("y^2"), R.parse("z")])
    # the empty sequence is regular, and its reduction is the ring itself
    assert verify_regular_sequence(R, []) is R


def walk(target, ys):
    """The per-element walk: each y_i is checked, by the single-element
    identity, on the quotient by the ones before it.  It is the oracle for
    the one-shot check of a whole sequence."""
    for y in ys:
        target = verify_regular_element(target, y)
        if target is None:
            return None
    return target


@st.composite
def regularity_cases(draw):
    """A ring in 2-3 variables over F_31 with at most one relation, or a
    presentation of rank 1 or 2 over it, and 1-3 homogeneous forms of
    degree 1-2 with 1-3 terms (so both outcomes are common)."""
    nv = draw(st.integers(2, 3))
    amb = PolyRing(["x", "y", "z"][:nv], 31)

    def form(low, high):
        monos = monomials_of_degree(nv, draw(st.integers(low, high)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        return Poly(amb, {m: draw(st.integers(1, 30)) for m in chosen})

    ring = QuotientRing(amb, [form(2, 3) for _ in range(draw(st.integers(0, 1)))])
    gen_degrees = draw(st.sampled_from([None, (0,), (0, 1)]))
    target = ring
    if gen_degrees is not None:
        rels = []
        for _ in range(draw(st.integers(0, 2))):
            deg = draw(st.integers(1, max(gen_degrees) + 2))
            terms = [
                (pos, m)
                for pos, gd in enumerate(gen_degrees)
                for m in monomials_of_degree(nv, deg - gd)
            ]
            chosen = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=4, unique=True))
            rels.append({t: draw(st.integers(1, 30)) for t in chosen})
        target = ModulePresentation(ring, list(gen_degrees), rels)
    return target, [form(1, 2) for _ in range(draw(st.integers(1, 3)))]


def gb_listing(target):
    gb = target.gb
    return [list(v.items()) for v in gb.vectors], leading_terms(gb)


@settings(max_examples=150, deadline=None)
@given(regularity_cases())
def test_one_check_of_a_sequence_matches_the_walk(case):
    target, ys = case
    walked = walk(target, ys)
    once = verify_regular_element(target, *ys)
    event("regular" if walked is not None else "not regular")
    event("ring" if isinstance(target, QuotientRing) else f"rank {target.rank}")
    assert (once is None) == (walked is None)
    if once is not None:
        # the same quotient with the same basis, over the same ring
        assert gb_listing(once) == gb_listing(walked)
        if isinstance(target, QuotientRing):
            assert once == walked
        else:
            assert once.ring == walked.ring
            assert gb_listing(once.ring) == gb_listing(walked.ring)


def test_artinian_reduction_returns_the_verified_stage(monkeypatch):
    stages = []

    def recording(target, *ys):
        stages.append(verify_regular_element(target, *ys))
        return stages[-1]

    monkeypatch.setattr(wildness, "verify_regular_element", recording)
    # one check each: the finite-length certificate for the Fermat quartic;
    # for the twisted cubic, 3 relations and 2 forms exceed the 4
    # variables, so dim R is read and the Hilbert-series identity decides
    for R, sequence in (
        (fermat_quartic(), ["x^2", "y^2"]),
        (QuotientRing.from_strings(*rational_normal_curve(3), P), ["x0", "x3"]),
    ):
        stages.clear()
        seq, reduced = artinian_reduction(R, sequence)
        assert [str(y) for y in seq] == sequence
        assert len(stages) == 1
        assert reduced is stages[0]
        assert reduced == R.extend(seq)


def test_a_given_sequence_is_checked_against_dim_r_first():
    # x^2, x*y have height 1, so dim R = 2 although 2 relations and one
    # form fill the 3 variables; the length error comes before the element's
    R = QuotientRing.from_strings(["x", "y", "z"], ["x^2", "x*y"], P)
    for sequence in (["z+1"], ["z"], ["0"]):
        with pytest.raises(InputError, match="length 1 but the Krull dimension is 2"):
            artinian_reduction(R, sequence)


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
    # the search checks its recipe x^2, y^2 at once, and a given x^2, y^2
    # is checked the same way: R/(x^2, y^2) has finite length and 1 + 2
    # forms fill the 3 variables, so that one basis certifies it and R's
    # is never built.  R/(x^2) never is either, and the reduction is the
    # quotient that check built
    assert len(calls) == 1


def test_regularity_on_modules():
    R = polynomial_ring(["x", "y"], P)
    free2 = ModulePresentation(R, [0, 1], [])
    assert verify_regular_element(free2, R.parse("x"))
    # on the Artinian module R/(x^2, y) nothing is regular
    art = ModulePresentation(R, [0], [{(0, (2, 0)): 1}, {(0, (0, 1)): 1}])
    assert not verify_regular_element(art, R.parse("x"))


def test_regularity_rejects_bad_candidates():
    R = polynomial_ring(["x", "y"], P)
    with pytest.raises(InputError):
        verify_regular_element(R, R.parse("5"))
    with pytest.raises(InputError):
        verify_regular_element(R, R.parse("x^2+y"))


@pytest.mark.parametrize("target", ["ring", "module"])
def test_regularity_rejects_a_candidate_from_another_ring(target):
    R = polynomial_ring(["x", "y"], P)
    N = R if target == "ring" else ModulePresentation(R, [0], [])
    with pytest.raises(InputError, match="ambient ring"):
        verify_regular_element(N, PolyRing(["a", "b"], 7).parse("a"))


# --------------------------------------------------------- sequence search


def test_sequence_on_polynomial_ring_is_variables():
    R = polynomial_ring(["x", "y"], P)
    seq, _ = find_regular_sequence(R)
    assert [str(f) for f in seq] == ["x", "y"]


def test_sequence_on_fermat_quartic_is_recipe_squares():
    R = fermat_quartic()
    seq, _ = find_regular_sequence(R)
    assert [str(f) for f in seq] == ["x^2", "y^2"]
    _, reduced = artinian_reduction(R, seq)
    assert reduced.is_artinian


def test_budget_exhaustion():
    # (x^2, x*y) has depth 0: x is killed by every form of positive degree,
    # so no element is regular and the pool of slot 0 runs out
    R = QuotientRing.from_strings(["x", "y"], ["x^2", "x*y"], P)
    with pytest.raises(BudgetExhausted, match="position 0"):
        find_regular_sequence(R)


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


def test_fermat_hypersurface_in_twelve_variables_scans_its_staircase_fast():
    # the standard terms of the reduction are x0^a*x1^b*x11^c with a, b <= 1
    # and c <= 13; a scan that enumerated every monomial of each degree
    # (C(25, 11), about 4.5 million, of degree 14) would take minutes
    names = [f"x{i}" for i in range(12)]
    ring = QuotientRing.from_strings(names, ["+".join(f"{v}^14" for v in names)], P)
    start = time.perf_counter()
    rep = wildness_certificate(ring)
    elapsed = time.perf_counter() - start
    assert rep.verdict == "CMWild"
    assert (rep.witness_c, rep.witness_dim) == (4, 4)
    assert len(rep.scan) == 12
    assert elapsed < 2.0, f"{elapsed:.2f} s"


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


def check_binary_form(tmp_path, capsys, k, *sequence):
    """The JSON report of ``cmwild check`` on x^k + y^k over F_32003."""
    ring = tmp_path / f"binary-{k}.json"
    ring.write_text(json.dumps({"vars": ["x", "y"], "relations": [f"x^{k}+y^{k}"], "p": P}))
    argv = ["check", "--ring", str(ring), "--format", "json"]
    if sequence:
        argv += ["--sequence", ",".join(sequence)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


# Binary forms as a sanity oracle: Drozd-Greuel ("Cohen-Macaulay module
# type", Compositio Math. 1993) find x^k + y^k of finite CM type for k <= 3,
# tame at k = 4 and wild for k >= 5.  Their classification is local and
# over an algebraically closed field, so it is a check on the verdicts,
# not a theorem about graded rings over F_p.  The one-sided criterion says
# nothing at k <= 3; with the default sequence x^2 the scan sees at most a
# two-dimensional component, and a sequence of higher degree shows k = 5, 6
# wild.
@pytest.mark.parametrize(
    "k, verdict, witness",
    [(2, "Inconclusive", (None, None)), (3, "Inconclusive", (None, None))]
    + [(k, "StrictlyCMInfinite", (3, 2)) for k in range(4, 8)],
)
def test_binary_forms_by_degree(tmp_path, capsys, k, verdict, witness):
    rep = check_binary_form(tmp_path, capsys, k)
    assert rep["verdict"] == verdict
    assert rep["sequence"] == ["x^2"]
    assert (rep["witness_c"], rep["witness_dim"]) == witness


@pytest.mark.parametrize("k, y, witness", [(5, "y^3", (4, 3)), (6, "y^4", (5, 4))])
def test_binary_forms_are_wild_with_a_longer_sequence(tmp_path, capsys, k, y, witness):
    rep = check_binary_form(tmp_path, capsys, k, y)
    assert rep["verdict"] == "CMWild"
    assert rep["sequence"] == [y]
    assert (rep["witness_c"], rep["witness_dim"]) == witness


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
    R = polynomial_ring(["x", "y"], P)
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
    # nine minors in nine variables: the recipe is empty, so dim R is read
    # from R's own basis before the walk
    "P^2 x P^2": (segre(3, 3), lambda t: comb(t + 2, 2) ** 2, 5, [(5, 1)]),
}


@pytest.mark.parametrize("name", sorted(ACM_RINGS))
def test_acm_rings_match_their_closed_forms(name):
    # Veronese rings, rational normal curves and P^2 x P^2 are not complete
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


# rings whose recipe is a regular sequence but shorter than dim R: they
# are not complete intersections, and the recipe seeds the slot walk
SHORT_RECIPE_RINGS = {
    "twisted cubic": (*rational_normal_curve(3), P),
    "xy,xz,yz + w": (["x", "y", "z", "w"], ["x*y", "x*z", "y*z"], P),
    "twisted cubic + w": (rational_normal_curve(3)[0] + ["w"], rational_normal_curve(3)[1], P),
}


def _ordered_terms(f):
    return list(f.terms.items())


def _search(ring, seed, search=find_regular_sequence):
    """The sequence's terms and the last stage's basis, in order; for a
    search that runs out, the exception type and the position it names."""
    try:
        seq, stage = search(ring, seed=seed)
    except BudgetExhausted as exc:
        return type(exc), re.search(r"position (\d+)", str(exc)).group(1)
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
    # compared above and against the slot walk below include random linear
    # forms and random quadrics
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


def count_draws(monkeypatch) -> list:
    """Record every coefficient the search draws from here on."""
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(wildness, "random", SimpleNamespace(Random=CountingRandom))
    return draws


def test_last_slot_decided_by_its_recipe_draws_nothing(monkeypatch):
    # the Fermat quartic has dimension 2 and its recipe x^2, y^2 is a
    # regular sequence, so the search returns it without walking a slot and
    # draws nothing
    draws = count_draws(monkeypatch)
    ring = QuotientRing.from_strings(*POOL_RINGS["fermat-quartic"])
    seq, _ = find_regular_sequence(ring)
    assert [str(y) for y in seq] == ["x^2", "y^2"]
    assert draws == []


def test_failed_recipe_costs_one_quotient(monkeypatch):
    # x*y: the recipe x^2 is a zero divisor, so the search walks slot 0, the
    # last.  Bases: R/(x^2) from its two forms (it is not Artinian), then R
    # for the identity, which fails.  The walk's first attempt, x^2, takes
    # that same quotient from R.extend; then one per attempt y^2, x, y and
    # the first random linear form, which is regular, each grown from R by
    # one generator.  The slot draws all its coefficients up front: 12
    # rows of 2 for the linear forms and 12 rows of 3 for the quadrics
    calls = count_ideal_buchberger(monkeypatch)
    draws = count_draws(monkeypatch)
    ring = QuotientRing.from_strings(*POOL_RINGS["xy"])
    seq, _ = find_regular_sequence(ring)
    assert len(seq[0].terms) == 2
    assert [len(args[0]) for args in calls] == [2, 1] + [1] * 4
    assert len(draws) == 12 * 2 + 12 * 3


def test_short_recipe_seeds_the_walk_without_rebuilding_it(monkeypatch):
    # the twisted cubic: its recipe x3^2 is regular, but R/(x3^2) has
    # dimension 1, so the walk starts at slot 1 from that quotient.  Bases:
    # R/(x3^2) from its four forms, then R from its three relations for the
    # identity, then R/(x3^2, x0^2) grown from R/(x3^2), which is never
    # rebuilt
    calls = count_ideal_buchberger(monkeypatch)
    ring = QuotientRing.from_strings(*SHORT_RECIPE_RINGS["twisted cubic"])
    seq, _ = find_regular_sequence(ring)
    assert [str(y) for y in seq] == ["x3^2", "x0^2"]
    assert [len(args[0]) for args in calls] == [4, 3, 1]


# ------------------------------------------- recipe first, slot walk as oracle


def walk_regular_sequence(ring, seed=0, budget=50):
    """The slot walk alone, as an oracle for ``find_regular_sequence``: each
    slot takes the first candidate of its pool that is nonzero and regular
    modulo the ones before it, and carries the verified stage on.  A slot
    gives up after ``budget`` nonzero candidates, where the search walks
    its whole pool; no pool holds 50 candidates below 14 variables, so the
    two agree on every ring tested here."""
    rng = random.Random(seed)
    seq, current = [], ring
    for slot in range(ring.krull_dimension):
        attempts = 0
        for cand in wildness._slot_candidates(ring, slot, rng):
            if current.is_zero_element(cand):
                continue
            attempts += 1
            if attempts > budget:
                break
            stage = verify_regular_element(current, cand)
            if stage is not None:
                seq.append(cand)
                current = stage
                break
        if len(seq) == slot:
            raise BudgetExhausted(
                f"no regular element found for position {slot} within {budget} attempts"
            )
    return seq, current


def recipe_of(ring) -> list:
    """The search's recipe: one element per variable beyond the relations."""
    return [
        Poly(ring.ambient, {wildness._recipe_term(ring, slot): 1})
        for slot in range(ring.nvars - len(ring.relations))
    ]


def recipe_holds(ring) -> bool:
    """Whether the search returns its recipe without walking a slot."""
    reduced = verify_regular_element(ring, *recipe_of(ring))
    return reduced is not None and reduced.is_artinian


# (variables, relation degrees) of the scan benchmark's dense rings
SCAN_SHAPES = (
    (2, (2,)), (2, (3,)), (2, (4,)), (2, (5,)),
    (3, (2,)), (3, (3,)), (3, (4,)), (3, (5,)),
    (3, (2, 2)), (3, (2, 3)), (3, (3, 3)), (3, (2, 4)),
    (3, (3, 4)), (3, (4, 4)), (3, (2, 5)), (3, (5, 5)),
    (4, (2,)), (4, (3,)), (4, (4,)), (4, (5,)),
    (4, (2, 2)), (4, (2, 3)), (4, (3, 3)), (4, (2, 4)),
    (4, (3, 4)), (4, (2, 5)), (4, (4, 4)),
    (4, (2, 2, 2)), (4, (2, 2, 3)), (4, (2, 3, 3)),
    (5, (2,)), (5, (3,)), (5, (4,)),
    (5, (2, 2)), (5, (2, 3)), (5, (2, 4)), (5, (3, 3)),
    (5, (2, 2, 2)), (5, (2, 2, 3)),
)


def dense_ring(nv, degrees, form_seed) -> QuotientRing:
    """Every monomial of each relation's degree, with a seeded coefficient
    in 1..P-1: a hypersurface or a complete intersection."""
    amb = PolyRing([f"x{i}" for i in range(nv)], P)
    rng = random.Random(form_seed)
    return QuotientRing(amb, [
        Poly(amb, {e: rng.randrange(1, P) for e in monomials_of_degree(nv, deg)})
        for deg in degrees
    ])


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(SCAN_SHAPES),
    form_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 3),
)
def test_recipe_first_matches_the_slot_walk_on_dense_rings(shape, form_seed, seed):
    ring = dense_ring(*shape, form_seed)
    event("recipe holds" if recipe_holds(ring) else "recipe fails")
    # the same sequence and the same last stage, down to the dict order
    assert _search(ring, seed) == _search(dense_ring(*shape, form_seed), seed, walk_regular_sequence)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(POOL_RINGS) + sorted(SHORT_RECIPE_RINGS))
def test_recipe_first_matches_the_slot_walk_on_pool_rings(name, seed):
    variables, relations, p = {**POOL_RINGS, **SHORT_RECIPE_RINGS}[name]
    ring = QuotientRing.from_strings(variables, relations, p)
    if name in ("xy", "xyz", "xy-zw"):
        assert not recipe_holds(ring)
    if name in SHORT_RECIPE_RINGS:
        assert verify_regular_element(ring, *recipe_of(ring)) is not None
        assert not recipe_holds(ring)
    assert _search(ring, seed) == _search(
        QuotientRing.from_strings(variables, relations, p), seed, walk_regular_sequence
    )


@st.composite
def sparse_rings(draw):
    """A ring in 2-4 variables over F_3 or F_32003 with 1-3 relations, each
    one or two monomials of degree 2 or 3 with nonzero coefficients (as a
    maker of fresh copies): rings that are not Cohen-Macaulay, and pools
    with zero forms and repeats, are common."""
    nv, p = draw(st.integers(2, 4)), draw(st.sampled_from([3, P]))
    amb = PolyRing([f"x{i}" for i in range(nv)], p)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(nv, draw(st.sampled_from([2, 3])))
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2, unique=True))
        relations.append({e: draw(st.integers(1, p - 1)) for e in terms})
    return lambda: QuotientRing(amb, [Poly(amb, dict(f)) for f in relations])


@settings(max_examples=30, deadline=None)
@given(sparse_rings(), st.integers(0, 3))
def test_recipe_first_matches_the_slot_walk_on_sparse_rings(make, seed):
    # the same sequence and last stage as the walk that gives up after 50
    # nonzero candidates, or both run out at the same position
    found = _search(make(), seed)
    event("runs out" if found[0] is BudgetExhausted else "finds a sequence")
    assert found == _search(make(), seed, walk_regular_sequence)


def stanley_quotient(ring, ys):
    """R/(y) if Stanley's identity HS(R/(y)) = prod (1 - t^deg y_i) HS(R)
    holds, else None, with R's basis computed first, so that R/(y) grows
    it."""
    ring.gb
    quotient = ring.extend(ys)
    expected = ring.hilbert_numerator
    for y in ys:
        series_add(expected, dict(expected), y.degree(), -1)
    return quotient if quotient.hilbert_numerator == expected else None


@st.composite
def full_length_cases(draw):
    """A dense ``scan`` ring, a ``POOL_RINGS`` ring or the twisted cubic
    (as a maker of fresh copies), and nvars - k forms for its k relations:
    recipe terms, squares, variables and random linear forms, so that zero
    divisors and non-Artinian quotients are common."""
    source = draw(st.sampled_from(["dense", "pool", "twisted cubic"]))
    if source == "dense":
        shape, form_seed = draw(st.sampled_from(SCAN_SHAPES)), draw(st.integers(0, 2**32 - 1))
        make = partial(dense_ring, *shape, form_seed)
    elif source == "pool":
        name = draw(st.sampled_from(sorted(POOL_RINGS)))
        make = partial(QuotientRing.from_strings, *POOL_RINGS[name])
    else:
        make = partial(QuotientRing.from_strings, *SHORT_RECIPE_RINGS["twisted cubic"])
    ring = make()
    nv, amb = ring.nvars, ring.ambient
    gens = [amb.gen(i) for i in range(nv)]
    pool = recipe_of(ring) + [g * g for g in gens] + gens

    def linear_form():
        coeffs = draw(st.lists(st.integers(0, ring.p - 1), min_size=nv, max_size=nv))
        return sum((amb.const(c) * g for c, g in zip(coeffs, gens)), amb.zero())

    ys = []
    for _ in range(nv - len(ring.relations)):
        y = draw(st.one_of(st.sampled_from(pool), st.builds(linear_form)))
        if y.is_zero():
            reject()
        ys.append(y)
    return source, make, ys


@settings(max_examples=150, deadline=None)
@given(full_length_cases(), st.booleans())
def test_finite_length_certificate_matches_stanleys_identity(case, warm):
    # the verdict is Stanley's identity on R/(y) grown from R's basis,
    # whether or not R holds its basis before the check, and an accepted
    # quotient is that grown one, dict for dict
    source, make, ys = case
    ring = make()
    if warm:
        ring.gb
    quotient = verify_regular_element(ring, *ys)
    grown = stanley_quotient(make(), ys)
    event(source)
    event("regular" if grown is not None else "not regular")
    event("Artinian" if ring.extend(ys).is_artinian else "not Artinian")
    assert (quotient is not None) == (grown is not None)
    if quotient is not None:
        assert gb_listing(quotient) == gb_listing(grown)


@pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
def test_check_of_a_complete_intersection_builds_one_basis(monkeypatch, shape):
    # the recipe's quotient has finite length, so it certifies the recipe
    # and R's own basis is never computed: the one basis is built from the
    # relations and the recipe together
    calls = count_ideal_buchberger(monkeypatch)
    ring = dense_ring(*shape, 0)
    rep = wildness_certificate(ring)
    assert rep.dimension == shape[0] - len(shape[1])
    assert ring._gb is None
    assert [len(args[0]) for args in calls] == [shape[0]]
