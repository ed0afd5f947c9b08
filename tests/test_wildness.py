"""Regularity testing, sequence search, and the wildness verdict."""

import json
import random

import pytest

from cmwild import rings, wildness
from cmwild.errors import BudgetExhausted, InputError
from cmwild.modules import ModulePresentation
from cmwild.poly import compose
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
    assert d["schema"] == "cmwild/1"
    assert d["p"] == P
    assert d["seed"] == 7
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
