"""Family construction, isomorphism transfer, and the structural checks."""

import json
import random
import warnings

import numpy as np
import pytest

from cmwild import rings
from cmwild.errors import InputError
from cmwild.family import (
    FamilyMember,
    FamilySpec,
    action_matrices,
    build_family_member,
    family_report,
    indecomposability_test,
    iso_test,
    mcm_module,
    member_over_ring,
    verify_resolution_shape,
    verify_shift_embedding,
)
from cmwild.matalg import (
    as_matrix,
    inverse,
    is_invertible,
    mat_mul,
    rank as mat_rank,
    simultaneous_conjugacy,
)
from cmwild.rings import QuotientRing
from cmwild.wildness import verify_regular_element

P = 32003


@pytest.fixture(scope="module")
def fermat():
    return QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"])


@pytest.fixture(scope="module")
def binary():
    return QuotientRing.from_strings(["x", "y"], ["x^4+y^4"])


def two_param(fermat, Ax, Ay, **kw):
    return FamilySpec(fermat, ["x^2", "y^2"], 4, Ax, Ay=Ay, **kw)


# ------------------------------------------------------------ construction


def test_default_basis_and_scalar_member(fermat):
    spec = two_param(fermat, [[1]], [[2]])
    assert [str(e) for e in spec.basis] == ["x*y*z^2", "x*z^3", "y*z^3"]
    assert (spec.d, spec.m, spec.n) == (2, 4, 1)
    M = build_family_member(spec)
    # one relation: e1 + 1*e2 + 2*e3
    assert M.relations == ({(0, (1, 1, 2)): 1, (0, (1, 0, 3)): 1, (0, (0, 1, 3)): 2},)
    assert M.hilbert_function() == {0: 1, 1: 3, 2: 4, 3: 4, 4: 2}


def test_zero_matrices_member_is_quotient_by_e1(fermat):
    spec = two_param(fermat, [[0]], [[0]])
    M = build_family_member(spec)
    assert M.relations == ({(0, (1, 1, 2)): 1},)


def test_jordan_member_columns(fermat):
    spec = two_param(fermat, [[0, 1], [0, 0]], [[1, 0], [0, 1]])
    M = build_family_member(spec)
    e1, e2, e3 = (1, 1, 2), (1, 0, 3), (0, 1, 3)
    assert M.relations == (
        {(0, e1): 1, (0, e3): 1},
        {(0, e2): 1, (1, e1): 1, (1, e3): 1},
    )


def test_over_ring_adds_sequence_multiples(fermat):
    spec = two_param(fermat, [[1]], [[2]])
    pres = member_over_ring(spec)
    assert {(0, (2, 0, 0)): 1} in pres.relations
    assert {(0, (0, 2, 0)): 1} in pres.relations
    assert pres.ring is fermat


def test_one_parameter_default_basis(binary):
    spec = FamilySpec(binary, ["x^2"], 3, [[0, 1], [0, 0]])
    assert [str(e) for e in spec.basis] == ["x*y^2", "y^3"]
    assert spec.Ay is None
    assert build_family_member(spec).hilbert_function() == {0: 2, 1: 4, 2: 4, 3: 2}


def test_degree_invariant_enforced(fermat):
    # m - d + 1 = 3, so c = 3 is too small
    with pytest.raises(InputError, match="must exceed"):
        FamilySpec(fermat, ["x^2", "y^2"], 3, [[1]], Ay=[[2]])


def test_sequence_validation(fermat):
    with pytest.raises(InputError, match="Krull dimension"):
        FamilySpec(fermat, ["x^2"], 4, [[1]], Ay=[[2]])
    with pytest.raises(InputError, match="not regular"):
        FamilySpec(fermat, ["x*y", "y^2"], 4, [[1]], Ay=[[2]])


def test_spec_computes_each_stage_once(monkeypatch):
    calls = []
    real = rings.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rings, "buchberger", counting)
    ring = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"])
    spec = FamilySpec(ring, ["x^2", "y^2"], 4, [[1]], Ay=[[2]])
    assert spec.rbar == ring.extend(spec.sequence)
    # R, R/(x^2) and R/(x^2, y^2): rbar is the last verified stage
    assert len(calls) == 3


def test_basis_validation(fermat):
    good = ["x*y*z^2", "x*z^3", "y*z^3"]
    with pytest.raises(InputError, match="monic monomial"):
        two_param(fermat, [[1]], [[2]], basis=["x*y*z^2+x*z^3", *good[1:]])
    with pytest.raises(InputError, match="degree"):
        two_param(fermat, [[1]], [[2]], basis=["x*y*z", *good[1:]])
    with pytest.raises(InputError, match="standard"):
        two_param(fermat, [[1]], [[2]], basis=["x^2*z^2", *good[1:]])
    with pytest.raises(InputError, match="repeats"):
        two_param(fermat, [[1]], [[2]], basis=["x*z^3", "x*z^3", "y*z^3"])
    with pytest.raises(InputError, match="exactly 3"):
        two_param(fermat, [[1]], [[2]], basis=good[:2])


def test_matrix_validation(fermat):
    with pytest.raises(InputError, match="square"):
        two_param(fermat, [[1, 0]], [[2, 0]])
    with pytest.raises(InputError, match="same size"):
        two_param(fermat, [[1]], [[1, 0], [0, 1]])
    with pytest.raises(InputError, match="does not match"):
        two_param(fermat, [[1]], [[2]], n=2)


def test_noncommuting_warns_but_builds(fermat):
    with pytest.warns(UserWarning, match="do not commute"):
        spec = two_param(fermat, [[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert build_family_member(spec).hilbert_dim(0) == 2


def test_json_round_trip(fermat, binary):
    spec = two_param(fermat, [[0, 1], [0, 0]], [[1, 5], [0, 1]])
    data = spec.to_json()
    again = FamilySpec.from_json(json.loads(json.dumps(data)))
    assert again.frame() == spec.frame()
    assert np.array_equal(again.Ax, spec.Ax)
    assert np.array_equal(again.Ay, spec.Ay)

    one = FamilySpec(binary, ["x^2"], 3, [[7]])
    data1 = one.to_json()
    assert "Ay" not in data1
    assert FamilySpec.from_json(data1).Ay is None


# ------------------------------------------------------------- MCM syzygy


def test_mcm_module_certified(fermat, binary):
    om, ok = mcm_module(two_param(fermat, [[1]], [[2]]))
    assert ok
    assert om.gen_degrees == (4, 5, 5, 6)
    om1, ok1 = mcm_module(FamilySpec(binary, ["x^2"], 3, [[0]]))
    assert ok1
    assert all(d >= 2 for d in om1.gen_degrees)


def test_chained_module_quotient_matches_reduce_mod(fermat):
    # mcm_verified carries N/y1 N over R to the next stage; it presents the
    # same module as the syzygy over R/(y1)
    spec = two_param(fermat, [[0, 1], [0, 0]], [[1, 0], [0, 1]])
    syzygy = FamilyMember(spec).syzygy
    y1 = spec.sequence[0]
    chained = verify_regular_element(syzygy, y1)
    assert chained is not None
    assert chained.hilbert_numerator == syzygy.reduce_mod([y1]).hilbert_numerator


def test_mcm_rejects_a_finite_length_module(binary):
    # the member over R is killed by the sequence, so y1 is a zerodivisor
    # on it; standing in for the syzygy, it fails the MCM check
    bundle = FamilyMember(FamilySpec(binary, ["x^2"], 3, [[1]]))
    assert verify_regular_element(bundle.over_ring, bundle.spec.sequence[0]) is None
    bundle.__dict__["syzygy"] = bundle.over_ring
    assert bundle.mcm_verified is False


def test_syzygy_nonzero_after_full_reduction(fermat):
    # MCM of positive rank: killing the whole system of parameters must
    # leave a nonzero finite-length module
    spec = two_param(fermat, [[1]], [[2]])
    om, ok = mcm_module(spec)
    assert ok
    hf = om.reduce_mod(list(spec.sequence)).hilbert_function()
    assert sum(hf.values()) > 0


# ---------------------------------------------------- structural checks


def test_shift_embedding_fermat(fermat):
    spec = two_param(fermat, [[1]], [[2]])
    rep = verify_shift_embedding(spec)
    assert rep["passed"] is True
    rows = {r["t"]: r for r in rep["rows"]}
    assert rows[4]["submodule"] == 1 and rows[4]["shifted_member"] == 1
    assert rows[6]["submodule"] == 4
    assert all(r["match"] for r in rep["rows"])


def test_resolution_shape_fermat(fermat):
    spec = two_param(fermat, [[1]], [[2]])
    rep = verify_resolution_shape(spec)
    assert rep["passed"] is True
    rows = {r["i"]: r for r in rep["rows"]}
    assert rows[1]["koszul"] == [(2, 2)]
    assert rows[1]["resolution"] == [(2, 2), (4, 1)]
    assert rows[2]["koszul"] == [(4, 1)]
    assert rows[2]["bound"] == 5


def test_structural_checks_one_parameter(binary):
    spec = FamilySpec(binary, ["x^2"], 3, [[0, 1], [0, 0]])
    bundle = FamilyMember(spec)
    assert verify_shift_embedding(spec, bundle)["passed"]
    shape = verify_resolution_shape(spec, bundle)
    assert shape["passed"]
    # Koszul part doubled by the two copies
    assert shape["rows"][1]["koszul"] == [(2, 2)]


# ------------------------------------------------------------ isomorphism


def test_iso_scalars_differ(fermat):
    a = two_param(fermat, [[1]], [[2]])
    b = two_param(fermat, [[1]], [[3]])
    cert = iso_test(a, b)
    assert cert.outcome == "NotIsomorphic"
    assert cert.solution_space_dim == 0


def test_iso_scaled_jordan(fermat):
    a = two_param(fermat, [[0, 1], [0, 0]], [[1, 0], [0, 1]])
    b = two_param(fermat, [[0, 5], [0, 0]], [[1, 0], [0, 1]])
    cert = iso_test(a, b)
    assert cert.outcome == "Isomorphic"
    sigma = np.array(cert.witness, dtype=np.int64)
    assert is_invertible(sigma, P)
    assert np.array_equal(mat_mul(sigma, a.Ax, P), mat_mul(b.Ax, sigma, P))
    assert np.array_equal(mat_mul(sigma, a.Ay, P), mat_mul(b.Ay, sigma, P))


def test_iso_frame_mismatch(fermat, binary):
    a = two_param(fermat, [[1]], [[2]])
    b = two_param(fermat, [[1]], [[2]], basis=["x*z^3", "x*y*z^2", "y*z^3"])
    with pytest.raises(InputError, match="frames"):
        iso_test(a, b)
    c = FamilySpec(binary, ["x^2"], 3, [[1]])
    with pytest.raises(InputError, match="frames"):
        iso_test(a, c)


def random_commuting_pair(rng, n):
    Ax = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)],
                  dtype=np.int64)
    # any polynomial in Ax commutes with it
    coeffs = [rng.randrange(P) for _ in range(n)]
    Ay = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for cf in coeffs:
        Ay = (Ay + cf * power) % P
        power = mat_mul(power, Ax, P)
    return Ax, Ay


def random_invertible(rng, n):
    while True:
        s = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)],
                     dtype=np.int64)
        if is_invertible(s, P):
            return s


def test_strictness_forward_conjugation(fermat):
    rng = random.Random(11)
    for trial in range(6):
        n = 2
        Ax, Ay = random_commuting_pair(rng, n)
        sigma = random_invertible(rng, n)
        inv = inverse(sigma, P)
        Bx = mat_mul(mat_mul(sigma, Ax, P), inv, P)
        By = mat_mul(mat_mul(sigma, Ay, P), inv, P)
        a = two_param(fermat, Ax, Ay)
        b = two_param(fermat, Bx, By)
        cert = iso_test(a, b, seed=trial)
        assert cert.outcome == "Isomorphic"


def test_strictness_forward_syzygy_invariants(fermat):
    # conjugate data must give the same resolution shape and reduced
    # Hilbert function for the MCM syzygies
    rng = random.Random(23)
    Ax, Ay = random_commuting_pair(rng, 2)
    sigma = random_invertible(rng, 2)
    inv = inverse(sigma, P)
    Bx = mat_mul(mat_mul(sigma, Ax, P), inv, P)
    By = mat_mul(mat_mul(sigma, Ay, P), inv, P)
    a = FamilyMember(two_param(fermat, Ax, Ay))
    b = FamilyMember(two_param(fermat, Bx, By))
    assert a.resolution.betti() == b.resolution.betti()
    ys = list(a.spec.sequence)
    assert (a.syzygy.reduce_mod(ys).hilbert_function()
            == b.syzygy.reduce_mod(ys).hilbert_function())


def test_strictness_reverse_scalars(fermat):
    # distinct scalar pairs give non-isomorphic members and visibly
    # different relation lines in the degree-c component
    pairs = [(1, 2), (1, 3), (2, 2), (0, 7)]
    specs = [two_param(fermat, [[a]], [[b]]) for a, b in pairs]
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            cert = iso_test(specs[i], specs[j])
            assert cert.outcome == "NotIsomorphic"
            va = np.array([1, pairs[i][0], pairs[i][1]], dtype=np.int64)
            vb = np.array([1, pairs[j][0], pairs[j][1]], dtype=np.int64)
            assert mat_rank(np.stack([va, vb]), P) == 2


def test_module_level_oracle_agrees(fermat):
    # the matrix verdict matches genuine module isomorphism, tested via
    # simultaneous conjugacy of the full variable-action tuples
    a = two_param(fermat, [[0, 1], [0, 0]], [[1, 0], [0, 1]])
    b = two_param(fermat, [[0, 5], [0, 0]], [[1, 0], [0, 1]])
    c = two_param(fermat, [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    acts = {}
    for name, spec in (("a", a), ("b", b), ("c", c)):
        mats, terms = action_matrices(build_family_member(spec))
        acts[name] = mats
    assert simultaneous_conjugacy(acts["a"], acts["b"], P, seed=3)["verdict"] == "Isomorphic"
    assert iso_test(a, b).outcome == "Isomorphic"
    assert simultaneous_conjugacy(acts["a"], acts["c"], P, seed=3)["verdict"] == "NonIsomorphic"
    assert iso_test(a, c).outcome == "NotIsomorphic"


def test_single_matrix_brute_oracle():
    # one-parameter iso reduces to plain conjugacy; check against brute
    # force over F_3 on 2x2 matrices
    from itertools import product as iproduct

    p = 3
    rng = random.Random(5)
    gl = [np.array(m, dtype=np.int64).reshape(2, 2)
          for m in iproduct(range(p), repeat=4)
          if is_invertible(np.array(m, dtype=np.int64).reshape(2, 2), p)]
    for _ in range(25):
        A = as_matrix([[rng.randrange(p) for _ in range(2)] for _ in range(2)], p)
        B = as_matrix([[rng.randrange(p) for _ in range(2)] for _ in range(2)], p)
        brute = any(
            np.array_equal(mat_mul(g, A, p), mat_mul(B, g, p)) for g in gl
        )
        cert = simultaneous_conjugacy([A], [B], p, seed=1)
        assert cert["verdict"] in ("Isomorphic", "NonIsomorphic")
        assert (cert["verdict"] == "Isomorphic") == brute


# ---------------------------------------------------- indecomposability


def test_indecomposability_transfer_claim(fermat):
    spec = two_param(fermat, [[0, 1], [0, 0]], [[1, 0], [0, 1]])
    cert = indecomposability_test(spec)
    assert cert["verdict"] == "Indecomposable"
    rep = family_report(spec)
    assert "syzygy_claim" in rep["indecomposability"]
    assert rep["mcm"]["verified"] is True


def test_indecomposability_decomposable(fermat):
    spec = two_param(fermat, [[1, 0], [0, 2]], [[0, 0], [0, 0]])
    cert = indecomposability_test(spec)
    assert cert["verdict"] == "Decomposable"
    assert cert["idempotent"] is not None


# ----------------------------------------------------------- full report


def test_family_report_deterministic(fermat):
    spec = two_param(fermat, [[1]], [[2]])
    rep1 = family_report(spec, seed=0)
    rep2 = family_report(two_param(fermat, [[1]], [[2]]), seed=0)
    blob1 = json.dumps(rep1, sort_keys=True)
    blob2 = json.dumps(rep2, sort_keys=True)
    assert blob1 == blob2
    assert rep1["shift_embedding"]["passed"]
    assert rep1["resolution_shape"]["passed"]
    assert rep1["member"]["length"] == 14


def test_action_matrices_respect_ring_relations(binary):
    spec = FamilySpec(binary, ["x^2"], 3, [[4]])
    mats, terms = action_matrices(build_family_member(spec))
    dim = len(terms)
    assert dim == sum(build_family_member(spec).hilbert_function().values())
    # x^2 = 0 in the reduction, and the variables commute on the module
    assert not mat_mul(mats[0], mats[0], P).any()
    assert np.array_equal(mat_mul(mats[0], mats[1], P), mat_mul(mats[1], mats[0], P))
