"""Family construction, isomorphism transfer, and the structural checks."""

import hashlib
import json
import os
import random
import sys
import warnings

import numpy as np
import pytest

from cmwild import family, modules, rings
from cmwild.errors import InputError
from cmwild.family import (
    FamilySpec,
    action_matrices,
    build_family_member,
    family_report,
    indecomposability_test,
    iso_test,
    verify_resolution_shape,
    verify_shift_embedding,
)
from cmwild.groebner import MAX_DEGREE, ModuleOrder
from cmwild.matalg import (
    as_matrix,
    identity_matrix,
    is_invertible,
    mat_mul,
    rank as mat_rank,
    simultaneous_conjugacy,
    solve_many,
)
from cmwild.modules import ModulePresentation
from cmwild.rings import QuotientRing
from cmwild.wildness import verify_regular_element, wildness_certificate
from test_resolution import with_basis_numerator
from test_resolution_pins import MEMBERS
from test_resolution_pins import ring as pin_ring

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
    pres = spec.over_ring
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
    # R and R/(x^2, y^2), checked at once: rbar is the quotient the check
    # built, and R/(x^2) is never built
    assert len(calls) == 2


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
    spec = two_param(fermat, [[1]], [[2]])
    assert spec.mcm_verified
    assert spec.syzygy.gen_degrees == (4, 5, 5, 6)
    one = FamilySpec(binary, ["x^2"], 3, [[0]])
    assert one.mcm_verified
    assert all(d >= 2 for d in one.syzygy.gen_degrees)


def test_chained_module_quotient_matches_reduce_mod(fermat):
    # the MCM check presents N/(y)N over R/(y); for y = y1 it is the same
    # module as the syzygy over R with y1 times each generator added
    spec = two_param(fermat, [[0, 1], [0, 0]], [[1, 0], [0, 1]])
    syzygy = spec.syzygy
    y1 = spec.sequence[0]
    chained = verify_regular_element(syzygy, y1)
    assert chained is not None
    assert chained.ring == fermat.extend([y1])
    along = [{(j, m): c for m, c in y1.terms.items()} for j in range(syzygy.rank)]
    assert chained.hilbert_numerator == syzygy.quotient(along).hilbert_numerator


def per_degree_shift_rows(spec):
    """The shift-embedding rows counted degree by degree in standard terms,
    over the syzygy reduced by the whole sequence at once."""
    M = spec.member
    omega_bar = spec.syzygy.reduce_mod(spec.sequence)
    quot = omega_bar.quotient([{t: 1} for t in omega_bar.component_terms(spec.m)])
    top = max(omega_bar.top_degree(), spec.m + max(M.top_degree(), 0))
    rows = []
    for t in range(top + 2):
        sub = omega_bar.hilbert_dim(t) - quot.hilbert_dim(t)
        shifted = M.hilbert_dim(t - spec.m)
        rows.append({"t": t, "submodule": sub, "shifted_member": shifted, "match": sub == shifted})
    return rows


def test_mcm_rejects_a_finite_length_module(binary):
    # the member over R is killed by the sequence, so y1 is a zerodivisor
    # on it; standing in for the syzygy, it fails the MCM check
    spec = FamilySpec(binary, ["x^2"], 3, [[1]])
    assert verify_regular_element(spec.over_ring, spec.sequence[0]) is None
    spec.__dict__["syzygy"] = spec.over_ring
    assert spec.mcm_verified is False
    # a rejected check still yields the reduction by the whole sequence
    rows = verify_shift_embedding(spec)["rows"]
    assert rows == per_degree_shift_rows(spec)


def test_mcm_rejects_at_the_second_stage(fermat):
    # N = R/(the variable y): x^2 is regular on N, but y^2 kills N/x^2 N,
    # so the one check of (x^2, y^2) rejects, and the reduced syzygy is the
    # reduction by the whole sequence
    spec = two_param(fermat, [[1]], [[2]])
    spec.__dict__["syzygy"] = ModulePresentation(fermat, [0], [{(0, (0, 1, 0)): 1}])
    x2, y2 = spec.sequence
    assert verify_regular_element(spec.syzygy, x2) is not None
    assert spec.mcm_verified is False
    omega_bar = spec.reduced_syzygy[0]
    one_shot = spec.syzygy.reduce_mod([x2, y2])
    assert omega_bar.ring == one_shot.ring
    assert list(omega_bar.gb.vectors) == list(one_shot.gb.vectors)
    rows = verify_shift_embedding(spec)["rows"]
    assert rows == per_degree_shift_rows(spec)


def test_rejected_mcm_check_builds_one_reduced_basis(monkeypatch, fermat):
    # the member of test_mcm_rejects_at_the_second_stage: the check builds
    # N/(x^2, y^2)N and rejects, and the reduced syzygy is that same
    # quotient, not a second build of it
    spec = two_param(fermat, [[1]], [[2]])
    spec.__dict__["syzygy"] = ModulePresentation(fermat, [0], [{(0, (0, 1, 0)): 1}])
    spec.syzygy.gb  # N's own basis, read by the check for HS(N)
    calls = []
    real = modules.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "buchberger", counting)
    omega_bar, verified = spec.reduced_syzygy
    assert verified is False
    omega_bar.gb
    assert len(calls) == 1
    assert omega_bar is spec.syzygy.reduce_mod(spec.sequence)


@pytest.mark.parametrize("name", ["fermat-n1", "fermat-n2", "binary-n2"])
def test_member_over_ring_and_syzygy_take_known_numerators(name):
    rname, seq, c, Ax, Ay = MEMBERS[name]
    spec = FamilySpec(pin_ring(rname), seq, c, Ax, Ay=Ay)
    family_report(spec)
    for pres in (spec.over_ring, spec.syzygy):
        assert pres._gb is None
        assert pres.hilbert_numerator == with_basis_numerator(pres)


def test_family_report_builds_one_basis_per_stage(monkeypatch, fermat):
    calls = []
    real = modules.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "buchberger", counting)
    spec = two_param(fermat, [[1]], [[2]])
    family_report(spec)
    # M over Rbar, N/(x^2, y^2)N (built by the one MCM check and read by
    # the shift check), and its quotient by the degree-m component; M over
    # R takes M's numerator and N = Omega^2(M) the resolution's, so
    # neither builds a basis
    assert len(calls) == 3


def test_derived_data_is_computed_once_per_spec(monkeypatch, fermat):
    resolutions, bases = [], []
    real_resolution, real_buchberger = family.minimal_resolution, modules.buchberger

    def counting_resolution(*args, **kwargs):
        resolutions.append(args)
        return real_resolution(*args, **kwargs)

    def counting_buchberger(*args, **kwargs):
        bases.append(args)
        return real_buchberger(*args, **kwargs)

    monkeypatch.setattr(family, "minimal_resolution", counting_resolution)
    monkeypatch.setattr(modules, "buchberger", counting_buchberger)
    reported = two_param(fermat, [[1]], [[2]])
    family_report(reported)
    fresh = len(bases)
    # on a spec that holds its derived data, a check builds only its own
    # quotient of N/(y)N by the degree-m component
    verify_shift_embedding(reported)
    verify_resolution_shape(reported)
    own = len(bases) - fresh
    assert own == 1
    resolutions.clear()
    bases.clear()
    spec = two_param(fermat, [[1]], [[2]])
    verify_shift_embedding(spec)
    verify_resolution_shape(spec)
    family_report(spec)
    # the two checks and the report read one member, one resolution and
    # one reduced syzygy
    assert len(resolutions) == 1
    assert len(bases) == fresh + own


def test_syzygy_nonzero_after_full_reduction(fermat):
    # MCM of positive rank: killing the whole system of parameters must
    # leave a nonzero finite-length module
    spec = two_param(fermat, [[1]], [[2]])
    assert spec.mcm_verified
    hf = spec.syzygy.reduce_mod(list(spec.sequence)).hilbert_function()
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
    assert rep["rows"] == per_degree_shift_rows(spec)


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
    assert verify_shift_embedding(spec)["passed"]
    shape = verify_resolution_shape(spec)
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


def inverse(A, p):
    """A^-1 for an invertible A, column by column from the solver."""
    return np.stack(solve_many(A, identity_matrix(A.shape[0]), p), axis=1)


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
    a = two_param(fermat, Ax, Ay)
    b = two_param(fermat, Bx, By)
    assert a.resolution.betti() == b.resolution.betti()
    ys = list(a.sequence)
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


def jordan_report_digest(fermat, n):
    """The first 16 hex digits of the SHA-256 of the sorted JSON report of
    the member with Ax the n x n Jordan block with eigenvalue 1, Ay = Ax^2."""
    Ax = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    Ay = mat_mul(as_matrix(Ax, P), as_matrix(Ax, P), P).tolist()
    rep = family_report(two_param(fermat, Ax, Ay))
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()[:16]


def test_fermat_member_n4_report_digest(fermat):
    assert jordan_report_digest(fermat, 4) == "6b5818eedd27f707"


@pytest.mark.parametrize("n, digest", [(5, "0417d090afbc3e06"), (6, "e7727bd3399a4b15")])
def test_fermat_jordan_member_report_digest(fermat, n, digest):
    assert jordan_report_digest(fermat, n) == digest


def test_action_matrices_respect_ring_relations(binary):
    spec = FamilySpec(binary, ["x^2"], 3, [[4]])
    mats, terms = action_matrices(build_family_member(spec))
    dim = len(terms)
    assert dim == sum(build_family_member(spec).hilbert_function().values())
    # x^2 = 0 in the reduction, and the variables commute on the module
    assert not mat_mul(mats[0], mats[0], P).any()
    assert np.array_equal(mat_mul(mats[0], mats[1], P), mat_mul(mats[1], mats[0], P))


def test_member_pipeline_keeps_vectors_packed(fermat, monkeypatch):
    # past the spec and the member's own tuple-keyed columns, no layer
    # unpacks a vector for the next one to pack again: the report unpacks
    # nothing, not even leading terms (the Hilbert numerator reads them
    # packed), and the action matrices pack no tuple-keyed vector
    spec = two_param(fermat, [[1]], [[2]])
    member = build_family_member(spec)
    pack, unpack = ModuleOrder.pack_vec, ModuleOrder.unpack_vec
    unpacked_by, tuple_packs = [], []

    def traced_unpack(self, items):
        code = sys._getframe(1).f_code
        unpacked_by.append((os.path.basename(code.co_filename), code.co_name))
        return unpack(self, items)

    def traced_pack(self, v, p):
        if v and type(next(iter(v))) is not int:
            tuple_packs.append(v)
        return pack(self, v, p)

    monkeypatch.setattr(ModuleOrder, "unpack_vec", traced_unpack)
    family_report(spec)
    assert unpacked_by == []
    monkeypatch.setattr(ModuleOrder, "pack_vec", traced_pack)
    mats, terms = action_matrices(member)
    assert len(terms) == 14 and len(mats) == 3
    assert tuple_packs == []


def test_action_matrices_refuse_shifts_past_the_degree_limit():
    # k e_0 + k e_1 with e_1 in degree MAX_DEGREE: x e_1 is a term past the
    # packed fields, counted from the lowest generator degree
    ring = QuotientRing.from_strings(["x"], ["x"])
    pres = ModulePresentation(ring, [0, MAX_DEGREE], [])
    assert pres.hilbert_function() == {0: 1, MAX_DEGREE: 1}
    with pytest.raises(InputError, match="past the Groebner kernel's limit"):
        action_matrices(pres)


def test_action_matrices_of_the_zero_module(binary):
    # a rank-0 presentation has no generator degrees: one empty matrix per
    # variable and an empty basis
    rbar = binary.extend([binary.parse("x^2"), binary.parse("y^2")])
    mats, terms = action_matrices(ModulePresentation(rbar, [], []))
    assert terms == []
    assert [mat.shape for mat in mats] == [(0, 0), (0, 0)]


# ---------------------------------------------- the window's lower end
#
# Two cubics in four variables with the linear sequence z, w: m - d + 1 = 1,
# so the window starts at c = 2, the lowest degree the criterion allows.
# The verdict there must be backed by the family it asserts: members built
# at c = 2 pass every structural check and are indecomposable.

TWO_CUBICS = (["x", "y", "z", "w"], ["x^3+y^3+z^3+w^3", "x^3+2*y^3+3*z^3+4*w^3"])
C2_MEMBERS = {
    "n1-scalars": ([[1]], [[2]]),
    "n2-jordan-identity": ([[0, 1], [0, 0]], [[1, 0], [0, 1]]),
    "n2-jordan-nilpotent": ([[3, 1], [0, 3]], [[0, 1], [0, 0]]),
}


def test_two_cubics_certified_at_c2():
    rep = wildness_certificate(QuotientRing.from_strings(*TWO_CUBICS), sequence=["z", "w"])
    assert (rep.m, rep.dimension, rep.window[0]) == (2, 2, 2)
    assert (rep.verdict, rep.witness_c, rep.witness_dim) == ("CMWild", 2, 3)


@pytest.mark.parametrize("member", sorted(C2_MEMBERS))
def test_family_at_c2_backs_the_verdict(member):
    Ax, Ay = C2_MEMBERS[member]
    spec = FamilySpec(QuotientRing.from_strings(*TWO_CUBICS), ["z", "w"], 2, Ax, Ay=Ay)
    rep = family_report(spec)
    assert rep["mcm"]["verified"]
    assert rep["shift_embedding"]["passed"]
    assert rep["resolution_shape"]["passed"]
    assert rep["indecomposability"]["verdict"] == "Indecomposable"
