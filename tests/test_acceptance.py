"""Acceptance gate: the ten headline criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Every numeric claim here is exact; the time budgets
are generous desk-scale bounds.
"""

import json
import random
import time
from itertools import product as iproduct

import numpy as np
import pytest
from oracles import polynomial_ring

from cmwild.family import (
    FamilySpec,
    family_report,
    verify_resolution_shape,
    verify_shift_embedding,
)
from cmwild.matalg import (
    identity_matrix,
    is_invertible,
    mat_mul,
    simultaneous_conjugacy,
    solve_many,
)
from cmwild.modules import ModulePresentation
from cmwild.resolution import koszul_complex, minimal_resolution
from cmwild.rings import QuotientRing
from cmwild.wildness import (
    complete_intersection_certificate,
    hypersurface_certificate,
    verify_regular_element,
    wildness_certificate,
)

P = 32003


def record(num: int, desc: str, cond: bool, detail: str = "") -> None:
    status = "PASS" if cond else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"[criterion {num:2d}] {status} {desc}{tail}")
    assert cond, f"criterion {num} failed: {desc}{tail}"


# ----------------------------------------------------------- criteria 1-4


def test_criterion_1_fermat_quartic_wild():
    t0 = time.monotonic()
    rep = hypersurface_certificate(
        QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)
    )
    dt = time.monotonic() - t0
    ok = (
        rep.verdict == "CMWild"
        and [str(y) for y in rep.sequence] == ["x^2", "y^2"]
        and rep.m == 4
        and rep.witness_c == 4
        and rep.witness_dim == 3
        and dt < 5.0
    )
    record(1, "quartic surface ring is CM-wild", ok,
           f"verdict={rep.verdict} c={rep.witness_c} dim={rep.witness_dim}"
           f" in {dt:.2f}s")


def test_criterion_2_binary_quartic_strictly_infinite():
    t0 = time.monotonic()
    rep = hypersurface_certificate(
        QuotientRing.from_strings(["x", "y"], ["x^4+y^4"], P)
    )
    dt = time.monotonic() - t0
    ok = (
        rep.verdict == "StrictlyCMInfinite"
        and rep.witness_c == 3
        and rep.witness_dim == 2
        and dt < 2.0
    )
    record(2, "binary quartic ring is strictly CM-infinite", ok,
           f"verdict={rep.verdict} c={rep.witness_c} dim={rep.witness_dim}"
           f" in {dt:.2f}s")


def test_criterion_3_complete_intersection_wild():
    t0 = time.monotonic()
    rep = complete_intersection_certificate(
        QuotientRing.from_strings(
            ["x0", "x1", "x2", "x3"],
            ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"],
            P,
        )
    )
    dt = time.monotonic() - t0
    ok = (
        rep.verdict == "CMWild"
        and rep.witness_c == 3
        and rep.witness_dim >= 3
        and rep.witness_dim == 3  # frozen exact value from the scan oracle
        and dt < 10.0
    )
    record(3, "cubic-quadric complete intersection is CM-wild", ok,
           f"verdict={rep.verdict} c={rep.witness_c} dim={rep.witness_dim}"
           f" in {dt:.2f}s")


def test_criterion_4_fermat_cubic_inconclusive():
    t0 = time.monotonic()
    rep = hypersurface_certificate(
        QuotientRing.from_strings(["x", "y", "z"], ["x^3+y^3+z^3"], P)
    )
    dt = time.monotonic() - t0
    scan = dict(rep.scan)
    ok = rep.verdict == "Inconclusive" and scan.get(4) == 1 and dt < 5.0
    record(4, "cubic surface control stays Inconclusive", ok,
           f"verdict={rep.verdict} dim(R_4)={scan.get(4)} in {dt:.2f}s")


# ------------------------------------------------- criterion 5: Koszul


def test_criterion_5_koszul_equals_minimal_resolution():
    t0 = time.monotonic()
    poly2 = polynomial_ring(["x", "y"], P)
    fermat = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)
    binary = QuotientRing.from_strings(["x", "y"], ["x^4+y^4"], P)
    cases = [
        (poly2, ["x", "y"]),
        (poly2, ["x+y", "y"]),
        (poly2, ["x", "x+2*y"]),
        (poly2, ["x+y", "x+32002*y"]),
        (fermat, ["x^2", "y^2"]),
        (fermat, ["x^2+y^2", "y^2"]),
        (fermat, ["x^2", "y^2+z^2"]),
        (binary, ["x^2"]),
        (binary, ["x^2+y^2"]),
        (binary, ["x^2+x*y"]),
    ]
    checked = 0
    for ring, seq_str in cases:
        ys = [ring.parse(s) for s in seq_str]
        current = ring
        for y in ys:
            assert verify_regular_element(current, y), f"{y} not regular"
            current = current.extend([y])
        pres = ModulePresentation(
            ring, [0], [{(0, m): c for m, c in y.terms.items()} for y in ys]
        )
        res = minimal_resolution(pres, len(ys))
        kos = koszul_complex(ring, ys)
        assert res.betti() == kos.betti(), f"betti mismatch for {seq_str}"
        checked += 1
    dt = time.monotonic() - t0
    ok = checked == 10 and dt < 30.0
    record(5, "minimal resolutions of verified reductions match Koszul", ok,
           f"{checked} sequences over 3 rings in {dt:.2f}s")


# ------------------------------------- criteria 6/7/9: the family corpus


def _random_commuting_pair(rng, n):
    Ax = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)],
                  dtype=np.int64)
    Ay = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for _ in range(n):
        Ay = (Ay + rng.randrange(P) * power) % P
        power = mat_mul(power, Ax, P)
    return Ax, Ay


@pytest.fixture(scope="module")
def family_corpus():
    """20 random instances per base ring; each spec caches its derived data."""
    rng = random.Random(2026)
    fermat = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)
    binary = QuotientRing.from_strings(["x", "y"], ["x^4+y^4"], P)
    corpus = []
    for _ in range(20):
        n = rng.choice([1, 1, 2])
        Ax, Ay = _random_commuting_pair(rng, n)
        spec = FamilySpec(fermat, ["x^2", "y^2"], 4, Ax, Ay=Ay)
        corpus.append(("fermat", spec))
    for _ in range(20):
        n = rng.choice([1, 2])
        Ax = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)],
                      dtype=np.int64)
        spec = FamilySpec(binary, ["x^2"], 3, Ax)
        corpus.append(("binary", spec))
    return corpus


def test_criterion_6_shift_embedding_suite(family_corpus):
    t0 = time.monotonic()
    passed = 0
    for _name, spec in family_corpus:
        rep = verify_shift_embedding(spec)
        if rep["passed"]:
            passed += 1
    dt = time.monotonic() - t0
    ok = passed == len(family_corpus) and dt < 120.0
    record(6, "degree-shift embedding holds on the random corpus", ok,
           f"{passed}/{len(family_corpus)} instances in {dt:.2f}s")


def test_criterion_7_resolution_shape_suite(family_corpus):
    t0 = time.monotonic()
    passed = 0
    for _name, spec in family_corpus:
        rep = verify_resolution_shape(spec)
        if rep["passed"]:
            passed += 1
    dt = time.monotonic() - t0
    ok = passed == len(family_corpus) and dt < 120.0
    record(7, "Koszul-plus-high-degrees resolution shape holds", ok,
           f"{passed}/{len(family_corpus)} instances in {dt:.2f}s")


def test_criterion_9_mcm_certification(family_corpus):
    t0 = time.monotonic()
    verified = sum(1 for _n, spec in family_corpus if spec.mcm_verified)
    dt = time.monotonic() - t0
    ok = verified == len(family_corpus)
    record(9, "every syzygy module passes the MCM regularity check", ok,
           f"{verified}/{len(family_corpus)} certified in {dt:.2f}s")


# -------------------------------------------- criterion 8: conjugacy


def test_criterion_8_conjugacy_and_brute_force():
    t0 = time.monotonic()
    rng = random.Random(7)

    # 50 conjugate pairs over the working prime: must come back Isomorphic
    # with an exact verified witness
    iso_ok = 0
    for trial in range(50):
        n = rng.choice([2, 2, 3])
        As = [
            np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)],
                     dtype=np.int64)
            for _ in range(2)
        ]
        while True:
            sigma = np.array(
                [[rng.randrange(P) for _ in range(n)] for _ in range(n)],
                dtype=np.int64,
            )
            if is_invertible(sigma, P):
                break
        inv = np.stack(solve_many(sigma, identity_matrix(n), P), axis=1)
        Bs = [mat_mul(mat_mul(sigma, A, P), inv, P) for A in As]
        cert = simultaneous_conjugacy(As, Bs, P, seed=trial)
        if cert["verdict"] != "Isomorphic":
            continue
        w = np.array(cert["witness"], dtype=np.int64)
        if is_invertible(w, P) and all(
            np.array_equal(mat_mul(w, A, P), mat_mul(B, w, P))
            for A, B in zip(As, Bs)
        ):
            iso_ok += 1

    # 50 random pairs over F_2 and F_3 at n = 2: agreement with the full
    # GL_n enumeration in every single case, no Undecided allowed
    brute_ok = 0
    for trial in range(50):
        p = 2 if trial % 2 == 0 else 3
        gl = [np.array(m, dtype=np.int64).reshape(2, 2)
              for m in iproduct(range(p), repeat=4)
              if is_invertible(np.array(m, dtype=np.int64).reshape(2, 2), p)]
        As = [np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)],
                       dtype=np.int64) for _ in range(2)]
        Bs = [np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)],
                       dtype=np.int64) for _ in range(2)]
        brute = any(
            all(np.array_equal(mat_mul(g, A, p), mat_mul(B, g, p))
                for A, B in zip(As, Bs))
            for g in gl
        )
        cert = simultaneous_conjugacy(As, Bs, p, seed=trial)
        if cert["verdict"] == ("Isomorphic" if brute else "NonIsomorphic"):
            brute_ok += 1

    dt = time.monotonic() - t0
    ok = iso_ok == 50 and brute_ok == 50 and dt < 60.0
    record(8, "conjugacy decisions match witnesses and the brute oracle", ok,
           f"witnessed {iso_ok}/50, oracle-agreed {brute_ok}/50 in {dt:.2f}s")


# --------------------------------------------- criterion 10: determinism


def test_criterion_10_byte_identical_reports(family_corpus):
    fermat = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)
    blobs = []
    for _ in range(2):
        rep = wildness_certificate(
            QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P),
            seed=0,
        )
        blobs.append(json.dumps(rep.to_json(), sort_keys=True,
                                separators=(",", ":")))
    spec1 = FamilySpec(fermat, ["x^2", "y^2"], 4, [[1]], Ay=[[2]])
    spec2 = FamilySpec(fermat, ["x^2", "y^2"], 4, [[1]], Ay=[[2]])
    fam = [json.dumps(family_report(s, seed=0), sort_keys=True,
                      separators=(",", ":")) for s in (spec1, spec2)]
    ok = blobs[0] == blobs[1] and fam[0] == fam[1]
    record(10, "same seed gives byte-identical reports", ok,
           f"wildness {len(blobs[0])}B, family {len(fam[0])}B")
