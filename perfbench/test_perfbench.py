"""Tests of the benchmark itself: bind points, trace fidelity, output checks.

    python3 -m pytest -q perfbench/test_perfbench.py

Not part of the program's test suite (``testpaths`` names ``tests/``); it
takes about half a minute because it runs every workload once plain and
once traced.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_program()

import modp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from layers import metric_names  # noqa: E402

SEED = 3

# Span names that must record calls on each workload.
EXPECTED_CALLS = {
    "scan": (
        "groebner.buchberger.ideal", "groebner.module_numerator", "groebner.standard_terms",
        "rings.QuotientRing.extend", "wildness.verify_regular_element.wildness",
        "wildness.find_regular_sequence", "wildness.artinian_reduction",
        "poly.PolyRing.parse", "cli.main",
    ),
    "family": (
        "groebner.buchberger.ideal", "groebner.buchberger.module", "groebner.buchberger.tagged",
        "groebner.TaggedBasis", "groebner.GroebnerBasis.normal_form",
        "modules.ModulePresentation.quotient", "modules.ModulePresentation.reduce_mod",
        "wildness.verify_regular_element.family", "resolution.minimal_resolution",
        "resolution.comparison_map", "resolution.koszul_complex",
        "family.verify_shift_embedding", "family.verify_resolution_shape",
        "matalg.endomorphism_indecomposability", "cli.main",
    ),
    "iso_module": (
        "groebner.GroebnerBasis.normal_form", "family.action_matrices", "matalg.rref",
        "matalg.intertwiner_basis", "matalg.simultaneous_conjugacy",
    ),
    "iso_matrix": (
        "matalg.rref", "matalg.nullspace", "matalg.mat_mul", "matalg.is_invertible",
        "matalg.intertwiner_basis", "matalg.simultaneous_conjugacy",
        "matalg.endomorphism_indecomposability",
    ),
}


class Traced:
    def __init__(self, name, tmp):
        self.items = workloads.build(name, SEED, str(tmp))
        self.tracer = tracing.Tracer()
        runner = run.Runner(self.items, self.tracer)
        self.plain = runner.run_pass(False)
        self.tracer.install()
        try:
            self.traced = runner.run_pass(True)
        finally:
            self.tracer.uninstall()
        self.runner = runner


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced(request, tmp_path_factory):
    return request.param, Traced(request.param, tmp_path_factory.mktemp(request.param))


def test_outputs_pass_their_checks(traced):
    _name, t = traced
    assert t.runner.failed == 0, t.runner.problems


def test_traced_outputs_match_plain_outputs(traced):
    _name, t = traced
    assert t.traced.digests == t.plain.digests


def test_wrappers_record_calls(traced):
    name, t = traced
    silent = [s for s in EXPECTED_CALLS[name] if not t.tracer.stats[s]["calls"]]
    assert not silent


def test_top_level_spans_cover_item_time(traced):
    name, t = traced
    covered = sum(c for c, _ in t.traced.covered)
    total = sum(dt for _, dt in t.traced.covered)
    print(f"{name}: top-level spans cover {covered / total:.4f} of item time")
    assert covered / total > 0.9
    assert all(c / dt > 0.5 for c, dt in t.traced.covered)


def test_no_wrapper_outside_traced_passes(traced):
    _name, _t = traced
    assert tracing.wrappers_installed() == []


def test_tagged_bases_seen_from_every_constructing_module(traced):
    name, t = traced
    if name != "family":
        pytest.skip("family builds tagged bases from resolution and comparison maps")
    spans = t.tracer.spans
    parents = {spans[s[4]][1] for s in spans if s[1] == "groebner.TaggedBasis" and s[4] >= 0}
    assert {"resolution.minimal_resolution", "resolution.comparison_map"} <= parents


def test_install_rebinds_every_importing_module():
    tr = tracing.Tracer()
    tr.install()
    try:
        bound = {(ns, attr): name for ns, attr, name, _obj, _orig in tr.bindings}
        assert tracing.wrappers_installed()
    finally:
        tr.uninstall()
    assert tracing.wrappers_installed() == []
    assert bound[("rings", "buchberger")] == "groebner.buchberger.ideal"
    assert bound[("modules", "buchberger")] == "groebner.buchberger.module"
    assert bound[("groebner", "buchberger")] == "groebner.buchberger.tagged"
    assert bound[("wildness", "verify_regular_element")] == "wildness.verify_regular_element.wildness"
    assert bound[("family", "verify_regular_element")] == "wildness.verify_regular_element.family"
    for ns in ("family", "cli"):
        assert (ns, "minimal_resolution") in bound
    assert ("groebner.TaggedBasis", "__init__") in bound


def test_per_layer_names_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert declared == metric_names()


# ------------------------------------------------ the checks catch mistakes


def _first_output(name, tmp_path, label=None):
    items = workloads.build(name, SEED, str(tmp_path))
    item = next(i for i in items if label is None or i.label == label)
    _dt, out = item.run()
    assert item.check(out) == []
    return item, out


def _tampered_report(out, edit):
    rc, stdout = out
    rep = json.loads(stdout)
    edit(rep)
    return rc, json.dumps(rep).encode()


def test_scan_check_catches_a_wrong_dimension(tmp_path):
    item, out = _first_output("scan", tmp_path, "v3-d4-0")

    def edit(rep):
        rep["scan"][0]["dim"] += 1

    assert item.check(_tampered_report(out, edit))


def test_scan_check_catches_a_wrong_reference_verdict(tmp_path):
    item, out = _first_output("scan", tmp_path, "ref3")

    def edit(rep):
        rep["verdict"] = "CMWild"

    assert item.check(_tampered_report(out, edit))


def test_family_check_catches_a_failed_check(tmp_path):
    item, out = _first_output("family", tmp_path)

    def edit(rep):
        rep["shift_embedding"]["passed"] = False

    assert item.check(_tampered_report(out, edit))


def test_iso_check_catches_a_bad_witness(tmp_path):
    item, out = _first_output("iso_matrix", tmp_path, "n4-0")
    cert, ind = copy.deepcopy(out)
    cert["witness"][0][0] = (cert["witness"][0][0] + 1) % workloads.P
    assert item.check((cert, ind))


def test_iso_module_check_catches_a_verdict_mismatch(tmp_path):
    item, out = _first_output("iso_module", tmp_path, "binary-n2-0-copy")
    spec_a, spec_b, As, Bs, cert = out
    wrong = dict(cert, verdict="NonIsomorphic", witness=None)
    assert item.check((spec_a, spec_b, As, Bs, wrong))


def test_indecomposability_oracle_agrees_with_enumeration():
    import random

    rng = random.Random(1)
    for _ in range(40):
        A = modp.random_matrix(rng, 2, 3)
        assert modp.indecomposable_single(A, 3) == (not modp.brute_decomposable([A], 3))


def test_ci_hilbert_function():
    assert workloads.ci_hilbert_function([4, 2, 2]) == [1, 3, 4, 4, 3, 1]
    assert workloads.ci_hilbert_function([2]) == [1, 1]


def test_modp_inverse_and_rank():
    import random

    rng = random.Random(2)
    S = modp.random_invertible(rng, 6, 101)
    assert np.array_equal(modp.mul(S, modp.inverse(S, 101), 101), np.eye(6, dtype=np.int64))
    S[:, 0] = 0
    assert modp.rank(S, 101) == 5
