"""The four benchmark workloads: seeded inputs, timed items, output checks.

Each workload builds a fixed corpus from its seed during set-up.  The
structure of a corpus (ring shapes, matrix sizes, how many of each) is the
same for every seed; the seed picks only coefficients and matrix entries,
so run times depend on the seed as little as generic inputs allow.

An item is one user-visible operation.  ``Item.run`` times the calls into
the program and returns ``(seconds, output)``; ``Item.check`` lists what is
wrong with an output and runs outside the timed region.  Every item builds
fresh program objects, because ``QuotientRing``, ``ModulePresentation`` and
``FamilyMember`` cache Groebner data on the instance and a user pays for
that data on every run.  Program calls go through module attributes
(``cli.main``, ``matalg.rref`` ...) so that the traced passes see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement
from time import perf_counter
from typing import Any, Callable

from cmwild import cli, family, matalg

import modp

P = 32003


@dataclass
class Item:
    label: str
    run: Callable[[], tuple[float, Any]]
    check: Callable[[Any], list]
    digest: Callable[[Any], str]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(name: str, seed: int, workdir: str) -> list[Item]:
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, workdir)


# ---------------------------------------------------------------- CLI items


def _cli_item(label, argv, check) -> Item:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            rc = cli.main(argv)
            dt = perf_counter() - t0
        return dt, (rc, buf.getvalue().encode())

    return Item(label, run, check, lambda out: sha(out[1]))


def _parse_report(out) -> tuple[dict | None, list]:
    rc, stdout = out
    if rc != 0:
        return None, [f"exit code {rc}"]
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _write_json(workdir, filename, data) -> str:
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


# --------------------------------------------------------------------- scan

# (number of variables, relation degrees, rings per seed).  Small rings
# dominate, as in interactive use; the five-variable shapes carry the tail.
# Five-variable complete intersections of two quartics or quintics take
# 0.6-3 s each and are left out so that a pass repeats within a run.
SCAN_SHAPES = (
    (2, (2,), 4), (2, (3,), 4), (2, (4,), 4), (2, (5,), 4),
    (3, (2,), 4), (3, (3,), 4), (3, (4,), 4), (3, (5,), 4),
    (3, (2, 2), 2), (3, (2, 3), 2), (3, (3, 3), 2), (3, (2, 4), 2),
    (3, (3, 4), 2), (3, (4, 4), 2), (3, (2, 5), 2), (3, (5, 5), 2),
    (4, (2,), 3), (4, (3,), 3), (4, (4,), 3), (4, (5,), 3),
    (4, (2, 2), 2), (4, (2, 3), 2), (4, (3, 3), 2), (4, (2, 4), 2),
    (4, (3, 4), 2), (4, (2, 5), 2), (4, (4, 4), 1),
    (4, (2, 2, 2), 2), (4, (2, 2, 3), 2), (4, (2, 3, 3), 2),
    (5, (2,), 2), (5, (3,), 2), (5, (4,), 1),
    (5, (2, 2), 2), (5, (2, 3), 2), (5, (2, 4), 2), (5, (3, 3), 1),
    (5, (2, 2, 2), 1), (5, (2, 2, 3), 1),
)

# The README's reference rings with their published verdicts:
# (vars, relations, verdict, witness c, witness dim).
REFERENCE_RINGS = (
    (["x", "y", "z"], ["x^4+y^4+z^4"], "CMWild", 4, 3),
    (["x", "y"], ["x^4+y^4"], "StrictlyCMInfinite", 3, 2),
    (["x0", "x1", "x2", "x3"], ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"], "CMWild", 3, 3),
    (["x", "y", "z"], ["x^3+y^3+z^3"], "Inconclusive", None, None),
)


def _monomial(names, exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def random_form(rng, names, degree: int) -> str:
    """Dense homogeneous form: every monomial of the degree, coefficient in
    1..p-1."""
    terms = []
    for combo in combinations_with_replacement(range(len(names)), degree):
        exps = [combo.count(i) for i in range(len(names))]
        terms.append(f"{rng.randrange(1, P)}*{_monomial(names, exps)}")
    return "+".join(terms)


def _form_degree(text: str) -> int:
    term = re.split(r"[+-]", text)[0]
    deg = 0
    for factor in term.split("*"):
        if factor[0].isalpha():
            base, _, exp = factor.partition("^")
            deg += int(exp) if exp else 1
    return deg


def ci_hilbert_function(degrees) -> list[int]:
    """Hilbert function of an Artinian complete intersection with the given
    generator degrees: the coefficients of prod (1 + t + ... + t^(d-1))."""
    hf = [1]
    for d in degrees:
        out = [0] * (len(hf) + d - 1)
        for i, c in enumerate(hf):
            for j in range(d):
                out[i + j] += c
        hf = out
    return hf


def scan_errors(rep: dict, names, rel_degrees) -> list[str]:
    """Check a ``check`` report against the complete-intersection oracle.

    Generic dense forms are a regular sequence, and the report's sequence is
    regular on the ring, so the Artinian reduction is a complete
    intersection whose Hilbert function follows from the degrees alone.
    """
    errs = []
    nv, k = len(names), len(rel_degrees)
    if rep["ring"]["vars"] != list(names) or rep["ring"]["p"] != P:
        errs.append("ring echo differs from the input")
    if len(rep["ring"]["relations"]) != k:
        errs.append("relation count differs from the input")
    d = nv - k
    if rep["dimension"] != d or len(rep["sequence"]) != d:
        return errs + [f"dimension {rep['dimension']} with {len(rep['sequence'])}"
                       f" sequence elements, expected {d}"]
    seq_degrees = [_form_degree(s) for s in rep["sequence"]]
    m = sum(seq_degrees)
    if rep["m"] != m:
        errs.append(f"m = {rep['m']} but the sequence degrees sum to {m}")
    hf = ci_hilbert_function(list(rel_degrees) + seq_degrees)
    start, top = max(m - d + 2, 1), len(hf) - 1
    if rep["window"] != [start, top]:
        errs.append(f"window {rep['window']} != {[start, top]}")
    want_scan = [{"c": c, "dim": hf[c]} for c in range(start, top + 1)]
    if rep["scan"] != want_scan:
        errs.append("scan dimensions differ from the complete-intersection oracle")
    verdict, wc, wd = "Inconclusive", None, None
    for threshold, name in ((3, "CMWild"), (2, "StrictlyCMInfinite")):
        hit = next((row for row in want_scan if row["dim"] >= threshold), None)
        if hit:
            verdict, wc, wd = name, hit["c"], hit["dim"]
            break
    if (rep["verdict"], rep["witness_c"], rep["witness_dim"]) != (verdict, wc, wd):
        errs.append(f"verdict {rep['verdict']} ({rep['witness_c']},"
                    f" {rep['witness_dim']}) != {verdict} ({wc}, {wd})")
    return errs


def _scan_item(label, path, names, rel_degrees, expected=None) -> Item:
    def check(out):
        rep, errs = _parse_report(out)
        if rep is None:
            return errs
        errs = scan_errors(rep, names, rel_degrees)
        if expected is not None:
            got = (rep["verdict"], rep["witness_c"], rep["witness_dim"])
            if got != expected:
                errs.append(f"reference verdict {got} != README {expected}")
        return errs

    return _cli_item(label, ["check", "--ring", path, "--format", "json"], check)


def build_scan(rng, workdir) -> list[Item]:
    items = []
    for nv, degrees, copies in SCAN_SHAPES:
        names = [f"x{i}" for i in range(nv)]
        for c in range(copies):
            label = f"v{nv}-d{''.join(map(str, degrees))}-{c}"
            ring = {"vars": names, "relations": [random_form(rng, names, d) for d in degrees], "p": P}
            path = _write_json(workdir, f"scan-{label}.json", ring)
            items.append(_scan_item(label, path, names, degrees))
    for i, (names, rels, verdict, wc, wd) in enumerate(REFERENCE_RINGS):
        path = _write_json(workdir, f"scan-ref{i}.json", {"vars": names, "relations": rels, "p": P})
        degrees = [_form_degree(r) for r in rels]
        items.append(_scan_item(f"ref{i}", path, names, degrees, (verdict, wc, wd)))
    return items


# ------------------------------------------------------------------- family

FERMAT = {"vars": ["x", "y", "z"], "relations": ["x^4+y^4+z^4"], "p": P}
BINARY = {"vars": ["x", "y"], "relations": ["x^4+y^4"], "p": P}

# (family, n, instances per seed).  The Fermat n = 3 member takes 4-6 s on
# its own and is left out so that a pass repeats within a run.  The group
# sizes keep the median item inside the binary n = 3 group and the 90th
# percentile inside the Fermat n = 1 group.
FAMILY_SHAPES = (
    ("fermat", 1, 8), ("fermat", 2, 2),
    ("binary", 1, 4), ("binary", 2, 4), ("binary", 3, 4),
)


def member_data(rng, kind: str, n: int) -> dict:
    """A family instance built the way the acceptance corpus builds them:
    Fermat members get a commuting (Ax, Ay), binary members one Ax."""
    if kind == "fermat":
        Ax, Ay = modp.commuting_pair(rng, n, P)
        return {"ring": FERMAT, "sequence": ["x^2", "y^2"], "c": 4, "n": n,
                "Ax": Ax.tolist(), "Ay": Ay.tolist()}
    Ax = modp.random_matrix(rng, n, P)
    return {"ring": BINARY, "sequence": ["x^2"], "c": 3, "n": n, "Ax": Ax.tolist()}


def family_errors(rep: dict, data: dict) -> list[str]:
    errs = []
    inst = rep["instance"]
    if (inst["n"], inst["c"], inst["Ax"], inst.get("Ay")) != (
        data["n"], data["c"], data["Ax"], data.get("Ay")
    ):
        errs.append("instance echo differs from the input")
    if not rep["mcm"]["verified"]:
        errs.append("mcm.verified is false")
    for key in ("shift_embedding", "resolution_shape"):
        if not rep[key]["passed"]:
            errs.append(f"{key}.passed is false")
    ind = rep["indecomposability"]
    Ax = modp.mat(data["Ax"])
    actions = [Ax] + ([modp.mat(data["Ay"])] if "Ay" in data else [])
    if ind["verdict"] == "Decomposable":
        errs += modp.idempotent_errors(ind["idempotent"], actions, P)
    # Ay is a polynomial in Ax, so Ax alone decides indecomposability
    want = "Indecomposable" if modp.indecomposable_single(Ax, P) else "Decomposable"
    if ind["verdict"] != want:
        errs.append(f"indecomposability {ind['verdict']} != {want}")
    return errs


def build_family(rng, workdir) -> list[Item]:
    items = []
    for kind, n, copies in FAMILY_SHAPES:
        for c in range(copies):
            label = f"{kind}-n{n}-{c}"
            data = member_data(rng, kind, n)
            path = _write_json(workdir, f"family-{label}.json", data)

            def check(out, data=data):
                rep, errs = _parse_report(out)
                return errs if rep is None else family_errors(rep, data)

            items.append(_cli_item(label, ["family", "--instance", path, "--format", "json"], check))
    return items


# ------------------------------------------------------ isomorphism helpers


def _json_digest(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def conjugacy_errors(cert, As, Bs, expect_iso: bool | None, p: int) -> list[str]:
    verdict = cert["verdict"]
    if verdict == "Undecided":
        return ["conjugacy undecided"]
    errs = []
    if expect_iso is not None and (verdict == "Isomorphic") != expect_iso:
        errs.append(f"conjugacy verdict {verdict}, expected"
                    f" {'Isomorphic' if expect_iso else 'NonIsomorphic'}")
    if verdict == "Isomorphic":
        errs += modp.witness_errors(cert["witness"], As, Bs, p)
    return errs


# --------------------------------------------------------------- iso_module

# (family, n, base members per seed, how many of them get a partner whose
# matrix data is conjugate; the others get a singular partner).  Action
# matrices are 6n x 6n for the binary family and 14n x 14n for the Fermat
# family.  A Fermat n = 2 pair spends 12 s in one rref and is left out.
ISO_MODULE_SHAPES = (
    ("binary", 2, 3, 2), ("binary", 3, 2, 1), ("fermat", 1, 3, 0),
)
MODULE_DIM = {"binary": 6, "fermat": 14}


def _module_actions(data):
    spec = family.FamilySpec.from_json(data)
    mats, _terms = family.action_matrices(family.build_family_member(spec))
    return spec, mats


def _iso_module_copy(label, data, S, S_inv) -> Item:
    """A member against a copy of its own action matrices conjugated by S."""

    def run():
        t0 = perf_counter()
        spec, As = _module_actions(data)
        dt = perf_counter() - t0
        Bs = modp.conjugate(S, S_inv, As, P)
        t0 = perf_counter()
        cert = matalg.simultaneous_conjugacy(As, Bs, P)
        dt += perf_counter() - t0
        return dt, (spec, spec, As, Bs, cert)

    return Item(label, run, _iso_module_check(True), lambda out: _json_digest(out[4]))


def _iso_module_pair(label, data_a, data_b, expect_iso) -> Item:
    def run():
        t0 = perf_counter()
        spec_a, As = _module_actions(data_a)
        spec_b, Bs = _module_actions(data_b)
        cert = matalg.simultaneous_conjugacy(As, Bs, P)
        return perf_counter() - t0, (spec_a, spec_b, As, Bs, cert)

    return Item(label, run, _iso_module_check(expect_iso), lambda out: _json_digest(out[4]))


def _iso_module_check(expect_iso):
    def check(out):
        spec_a, spec_b, As, Bs, cert = out
        errs = conjugacy_errors(cert, As, Bs, expect_iso, P)
        matrix_level = family.iso_test(spec_a, spec_b).outcome
        module_level = {"NonIsomorphic": "NotIsomorphic"}.get(cert["verdict"], cert["verdict"])
        if module_level != matrix_level:
            errs.append(f"module-level {module_level} != matrix-level {matrix_level}")
        return errs

    return check


def singular_partner(rng, data) -> dict:
    """The member with Ax replaced by a random matrix of rank n - 1.

    Its module has other rank invariants, so the module-level test can
    decide NonIsomorphic.  Against an unrelated full-rank member it comes
    back Undecided: the hom space is too large to exhaust, and sampling
    proves only isomorphism.
    """
    Ax = modp.random_matrix(rng, data["n"], P)
    Ax[:, 0] = 0
    return dict(data, Ax=Ax.tolist())


def build_iso_module(rng, workdir) -> list[Item]:
    items = []
    for kind, n, copies, conjugate_partners in ISO_MODULE_SHAPES:
        dim = MODULE_DIM[kind] * n
        for c in range(copies):
            data = member_data(rng, kind, n)
            S = modp.random_invertible(rng, dim, P)
            items.append(_iso_module_copy(f"{kind}-n{n}-{c}-copy", data, S, modp.inverse(S, P)))
            if c < conjugate_partners:
                T = modp.random_invertible(rng, n, P)
                (Ax,) = modp.conjugate(T, modp.inverse(T, P), [modp.mat(data["Ax"])], P)
                partner, expect = dict(data, Ax=Ax.tolist()), True
            else:
                partner, expect = singular_partner(rng, data), False
            items.append(_iso_module_pair(f"{kind}-n{n}-{c}-pair", data, partner, expect))
    return items


# --------------------------------------------------------------- iso_matrix

ISO_MATRIX_SIZES = range(2, 13)
ISO_MATRIX_COPIES = 4  # per size; even copies are conjugate pairs
SMALL_P_PAIRS = ((2, 6), (3, 6))  # (p, pairs of 2x2 tuples) checked by brute force


def _iso_matrix_item(label, As, Bs, p, expect_iso, brute) -> Item:
    def run():
        t0 = perf_counter()
        cert = matalg.simultaneous_conjugacy(As, Bs, p)
        ind = matalg.endomorphism_indecomposability(As, p)
        return perf_counter() - t0, (cert, ind)

    def check(out):
        cert, ind = out
        want = modp.brute_conjugate(As, Bs, p) if brute else expect_iso
        errs = conjugacy_errors(cert, As, Bs, want, p)
        if ind["verdict"] == "Undecided":
            return errs + ["indecomposability undecided"]
        if ind["verdict"] == "Decomposable":
            errs += modp.idempotent_errors(ind["idempotent"], As, p)
        if brute:
            decomposable = modp.brute_decomposable(As, p)
        elif As[0].shape[0] <= 3:
            decomposable = not modp.indecomposable_single(As[0], p)
        else:
            return errs
        if (ind["verdict"] == "Decomposable") != decomposable:
            errs.append(f"indecomposability {ind['verdict']} disagrees with the oracle")
        return errs

    return Item(label, run, check, _json_digest)


def build_iso_matrix(rng, workdir) -> list[Item]:
    items = []
    for n in ISO_MATRIX_SIZES:
        for c in range(ISO_MATRIX_COPIES):
            As = list(modp.commuting_pair(rng, n, P))
            if c % 2 == 0:
                S = modp.random_invertible(rng, n, P)
                Bs, expect = modp.conjugate(S, modp.inverse(S, P), As, P), True
            else:
                Bs = list(modp.commuting_pair(rng, n, P))
                # different power traces prove the pair is not conjugate
                differ = modp.power_traces(As[0], P) != modp.power_traces(Bs[0], P)
                expect = False if differ else None
            items.append(_iso_matrix_item(f"n{n}-{c}", As, Bs, P, expect, False))
    for p, count in SMALL_P_PAIRS:
        for c in range(count):
            As = [modp.random_matrix(rng, 2, p) for _ in range(2)]
            if c % 2 == 0:
                S = modp.random_invertible(rng, 2, p)
                Bs = modp.conjugate(S, modp.inverse(S, p), As, p)
            else:
                Bs = [modp.random_matrix(rng, 2, p) for _ in range(2)]
            items.append(_iso_matrix_item(f"p{p}-{c}", As, Bs, p, None, True))
    return items


# Workloads whose items spend their time in numpy kernels rather than in
# the interpreter; they are timed against the numpy calibration loop.
NUMPY_BOUND = ("iso_module",)

BUILDERS = {
    "scan": build_scan,
    "family": build_family,
    "iso_module": build_iso_module,
    "iso_matrix": build_iso_matrix,
}
NAMES = tuple(BUILDERS)
