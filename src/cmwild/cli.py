"""Command-line interface.

Subcommands:
    check         run the wildness criterion on a ring file
    hypersurface  the same, insisting on exactly one defining form
    ci            the same, insisting the relations cut a complete intersection
    family        build a family member and report the full member pipeline
    iso           compare two family instances
    resolve       Betti table of a minimal free resolution
    hilbert       Hilbert data of a ring
    verify        structural checks for a family instance

Every report echoes the schema tag, the field characteristic, and the
seed.  JSON output is stable: re-running a command with the same inputs
and seed produces byte-identical bytes.  Exit codes: 0 when a verdict was
computed (Inconclusive and Undecided included), 2 for input errors, 3
when a search budget ran out.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetExhausted, CmwildError, InputError
from .family import (
    FamilyMember,
    FamilySpec,
    family_report,
    iso_test,
    verify_resolution_shape,
    verify_shift_embedding,
)
from .modules import ModulePresentation
from .resolution import minimal_resolution
from .rings import QuotientRing
from .wildness import (
    SCHEMA,
    complete_intersection_certificate,
    hypersurface_certificate,
    wildness_certificate,
)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _with_char(data, char: int | None):
    """``data`` with ``"p"`` set to ``char``; anything but an object is
    passed on unchanged for ``from_json`` to reject."""
    if char is None or not isinstance(data, dict):
        return data
    return {**data, "p": char}


def _load_ring(path: str, char: int | None) -> QuotientRing:
    return QuotientRing.from_json(_with_char(_load_json(path), char))


def _load_instance(path: str, char: int | None) -> FamilySpec:
    data = _load_json(path)
    if isinstance(data, dict) and "ring" in data:
        data = {**data, "ring": _with_char(data["ring"], char)}
    return FamilySpec.from_json(data)


def _parse_window(text: str | None):
    if text is None:
        return None
    parts = text.split("..")
    try:
        a, b = (int(s) for s in parts)
    except ValueError:
        raise InputError(f"window {text!r} is not of the form a..b") from None
    if a > b:
        raise InputError(f"window {text!r} is empty")
    return (a, b)


def _split_sequence(text: str | None):
    if text is None:
        return None
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise InputError("--sequence must list at least one polynomial")
    return items


def _pairs(d: dict) -> list:
    return [[k, v] for k, v in sorted(d.items())]


def _emit(payload: dict, lines, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        sys.stdout.write("\n".join(lines) + "\n")


# ------------------------------------------------------------- renderers


def _wildness_lines(data: dict) -> list[str]:
    ring = data["ring"]
    rel = ", ".join(ring["relations"]) or "0"
    lines = [
        f"ring: F_{ring['p']}[{', '.join(ring['vars'])}] / ({rel})",
        f"dimension: {data['dimension']}",
        f"sequence: {', '.join(data['sequence']) or '(empty)'}   m = {data['m']}",
        f"scan window: {data['window'][0]}..{data['window'][1]}",
    ]
    for row in data["scan"]:
        lines.append(f"  c = {row['c']}   dim = {row['dim']}")
    if data["witness_c"] is not None:
        lines.append(
            f"verdict: {data['verdict']}"
            f" (c = {data['witness_c']}, dim = {data['witness_dim']})"
        )
    else:
        lines.append(f"verdict: {data['verdict']}")
    if "note" in data:
        lines.append(f"note: {data['note']}")
    return lines


def _check_lines(rep: dict) -> list[str]:
    return [f"{'pass' if rep['passed'] else 'FAIL'}: {rep['check']}"]


def _family_lines(data: dict) -> list[str]:
    rep = data
    lines = [
        f"member: n = {rep['instance']['n']}, c = {rep['instance']['c']},"
        f" length = {rep['member']['length']}",
        f"mcm verified: {rep['mcm']['verified']}",
    ]
    lines += _check_lines(rep["shift_embedding"])
    lines += _check_lines(rep["resolution_shape"])
    ind = rep["indecomposability"]
    lines.append(f"indecomposability: {ind['verdict']} ({ind['reason']})")
    if "syzygy_claim" in ind:
        lines.append(f"claim: {ind['syzygy_claim']}")
    return lines


def _betti_lines(data: dict) -> list[str]:
    lines = [f"minimal: {data['minimal']}"]
    for row in data["betti"]:
        lines.append(f"  i = {row['i']}   j = {row['j']}   rank = {row['rank']}")
    return lines


# ----------------------------------------------------------- subcommands


def _cmd_check(args) -> dict:
    ring = _load_ring(args.ring, args.field_char)
    rep = wildness_certificate(
        ring,
        sequence=_split_sequence(args.sequence),
        c_window=_parse_window(args.c_window),
        seed=args.seed,
    )
    return rep.to_json()


def _cmd_hypersurface(args) -> dict:
    rep = hypersurface_certificate(
        _load_ring(args.ring, args.field_char),
        seed=args.seed,
        c_window=_parse_window(args.c_window),
    )
    return rep.to_json()


def _cmd_ci(args) -> dict:
    rep = complete_intersection_certificate(
        _load_ring(args.ring, args.field_char),
        seed=args.seed,
        c_window=_parse_window(args.c_window),
    )
    return rep.to_json()


def _cmd_family(args) -> dict:
    spec = _load_instance(args.instance, args.field_char)
    rep = family_report(spec, seed=args.seed)
    rep.update(schema=SCHEMA, p=spec.p, seed=args.seed)
    return rep


def _cmd_iso(args) -> dict:
    if len(args.instance or []) != 2:
        raise InputError("iso needs exactly two --instance files")
    a = _load_instance(args.instance[0], args.field_char)
    b = _load_instance(args.instance[1], args.field_char)
    cert = iso_test(a, b, seed=args.seed)
    payload = {"schema": SCHEMA, "p": a.p, "seed": args.seed}
    payload.update(cert.to_json())
    return payload


def _cmd_resolve(args) -> dict:
    if args.instance is not None:
        spec = _load_instance(args.instance, args.field_char)
        length = args.length if args.length is not None else spec.d + 1
        res = minimal_resolution(FamilyMember(spec).over_ring, length)
        p = spec.p
    else:
        if args.ring is None:
            raise InputError("resolve needs --instance or --ring")
        ring = _load_ring(args.ring, args.field_char)
        seq = _split_sequence(args.sequence)
        if not seq:
            raise InputError("resolve --ring needs --sequence")
        ys = [ring.parse(s) for s in seq]
        pres = ModulePresentation(
            ring, [0], [{(0, m): c for m, c in y.terms.items()} for y in ys]
        )
        length = args.length if args.length is not None else len(ys)
        res = minimal_resolution(pres, length)
        p = ring.p
    payload = {"schema": SCHEMA, "p": p, "seed": args.seed, "length": res.length}
    payload.update(res.betti_json())
    payload["generators"] = [
        [i, [[d, list(res.free(i).gen_degrees).count(d)]
             for d in sorted(set(res.free(i).gen_degrees))]]
        for i in range(res.length + 1)
    ]
    return payload


def _cmd_hilbert(args) -> dict:
    ring = _load_ring(args.ring, args.field_char)
    payload = {
        "schema": SCHEMA,
        "p": ring.p,
        "seed": args.seed,
        "ring": ring.to_json(),
        "krull_dimension": ring.krull_dimension,
        "numerator": _pairs(ring.hilbert_numerator),
        "artinian": ring.is_artinian,
    }
    if payload["artinian"]:
        payload["hilbert_function"] = _pairs(ring.hilbert_function())
        payload["top_degree"] = ring.top_degree()
    return payload


def _cmd_verify(args) -> dict:
    spec = _load_instance(args.instance, args.field_char)
    bundle = FamilyMember(spec)
    shift = verify_shift_embedding(spec, bundle)
    shape = verify_resolution_shape(spec, bundle)
    return {
        "schema": SCHEMA,
        "p": spec.p,
        "seed": args.seed,
        "instance": spec.to_json(),
        "mcm_verified": bundle.mcm_verified,
        "shift_embedding": shift,
        "resolution_shape": shape,
        "passed": bundle.mcm_verified and shift["passed"] and shape["passed"],
    }


def _hilbert_lines(data: dict) -> list[str]:
    lines = [
        f"krull dimension: {data['krull_dimension']}",
        f"numerator: {data['numerator']}",
    ]
    if data["artinian"]:
        lines.append(f"hilbert function: {data['hilbert_function']}")
        lines.append(f"top degree: {data['top_degree']}")
    return lines


def _iso_lines(data: dict) -> list[str]:
    lines = [f"outcome: {data['outcome']}"]
    if data.get("reason"):
        lines.append(f"reason: {data['reason']}")
    if data.get("solution_space_dim") is not None:
        lines.append(f"solution space dimension: {data['solution_space_dim']}")
    return lines


def _verify_lines(data: dict) -> list[str]:
    return [
        f"mcm verified: {data['mcm_verified']}",
        *_check_lines(data["shift_embedding"]),
        *_check_lines(data["resolution_shape"]),
        f"{'pass' if data['passed'] else 'FAIL'}: all checks",
    ]


_RENDERERS = {
    "check": _wildness_lines,
    "hypersurface": _wildness_lines,
    "ci": _wildness_lines,
    "family": _family_lines,
    "iso": _iso_lines,
    "resolve": _betti_lines,
    "hilbert": _hilbert_lines,
    "verify": _verify_lines,
}

_HANDLERS = {
    "check": _cmd_check,
    "hypersurface": _cmd_hypersurface,
    "ci": _cmd_ci,
    "family": _cmd_family,
    "iso": _cmd_iso,
    "resolve": _cmd_resolve,
    "hilbert": _cmd_hilbert,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field-char", type=int, default=None,
                        help="override the field characteristic from the file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "text"), default="text")

    parser = argparse.ArgumentParser(
        prog="cmwild",
        description="decide and witness CM-wildness of graded algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("check", "wildness criterion on a ring file"),
        ("hypersurface", "criterion for a single-form quotient"),
        ("ci", "criterion for a complete intersection"),
    ):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("--ring", required=True, help="ring JSON file")
        sp.add_argument("--c-window", default=None, help="degree window a..b")
        if name == "check":
            sp.add_argument("--sequence", default=None,
                            help="comma-separated regular sequence")

    sp = sub.add_parser("family", parents=[common],
                        help="full pipeline for one family instance")
    sp.add_argument("--instance", required=True, help="instance JSON file")

    sp = sub.add_parser("iso", parents=[common],
                        help="isomorphism test between two instances")
    sp.add_argument("--instance", action="append",
                    help="instance JSON file (give twice)")

    sp = sub.add_parser("resolve", parents=[common],
                        help="Betti table of a minimal resolution")
    sp.add_argument("--instance", default=None, help="instance JSON file")
    sp.add_argument("--ring", default=None, help="ring JSON file")
    sp.add_argument("--sequence", default=None,
                    help="with --ring: resolve R/(sequence) over R")
    sp.add_argument("--length", type=int, default=None)

    sp = sub.add_parser("hilbert", parents=[common],
                        help="Hilbert data of a ring")
    sp.add_argument("--ring", required=True, help="ring JSON file")

    sp = sub.add_parser("verify", parents=[common],
                        help="structural checks for a family instance")
    sp.add_argument("--instance", required=True, help="instance JSON file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = _HANDLERS[args.command](args)
        lines = _RENDERERS[args.command](payload)
        _emit(payload, lines, args.format)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except CmwildError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
