"""Command-line interface.

Each subcommand is one row of ``_COMMANDS``: its help text, its options,
its handler and its text renderer.  ``build_parser`` makes the
subparsers from the table, and ``main`` dispatches and renders from the
row (``cmwild --help`` lists the subcommands).

``hypersurface`` and ``ci`` are ``check`` behind a guard: the three rows
share one handler and differ in the certificate function it calls.  They
scan the same window (from m - d + 2 to the top degree of the reduction)
and, when the guard passes, print the bytes ``check`` prints.  Only
``check`` takes ``--sequence``.

A handler returns the field characteristic ``p`` and its own fields;
``main`` adds the schema tag and the seed, so every report echoes all
three.  JSON output is stable: re-running a command with the same inputs
and seed produces byte-identical bytes.  Exit codes: 0 when a verdict was
computed (Inconclusive and Undecided included), 2 for input errors, 3
when a slot of the regular-sequence search ran out of candidates (stderr
says ``budget exhausted:``), 1 when an internal check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from typing import Callable, NamedTuple

from .errors import BudgetExhausted, CmwildError, InputError
from .family import (
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
    try:
        a, b = (int(s) for s in text.split(".."))
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


def _check_line(rep: dict) -> str:
    return f"{'pass' if rep['passed'] else 'FAIL'}: {rep['check']}"


# ----------------------------------------------------------- subcommands


def _cmd_verdict(certificate, args) -> dict:
    """check, hypersurface and ci: the one criterion, behind the guard of
    ``certificate``; only check has a ``--sequence``."""
    ring = _load_ring(args.ring, args.field_char)
    seq = {"sequence": _split_sequence(args.sequence)} if "sequence" in args else {}
    window = _parse_window(args.c_window)
    return certificate(ring, seed=args.seed, c_window=window, **seq).to_json()


def _wildness_lines(data: dict) -> list[str]:
    ring = data["ring"]
    rel = ", ".join(ring["relations"]) or "0"
    lines = [
        f"ring: F_{ring['p']}[{', '.join(ring['vars'])}] / ({rel})",
        f"dimension: {data['dimension']}",
        f"sequence: {', '.join(data['sequence']) or '(empty)'}   m = {data['m']}",
        f"scan window: {data['window'][0]}..{data['window'][1]}",
    ]
    lines += [f"  c = {row['c']}   dim = {row['dim']}" for row in data["scan"]]
    witness = ""
    if data["witness_c"] is not None:
        witness = f" (c = {data['witness_c']}, dim = {data['witness_dim']})"
    lines.append(f"verdict: {data['verdict']}{witness}")
    if "note" in data:
        lines.append(f"note: {data['note']}")
    return lines


def _cmd_family(args) -> dict:
    spec = _load_instance(args.instance, args.field_char)
    return {"p": spec.p, **family_report(spec, seed=args.seed)}


def _family_lines(rep: dict) -> list[str]:
    ind = rep["indecomposability"]
    lines = [
        f"member: n = {rep['instance']['n']}, c = {rep['instance']['c']},"
        f" length = {rep['member']['length']}",
        f"mcm verified: {rep['mcm']['verified']}",
        _check_line(rep["shift_embedding"]),
        _check_line(rep["resolution_shape"]),
        f"indecomposability: {ind['verdict']} ({ind['reason']})",
    ]
    if "syzygy_claim" in ind:
        lines.append(f"claim: {ind['syzygy_claim']}")
    return lines


def _cmd_iso(args) -> dict:
    if len(args.instance or []) != 2:
        raise InputError("iso needs exactly two --instance files")
    a = _load_instance(args.instance[0], args.field_char)
    b = _load_instance(args.instance[1], args.field_char)
    return {"p": a.p, **iso_test(a, b, seed=args.seed).to_json()}


def _iso_lines(data: dict) -> list[str]:
    lines = [f"outcome: {data['outcome']}"]
    if data.get("reason"):
        lines.append(f"reason: {data['reason']}")
    if data.get("solution_space_dim") is not None:
        lines.append(f"solution space dimension: {data['solution_space_dim']}")
    return lines


def _cmd_resolve(args) -> dict:
    if args.instance is not None:
        if args.ring is not None or args.sequence is not None:
            raise InputError("resolve takes --instance or --ring with --sequence, not both")
        spec = _load_instance(args.instance, args.field_char)
        pres, length, p = spec.over_ring, spec.d + 1, spec.p
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
        length, p = len(ys), ring.p
    res = minimal_resolution(pres, length if args.length is None else args.length)
    return {
        "p": p,
        "length": res.length,
        **res.betti_json(),
        "generators": [
            [i, sorted(Counter(res.frees[i].gen_degrees).items())]
            for i in range(res.length + 1)
        ],
    }


def _betti_lines(data: dict) -> list[str]:
    lines = [f"minimal: {data['minimal']}"]
    for row in data["betti"]:
        lines.append(f"  i = {row['i']}   j = {row['j']}   rank = {row['rank']}")
    return lines


def _cmd_hilbert(args) -> dict:
    ring = _load_ring(args.ring, args.field_char)
    payload = {
        "p": ring.p,
        "ring": ring.to_json(),
        "krull_dimension": ring.krull_dimension,
        "numerator": _pairs(ring.hilbert_numerator),
        "artinian": ring.is_artinian,
    }
    if payload["artinian"]:
        payload["hilbert_function"] = _pairs(ring.hilbert_function())
        payload["top_degree"] = ring.top_degree()
    return payload


def _hilbert_lines(data: dict) -> list[str]:
    lines = [
        f"krull dimension: {data['krull_dimension']}",
        f"numerator: {data['numerator']}",
    ]
    if data["artinian"]:
        lines.append(f"hilbert function: {data['hilbert_function']}")
        lines.append(f"top degree: {data['top_degree']}")
    return lines


def _cmd_verify(args) -> dict:
    spec = _load_instance(args.instance, args.field_char)
    shift = verify_shift_embedding(spec)
    shape = verify_resolution_shape(spec)
    return {
        "p": spec.p,
        "instance": spec.to_json(),
        "mcm_verified": spec.mcm_verified,
        "shift_embedding": shift,
        "resolution_shape": shape,
        "passed": spec.mcm_verified and shift["passed"] and shape["passed"],
    }


def _verify_lines(data: dict) -> list[str]:
    return [
        f"mcm verified: {data['mcm_verified']}",
        _check_line(data["shift_embedding"]),
        _check_line(data["resolution_shape"]),
        f"{'pass' if data['passed'] else 'FAIL'}: all checks",
    ]


# ----------------------------------------------------------- the table


class _Command(NamedTuple):
    help: str
    options: dict  # flag -> add_argument keywords, in --help order
    handler: Callable  # args -> report fields, "p" included
    render: Callable  # report -> text lines


_RING = {"--ring": {"required": True, "help": "ring JSON file"}}
_INSTANCE = {"--instance": {"required": True, "help": "instance JSON file"}}
_VERDICT = {**_RING, "--c-window": {"help": "degree window a..b"}}

_COMMANDS = {
    "check": _Command(
        "wildness criterion on a ring file",
        {**_VERDICT, "--sequence": {"help": "comma-separated regular sequence"}},
        functools.partial(_cmd_verdict, wildness_certificate), _wildness_lines,
    ),
    "hypersurface": _Command(
        "criterion for a single-form quotient", _VERDICT,
        functools.partial(_cmd_verdict, hypersurface_certificate), _wildness_lines,
    ),
    "ci": _Command(
        "criterion for a complete intersection", _VERDICT,
        functools.partial(_cmd_verdict, complete_intersection_certificate),
        _wildness_lines,
    ),
    "family": _Command(
        "full pipeline for one family instance", _INSTANCE, _cmd_family, _family_lines,
    ),
    "iso": _Command(
        "isomorphism test between two instances",
        {"--instance": {"action": "append", "help": "instance JSON file (give twice)"}},
        _cmd_iso, _iso_lines,
    ),
    "resolve": _Command(
        "Betti table of a minimal resolution",
        {
            "--instance": {"help": "instance JSON file"},
            "--ring": {"help": "ring JSON file"},
            "--sequence": {"help": "with --ring: resolve R/(sequence) over R"},
            "--length": {"type": int},
        },
        _cmd_resolve, _betti_lines,
    ),
    "hilbert": _Command("Hilbert data of a ring", _RING, _cmd_hilbert, _hilbert_lines),
    "verify": _Command(
        "structural checks for a family instance", _INSTANCE, _cmd_verify, _verify_lines,
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``_COMMANDS``:
    ``parse_args`` leaves it unchanged, so every ``main`` call can share it."""
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
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        for flag, keywords in command.options.items():
            sp.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        report = {"schema": SCHEMA, "seed": args.seed, **command.handler(args)}
        if args.format == "json":
            out = json.dumps(report, sort_keys=True, separators=(",", ":"))
        else:
            out = "\n".join(command.render(report))
        sys.stdout.write(out + "\n")
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
