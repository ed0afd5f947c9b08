"""Compare the work counts of a traced benchmark pass with pinned values.

    python3 perfbench/run.py --workload family --seed 0 --seconds 0 --trace 1 \\
        | python3 tools/check_trace_counts.py family

reads the JSON result (the last line of stdin) and compares every
per-layer metric with unit ``count`` against ``trace_counts.json`` next to
this script.  It exits 1 and lists the metrics that differ, or prints
``no pinned counts for <workload>`` when the workload has none.  With
``--pin`` it records the workload's counts instead, and lists each count
that changed on stderr as ``<workload>: <name>: <old> -> <new>`` (nothing
when the row stays as it was), so a re-pin can be reviewed.  Without a
workload, or with nothing on stdin, it prints a usage line and exits 2;
when the last line is not JSON with ``"metrics"``, it says so in one line
and exits 2.

Two count metrics are left out because they count call routing, not work:
``groebner.GroebnerBasis.normal_form.calls`` (a caller may reduce through
the packed kernel instead of the tuple-keyed method) and ``trace.spans``.
A change that only changes how data is represented should leave every
other count as it was.
"""

from __future__ import annotations

import json
import os
import sys

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_counts.json")
EXCLUDED = {"groebner.GroebnerBasis.normal_form.calls", "trace.spans"}


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in sorted(result["metrics"].items())
        if m["unit"] == "count" and name not in EXCLUDED
    }


def changed(want: dict, got: dict) -> list:
    """(name, wanted value, got value) of each count that differs, by name;
    None stands for a missing count."""
    return [
        (name, want.get(name), got.get(name))
        for name in sorted(set(want) | set(got))
        if want.get(name) != got.get(name)
    ]


def main(argv) -> int:
    pin = "--pin" in argv
    workload = next((a for a in argv if a != "--pin"), None)
    lines = sys.stdin.read().strip().splitlines()
    if workload is None or not lines:
        print("usage: check_trace_counts.py WORKLOAD [--pin] < result.json", file=sys.stderr)
        return 2
    try:
        got = counts(json.loads(lines[-1]))
    except (ValueError, LookupError, TypeError, AttributeError):
        print("check_trace_counts.py: the last line of stdin is not a result with metrics", file=sys.stderr)
        return 2
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    if pin:
        for name, old, new in changed(pins.get(workload, {}), got):
            print(f"{workload}: {name}: {old} -> {new}", file=sys.stderr)
        pins[workload] = got
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if workload not in pins:
        print(f"no pinned counts for {workload}")
        return 1
    diffs = changed(pins[workload], got)
    for name, old, new in diffs:
        print(f"{workload}: {name}: pinned {old}, got {new}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
