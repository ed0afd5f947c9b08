"""Pin the output digests at the default seed into golden.json.

    python3 perfbench/pin_golden.py

Runs one pass of every workload at the default seed and records the digest
of every item's output.  It refuses to pin an output that fails its check.
Re-pin only when a change to the program is meant to change its outputs.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    golden = {}
    for name in workloads.NAMES:
        with run.Workdir(name, run.DEFAULT_SEED) as workdir:
            items = workloads.build(name, run.DEFAULT_SEED, workdir)
            runner = run.Runner(items)
            ps = runner.run_pass(False)
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        golden[name] = {item.label: d for item, d in zip(items, ps.digests)}
        print(f"{name}: {len(items)} items pinned")
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
