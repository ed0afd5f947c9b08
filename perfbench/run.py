"""cmwild benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One caller runs the workload's items one after another,
pass after pass over the same seeded corpus, until ``--seconds`` have
passed (at least one pass, one plain and one traced with ``--trace 1``).
Outputs are checked after each pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics: the corpus time, the median
and 90th percentile item time (each item's median over the passes), the
set-up time (the median of several fresh interpreters that import cmwild
and build the inputs) and the peak resident memory.  Times are scaled to a
reference machine speed, read from a calibration loop run between items;
DESIGN.md explains why.  ``--trace 1``
alternates plain and traced passes, reports the per-layer metrics of the
traced passes and the tracing overhead, and writes the spans to
``.perfbench_out/``.

The last line of stdout is the JSON result; the lines before it repeat
every metric with its unit and sample count.  DESIGN.md describes the
workloads, the checks and the metrics.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread, as the closed loop assumes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

from layers import layer_metrics
from tracing import Tracer, wrappers_installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
GOLDEN = os.path.join(HERE, "golden.json")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "family", "iso_module", "iso_matrix"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit (one set-up sample)")
    return ap.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "cmwild", "__init__.py")):
        sys.exit(f"error: no cmwild sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import cmwild

    if os.path.dirname(os.path.abspath(cmwild.__file__)) != os.path.join(SRC, "cmwild"):
        sys.exit(f"error: imported cmwild from {cmwild.__file__}, not from {SRC}")


class Workdir:
    """Scratch directory for input files, inside the checkout."""

    def __init__(self, name, seed):
        self.path = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(self.path))


def interpreter_loop():
    """Dict, tuple and modular arithmetic, the kind of work the program's
    Groebner loops do."""
    acc: dict = {}
    for i in range(5000):
        key = (i % 97, i % 13, i % 7)
        acc[key] = (acc.get(key, 0) + i * 31) % 32003


_ROWS = np.arange(640 * 320, dtype=np.int64).reshape(640, 320) % 32003


def numpy_loop():
    """One elimination step on a 640 x 320 array, the kind of work rref does."""
    (_ROWS - np.outer(_ROWS[:, 0], _ROWS[0])) % 32003


# calibration loop -> its fastest time on the baseline machine (DESIGN.md)
REFERENCE_S = {interpreter_loop: 0.0017, numpy_loop: 0.0024}


def slowness(loop) -> float:
    """How much slower than on the unloaded baseline machine the loop runs now."""
    t0 = perf_counter()
    loop()
    return (perf_counter() - t0) / REFERENCE_S[loop]


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two slowness readings, scaled to the
    reference speed."""
    return seconds * 2 / (before + after)


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import cmwild and build the
    workload's inputs, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    before = slowness(interpreter_loop)
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            # End of stdout is the child's exit.  Waiting on the pipe wakes at
            # once, where Popen.wait(timeout) polls in 50 ms steps.
            proc.communicate(timeout=120)
            elapsed = perf_counter() - t0
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        after = slowness(interpreter_loop)
        samples.append(scaled(elapsed, before, after))
        before = after
    return samples


class Pass:
    """Item times and outputs of one pass over the corpus."""

    def __init__(self, traced):
        self.traced = traced
        self.times: list[float] = []  # as measured
        self.scaled: list[float] = []  # scaled to the reference speed
        self.digests: list[str] = []
        self.covered: list = []  # traced: (top-level span seconds, item seconds)

    @property
    def wall_s(self) -> float:
        return sum(self.times)


class Runner:
    def __init__(self, items, tracer=None, calibration=interpreter_loop):
        self.items = items
        self.tracer = tracer
        self.calibration = calibration
        self.checked: dict = {}  # (item index, digest) -> problems
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, traced: bool) -> Pass:
        installed = wrappers_installed()
        if bool(installed) != traced:
            raise RuntimeError(f"wrong bind state for a {'traced' if traced else 'plain'}"
                               f" pass: {installed}")
        gc.collect()
        res = Pass(traced)
        outputs = []
        tr = self.tracer
        before = slowness(self.calibration)
        for k, item in enumerate(self.items):
            self.attempted += 1
            if traced:
                tr.item, tr.active, top0 = k, True, tr.top_s
            try:
                dt, out = item.run()
            except Exception:  # one failing item must not stop the run
                self._fail(item, traceback.format_exc())
                out, dt = None, float("nan")
            finally:
                if traced:
                    tr.active = False
            if traced and out is not None:
                res.covered.append((tr.top_s - top0, dt))
            after = slowness(self.calibration)
            res.times.append(dt)
            res.scaled.append(scaled(dt, before, after))
            before = after
            outputs.append(out)
        for k, (item, out) in enumerate(zip(self.items, outputs)):
            if out is None:
                res.digests.append("")
                continue
            digest = item.digest(out)
            res.digests.append(digest)
            if (k, digest) not in self.checked:
                try:
                    self.checked[(k, digest)] = item.check(out)
                except Exception:
                    self.checked[(k, digest)] = [traceback.format_exc()]
            for problem in self.checked[(k, digest)]:
                self._fail(item, problem)
        return res

    def _fail(self, item, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item.label}: {problem}")


def consistency_problems(items, passes, name, seed) -> list[str]:
    """Every pass, traced or not, must give the first pass's outputs; at
    the default seed they must also match the pinned golden digests."""
    out = []
    first = passes[0].digests
    for i, ps in enumerate(passes[1:], 1):
        for item, a, b in zip(items, first, ps.digests):
            if a != b:
                out.append(f"{item.label}: pass {i} output differs from pass 0")
    if seed == DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh).get(name, {})
        for item, digest in zip(items, first):
            if golden.get(item.label) != digest:
                out.append(f"{item.label}: output digest differs from golden.json")
        if len(golden) != len(items):
            out.append(f"golden.json pins {len(golden)} items, corpus has {len(items)}")
    return out


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def item_medians(passes, attr="scaled") -> list[float]:
    """Each item's median time over the passes (failed repetitions left out)."""
    per_item = zip(*(getattr(ps, attr) for ps in passes))
    return [statistics.median([t for t in ts if t == t] or [float("nan")]) for ts in per_item]


def end_to_end(passes, setup) -> dict:
    items = item_medians(passes)
    n = len(passes)
    return {
        "wall_s": (sum(items), "s", n),
        "item_p50_ms": (1e3 * statistics.median(items), "ms", len(items)),
        "item_p90_ms": (1e3 * quantile(items, 0.9), "ms", len(items)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(tracer, plain, traced) -> dict:
    n = len(traced)
    out = {name: (value, unit, n) for name, (value, unit) in layer_metrics(tracer.stats, n).items()}
    top = sum(c for ps in traced for c, _ in ps.covered)
    item_s = sum(t for ps in traced for _, t in ps.covered)
    # the mean traced pass, like the per-pass span times it is the total of
    out["trace.wall_s"] = (statistics.fmean(ps.wall_s for ps in traced), "s", n)
    out["trace.overhead_ratio"] = (sum(item_medians(traced)) / sum(item_medians(plain)), "ratio", n)
    out["trace.covered_frac"] = (top / item_s, "fraction", n)
    out["trace.spans"] = (len(tracer.spans) / n, "count", n)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    setup = [] if args.setup_only or args.trace else measure_setup(args)
    import workloads

    with Workdir(args.workload, args.seed) as workdir:
        items = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        loop = numpy_loop if args.workload in workloads.NUMPY_BOUND else interpreter_loop
        runner = Runner(items, tracer, loop)
        passes: list[Pass] = []
        start = perf_counter()
        while True:
            if args.trace:
                passes.append(runner.run_pass(False))
                tracer.install()
                try:
                    passes.append(runner.run_pass(True))
                finally:
                    tracer.uninstall()
            else:
                passes.append(runner.run_pass(False))
            if perf_counter() - start >= args.seconds:
                break
    problems = consistency_problems(items, passes, args.workload, args.seed)
    plain = [ps for ps in passes if not ps.traced]
    if args.trace:
        metrics = per_layer(tracer, plain, [ps for ps in passes if ps.traced])
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        tracer.write_spans(os.path.join(outdir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(plain, setup)

    print(f"workload {args.workload}  seed {args.seed}  items {len(items)}  passes {len(passes)}"
          f"  nproc {os.cpu_count()}  python {platform.python_version()}  numpy {np.__version__}")
    print(f"  unscaled corpus time {sum(item_medians(plain, 'times')):.6g} s;"
          f" time scale {sum(item_medians(plain)) / sum(item_medians(plain, 'times')):.4f}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit:8s} n={count}")
    failed = runner.failed + len(problems)
    for problem in runner.problems + problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
