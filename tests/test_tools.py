"""The command-line helpers under ``tools/``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def check_trace_counts(workload, metrics):
    """Run the trace-count check on a result with the given metrics."""
    result = {"metrics": metrics}
    return subprocess.run(
        [sys.executable, str(TOOLS / "check_trace_counts.py"), workload],
        input=json.dumps(result) + "\n",
        capture_output=True,
        text=True,
        timeout=60,
    )


def family_pins():
    """The pinned ``family`` counts as result metrics; the pins are only
    read here."""
    pins = json.loads((TOOLS / "trace_counts.json").read_text(encoding="utf-8"))
    return {name: {"unit": "count", "value": v} for name, v in pins["family"].items()}


def test_trace_count_check_names_a_workload_without_pins():
    proc = check_trace_counts(
        "no_such_workload", {"resolution.minimal_resolution.calls": {"unit": "count", "value": 1.0}}
    )
    assert proc.returncode == 1
    assert proc.stdout == "no pinned counts for no_such_workload\n"
    assert proc.stderr == ""


def test_trace_count_check_passes_the_pinned_counts():
    metrics = family_pins()
    # metrics of other units are not counts, whatever their value
    metrics["trace.wall_s"] = {"unit": "s", "value": 12.5}
    proc = check_trace_counts("family", metrics)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_trace_count_check_names_a_changed_count():
    metrics = family_pins()
    name = "resolution.minimal_resolution.total_rank"
    pinned = metrics[name]["value"]
    metrics[name] = {"unit": "count", "value": pinned + 1}
    proc = check_trace_counts("family", metrics)
    assert proc.returncode == 1
    assert proc.stdout == f"family: {name}: pinned {pinned}, got {pinned + 1}\n"


def test_trace_count_check_ignores_normal_form_calls():
    metrics = family_pins()
    metrics["groebner.GroebnerBasis.normal_form.calls"] = {"unit": "count", "value": 12345.0}
    proc = check_trace_counts("family", metrics)
    assert (proc.returncode, proc.stdout) == (0, "")


def run_check_trace_counts(args, stdin):
    return subprocess.run(
        [sys.executable, str(TOOLS / "check_trace_counts.py"), *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_trace_count_check_without_a_workload_prints_usage():
    result = json.dumps({"metrics": family_pins()}) + "\n"
    for args in ([], ["--pin"]):
        proc = run_check_trace_counts(args, result)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: ") and proc.stderr.count("\n") == 1


def test_trace_count_check_with_empty_stdin_prints_usage():
    for stdin in ("", "\n  \n"):
        proc = run_check_trace_counts(["family"], stdin)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: ") and proc.stderr.count("\n") == 1


def test_trace_count_check_rejects_a_last_line_without_metrics():
    result = json.dumps({"metrics": family_pins()})
    for stdin in ("not json\n", result + "\ntrailing\n", '{"workload": "family"}\n', "[1, 2]\n"):
        proc = run_check_trace_counts(["family"], stdin)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "not a result with metrics" in proc.stderr and proc.stderr.count("\n") == 1


def test_trace_count_check_pins_nothing_from_a_bad_result():
    before = (TOOLS / "trace_counts.json").read_bytes()
    proc = run_check_trace_counts(["family", "--pin"], '{"metrics": 3}\n')
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1
    assert (TOOLS / "trace_counts.json").read_bytes() == before


def test_trace_counts_pin_every_count_metric_of_every_workload():
    # a partial re-pin would leave a workload with missing or stale names
    path = TOOLS / "check_trace_counts.py"
    spec = importlib.util.spec_from_file_location("check_trace_counts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counted = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"} - tool.EXCLUDED
    pins = json.loads((TOOLS / "trace_counts.json").read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(w["name"] for w in bench["workloads"])
    for workload, pinned in pins.items():
        assert set(pinned) == counted, workload


def test_trace_counts_file_is_what_pin_writes():
    # --pin writes json.dump(..., indent=1, sort_keys=True) and a newline,
    # so a hand edit that changes the layout or the key order fails here
    text = (TOOLS / "trace_counts.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_a_failing_property_prints_its_example(tmp_path):
    # under filterwarnings = error, a third-party deprecation raised in
    # hypothesis's report hook once ended the run in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
