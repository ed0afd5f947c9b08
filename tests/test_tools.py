"""The command-line helpers under ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_trace_count_check_names_a_workload_without_pins():
    result = {"metrics": {"resolution.minimal_resolution.calls": {"unit": "count", "value": 1.0}}}
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "check_trace_counts.py"), "no_such_workload"],
        input=json.dumps(result) + "\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "no pinned counts for no_such_workload\n"
    assert proc.stderr == ""
