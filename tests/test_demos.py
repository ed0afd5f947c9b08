"""The demos print fixed bytes: SHA-256 digests of each demo's stdout.

A demo that unpacks a changed return value may still print, only wrongly
(a tuple where a list of polynomials was meant), so the digest is the
check, not the absence of an exception.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo file -> SHA-256 of its stdout
DIGESTS = {
    "family_construction.py": "a447b699e2c66ace6f3bc6b22192317974193e8f671b4e0e8e15c407e64b7718",
    "resolution_tour.py": "8bbe6591e2a3f0fa42089e6b2c33d882d40ddfe233db8cacb50f73efd3e52a70",
    "wildness_walkthrough.py": "4c254a17ff54d3d3f6f514faa946917b77b95ead1dafea61d402a7dcc60558b3",
}


def test_every_demo_is_pinned():
    assert set(DIGESTS) == {p.name for p in DEMOS.glob("*.py")}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]
