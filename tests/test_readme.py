"""The README's examples are executable: the quick-start ``check`` and the
``hypersurface_certificate`` snippet print exactly the text the README
shows, so the documentation cannot drift from the code."""

import contextlib
import io
import re
from pathlib import Path

from cmwild.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
BLOCKS = re.findall(r"```[a-z]*\n(.*?)```", README, re.S)


def _block_with(text: str) -> int:
    matches = [i for i, block in enumerate(BLOCKS) if text in block]
    assert len(matches) == 1, f"README has {len(matches)} blocks with {text!r}"
    return matches[0]


def test_quick_start_check_prints_the_readme_output(tmp_path, capsys):
    i = _block_with("cmwild check --ring ring.json")
    ring_json = re.search(r"<<'EOF'\n(.*?)\nEOF", BLOCKS[i], re.S).group(1)
    ring = tmp_path / "ring.json"
    ring.write_text(ring_json)
    assert main(["check", "--ring", str(ring)]) == 0
    assert capsys.readouterr().out == BLOCKS[i + 1]


def test_hypersurface_snippet_prints_the_readme_comment():
    block = BLOCKS[_block_with("hypersurface_certificate(ring)")]
    expected = "".join(
        line[2:] + "\n" for line in block.splitlines() if line.startswith("# ")
    )
    assert expected == "StrictlyCMInfinite 3 2\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == expected
