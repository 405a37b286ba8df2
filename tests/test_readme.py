"""The README's examples run against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(section: str) -> list[str]:
    """The fenced python blocks of one '## ' section of the README."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", body, re.S | re.M)


def test_library_example_runs(capsys):
    blocks = _python_blocks("Library")
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "((0, 1), (1, 0), (1, 2), (2, 1))"
    # the two back-to-back pairs are one class, repeated twice
    assert len(out) == 2 and out[1].endswith(" 2 [(0, 1), (2, 3)]")
