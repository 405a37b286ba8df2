"""The README's examples run against the current API."""

from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

from gadgetminer import cli

README = Path(__file__).resolve().parent.parent / "README.md"
HOSTS = Path(__file__).resolve().parent / "fixtures" / "hosts"


def _fenced_blocks(section: str, lang: str = "") -> list[str]:
    """The fenced blocks tagged lang of one '## ' section of the README."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", body, re.S | re.M)


def test_library_example_runs(capsys):
    blocks = _fenced_blocks("Library", "python")
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "((0, 1), (1, 0), (1, 2), (2, 1))"
    # the two back-to-back pairs are one class, repeated twice
    assert len(out) == 2 and out[1].endswith(" 2 [(0, 1), (2, 3)]")


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # every command of the block, in order (stats reads what gen wrote),
    # in a directory holding the corpus_dir and circuit.txt it names
    lines = [shlex.split(line, comments=True)
             for line in _fenced_blocks("Command line")[0].splitlines()]
    assert len(lines) == 6
    shutil.copytree(HOSTS, tmp_path / "corpus_dir")
    shutil.copy(HOSTS / "host_a.txt", tmp_path / "circuit.txt")
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert argv[0] == "gadgetminer"
        assert cli.main(argv[1:]) == 0, argv
        capsys.readouterr()
