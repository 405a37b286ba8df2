"""Every module under src/ and tests/ uses each name it imports: an import
left behind by a change is dead code that still costs start-up time."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import in the tree and read nowhere in it.  An
    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing."""
    bound: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(bound - used)


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, os.path, json as j\n"
                     "from x import a, b as c\n"
                     "def f():\n"
                     "    import sys\n"
                     "    return os.sep, c\n")
    assert unused_imports(tree) == ["a", "j", "sys"]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.relative_to(ROOT)}: {name}"
                  for name in unused_imports(tree)]
    assert found == []
