"""Every module under src/ and tests/ uses each name it imports, every
function under src/ and in tests/reference.py reads each parameter it
takes, and every private name defined under src/ is read there, with no
exemption: an import, a parameter or a private helper left behind by a
change is dead code, and an import still costs start-up time.  The
brute-force references in tests/reference.py import from the program
only the circuit type and the graph containers, and no test module
imports another."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for each import in the tree: ("a.b", "") for
    ``import a.b`` and ("a", "x") for ``from a import x``; a relative
    module keeps its leading dots."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, "") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [(module, a.name) for a in node.names]
    return found


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


def unused_parameters(tree: ast.Module) -> list[str]:
    """"function(parameter)" for each parameter of a function or lambda in
    the tree that its body never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        found += [f"{name}({p.arg})" for p in params if p.arg not in read]
    return found


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
        found += [f"{path.relative_to(ROOT)}: {name}"
                  for name in unused_imports(parse(path))]
    assert found == []


def test_imports_are_listed():
    tree = ast.parse("import os.path, json as j\n"
                     "from . import a\n"
                     "from .m import b as c\n"
                     "def f():\n"
                     "    from x.y import z\n")
    assert imports(tree) == [("os.path", ""), ("json", ""), (".", "a"),
                             (".m", "b"), ("x.y", "z")]


def test_reference_imports_only_inputs_and_graph_containers():
    """tests/reference.py takes from gadgetminer only the circuit module
    and the graph containers, so it shares no code with what it checks,
    and imports neither pytest nor a test module, so it runs standalone."""
    found = []
    for module, name in imports(parse(REFERENCE)):
        top = module.split(".")[0]
        allowed = (module == "gadgetminer.circuit"
                   or module == "gadgetminer.graph"
                   and name in ("CircuitGraph", "GraphNode", "GraphEdge"))
        if not allowed and (top in ("", "gadgetminer", "pytest", "conftest")
                            or top.startswith("test_")):
            found.append(f"{module} {name}".strip())
    assert found == []


def test_no_test_module_imports_another():
    """Helpers the test modules share live in conftest.py and
    reference.py, not in a test module."""
    found = [f"{path.relative_to(ROOT)}: {module}"
             for path in sorted(ROOT.glob("tests/*.py"))
             for module, _ in imports(parse(path))
             if module.startswith("test_")]
    assert found == []


def test_unused_parameters_are_found():
    # a parameter only assigned is not read, and one read only in a
    # nested function is
    tree = ast.parse("def f(a, b, *args, c, **kw):\n"
                     "    b = 1\n"
                     "    def g(d):\n"
                     "        return a\n"
                     "    return c, (lambda e, f: f)\n"
                     "class K:\n"
                     "    def m(self, x):\n"
                     "        return x\n")
    assert sorted(unused_parameters(tree)) == [
        "f(args)", "f(b)", "f(kw)", "g(d)", "lambda(e)", "m(self)"]


def test_no_function_takes_a_parameter_it_never_reads():
    found = []
    for path in [*sorted(ROOT.glob("src/**/*.py")), REFERENCE]:
        found += [f"{path.relative_to(ROOT)}: {name}"
                  for name in unused_parameters(parse(path))]
    assert found == []


def _reads(node: ast.AST) -> Counter:
    """How often each name is read in the node, as a variable or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """"module: name" for each private name (one leading underscore) that
    a module defines at its top level, as a function, class or constant,
    or as a method of a top-level class, and that no module reads outside
    the definition itself: a recursive call is not a read."""
    read = sum(map(_reads, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(f.name, f) for f in node.body
                         if isinstance(f, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs += [(t.id, node) for t in targets
                         if isinstance(t, ast.Name)]
        found += [f"{module}: {name}" for name, node in defs
                  if name.startswith("_") and not name.startswith("__")
                  and read[name] == _reads(node)[name]]
    return sorted(found)


def test_unread_private_names_are_found():
    # _f only calls itself and _m is never called; _A, _B, _n and _K are
    # read, and __init__ is not private
    tree = ast.parse("_A = 1\n"
                     "_B: int = _A\n"
                     "def _f(n):\n"
                     "    return _f(n - 1)\n"
                     "class _K:\n"
                     "    def __init__(self):\n"
                     "        pass\n"
                     "    def _m(self):\n"
                     "        return self._n()\n"
                     "    def _n(self):\n"
                     "        return _B\n"
                     "print(_K)\n")
    assert unread_private_names({"m": tree}) == ["m: _f", "m: _m"]


def test_every_private_name_under_src_is_read():
    trees = {str(path.relative_to(ROOT)): parse(path)
             for path in sorted(ROOT.glob("src/**/*.py"))}
    assert unread_private_names(trees) == []
