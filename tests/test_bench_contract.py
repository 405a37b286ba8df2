"""The benchmark harness imports program names and its tracer wraps
program functions by name; every such name must exist, or each benchmark
run fails at start-up."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gadgetminer import canon, kernels
from gadgetminer.canon import group_candidates
from gadgetminer.catalog import FAMILIES, build_gadget, plant
from gadgetminer.circuit import Circuit
from gadgetminer.mining import mine_circuit

from conftest import ordered_graph_key

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("modname, attr", _targets())
def test_tracer_target_exists(modname, attr):
    obj = importlib.import_module(f"gadgetminer.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _harness_imports():
    """(file, module, name) of every ``from gadgetminer... import name``
    in the harness, and (file, module, None) of every ``import
    gadgetminer...``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "gadgetminer"):
                found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "gadgetminer"]
    return found


def test_harness_imports_resolve():
    imports = _harness_imports()
    assert any(name == "certificate" for _, _, name in imports)
    for file, module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:  # a submodule, as in ``from gadgetminer import kernels``
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            pytest.fail(f"{file}: from {module} import {name}")


def test_one_canonical_search_per_distinct_graph(monkeypatch):
    """Grouping mined candidates calls canon.certificate once per
    candidate, on its gate tuples, which the benchmark's traced check
    reads as canon.certificates == mining.kept, and the canonical search
    once per distinct slot table (ordered labelled graph)."""
    rng = random.Random(9)
    candidates = []
    for i in range(8):
        host = Circuit(8, (), name=f"host{i}")
        for _ in range(3):
            spec = build_gadget(rng.choice(FAMILIES), rng.choice((1, 2)))
            qubits = rng.sample(range(8), spec.qubits_touched)
            host = plant(host, spec, qubits, host.cx_count)
        candidates += mine_circuit(host, 4).candidates
    searched, certified = [], []
    search, cert = kernels.canonical_encoding, canon.certificate
    monkeypatch.setattr(kernels, "canonical_encoding",
                        lambda *a: searched.append(a) or search(*a))
    monkeypatch.setattr(canon, "certificate",
                        lambda g, *a: certified.append(g) or cert(g, *a))
    group_candidates(candidates)
    distinct = {ordered_graph_key(c.graph) for c in candidates}
    assert certified == [c.gates for c in candidates]
    assert len(searched) == len(distinct) < len(candidates)


def test_cli_import_loads_traced_modules_and_no_pool():
    """The tracer wraps only the modules loaded by ``import
    gadgetminer.cli``, so that import must load every target module; it
    must not load a process-pool package, which every command, the
    benchmark's set-up probe included, would pay for."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, gadgetminer.cli; print(json.dumps(list(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    for modname in {m for m, _ in _targets()}:
        assert f"gadgetminer.{modname}" in loaded
    assert "concurrent.futures" not in loaded
    assert "multiprocessing" not in loaded
