"""The benchmark tracer wraps program functions by name; every name it
lists must exist, or each traced benchmark run fails at start-up."""

from __future__ import annotations

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from gadgetminer import canon, kernels
from gadgetminer.canon import group_candidates
from gadgetminer.catalog import FAMILIES, build_gadget, plant
from gadgetminer.circuit import Circuit
from gadgetminer.graph import circuit_to_graph
from gadgetminer.mining import mine_circuit

from conftest import ordered_graph_key

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_one_canonical_search_per_distinct_graph(monkeypatch):
    """Grouping mined candidates calls canon.certificate once per
    candidate, which the benchmark's traced check reads as
    canon.certificates == mining.kept, and the canonical search once per
    distinct ordered labelled graph."""
    rng = random.Random(9)
    candidates = []
    for i in range(8):
        host = Circuit(8, (), name=f"host{i}")
        for _ in range(3):
            spec = build_gadget(rng.choice(FAMILIES), rng.choice((1, 2)))
            qubits = rng.sample(range(8), spec.qubits_touched)
            host = plant(host, spec, qubits, host.cx_count)
        candidates += mine_circuit(circuit_to_graph(host), 4).candidates
    searched, certified = [], []
    search, cert = kernels.canonical_encoding, canon.certificate
    monkeypatch.setattr(kernels, "canonical_encoding",
                        lambda *a: searched.append(a) or search(*a))
    monkeypatch.setattr(canon, "certificate",
                        lambda g, **kw: certified.append(g) or cert(g, **kw))
    canon._certificate.cache_clear()
    group_candidates(candidates)
    distinct = {ordered_graph_key(c.graph) for c in candidates}
    assert certified == [c.graph for c in candidates]
    assert len(searched) == len(distinct) < len(candidates)
