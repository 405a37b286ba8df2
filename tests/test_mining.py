"""Subset enumeration, candidate extraction, filters, the mining loop."""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from gadgetminer import graph, mining
from gadgetminer.circuit import Circuit, CnotGate
from gadgetminer.graph import CircuitGraph, circuit_to_graph
from gadgetminer.mining import (
    MiningLimits,
    contract_timelines,
    extract_candidate,
    mine_circuit,
    ordered_cnot_edges,
    passes_closure_filter,
    passes_stationarity_filter,
)

from conftest import random_circuit


def test_ordered_cnot_edges(ref_circuit):
    g = circuit_to_graph(ref_circuit)
    edges = ordered_cnot_edges(g)
    assert [g.node(e.src).layer for e in edges] == list(range(6))


def test_extract_candidate_structure():
    c = Circuit.from_pairs(3, [(0, 1), (1, 2), (0, 1)], name="h")
    g = circuit_to_graph(c)
    edges = ordered_cnot_edges(g)
    cand = extract_candidate(g, (edges[0], edges[2]))
    assert cand.source_circuit == "h"
    assert cand.layers == (0, 2)
    assert len(cand.graph) == 4
    assert len(cand.graph.cnot_edges) == 2
    # fresh chains: qubit 0 (nodes 0 -> 4), qubit 1 (nodes 1 -> 5)
    assert {(e.src, e.dst) for e in cand.graph.time_edges} == {(0, 4), (1, 5)}
    # node ids are the host's ids
    assert {nd.id for nd in cand.graph.nodes} == {0, 1, 4, 5}


def test_taint_from_interleaved_gate():
    # middle gate touches qubit 1 strictly inside the chosen span
    c = Circuit.from_pairs(3, [(0, 1), (1, 2), (0, 1)])
    g = circuit_to_graph(c)
    edges = ordered_cnot_edges(g)
    cand = extract_candidate(g, (edges[0], edges[2]))
    assert cand.tainted


def test_no_taint_from_disjoint_gate():
    # middle gate lives on other qubits entirely
    c = Circuit.from_pairs(4, [(0, 1), (2, 3), (0, 1)])
    g = circuit_to_graph(c)
    edges = ordered_cnot_edges(g)
    cand = extract_candidate(g, (edges[0], edges[2]))
    assert not cand.tainted


def test_closure_filter():
    pair = circuit_to_graph(Circuit.from_pairs(2, [(0, 1), (1, 0)]))
    cand = extract_candidate(pair, ordered_cnot_edges(pair))
    assert passes_closure_filter(cand)
    single = circuit_to_graph(Circuit.from_pairs(2, [(0, 1)]))
    cand1 = extract_candidate(single, ordered_cnot_edges(single))
    assert not passes_closure_filter(cand1)
    # disconnected pair of 4-cycles
    quad = circuit_to_graph(
        Circuit.from_pairs(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
    cand2 = extract_candidate(quad, ordered_cnot_edges(quad))
    assert not passes_closure_filter(cand2)


def test_stationarity_filter():
    # repeated identical gates commute: slidable, rejected
    rep = circuit_to_graph(Circuit.from_pairs(2, [(0, 1), (0, 1)]))
    cand = extract_candidate(rep, ordered_cnot_edges(rep))
    assert not passes_stationarity_filter(cand)
    # control/target swap anticommutes: kept
    swap = circuit_to_graph(Circuit.from_pairs(2, [(0, 1), (1, 0)]))
    cand2 = extract_candidate(swap, ordered_cnot_edges(swap))
    assert passes_stationarity_filter(cand2)


def test_stationarity_blocked_pair():
    # outer gates commute but a chosen middle gate pins them in place
    c = Circuit.from_pairs(2, [(0, 1), (1, 0), (0, 1)])
    g = circuit_to_graph(c)
    cand = extract_candidate(g, ordered_cnot_edges(g))
    assert passes_stationarity_filter(cand)
    # dropping the middle gate exposes the commuting adjacency
    edges = ordered_cnot_edges(g)
    outer = extract_candidate(g, (edges[0], edges[2]))
    assert not passes_stationarity_filter(outer)


def test_contract_timelines_identity_on_extracted(ref_circuit):
    g = circuit_to_graph(ref_circuit)
    for subset in combinations(ordered_cnot_edges(g), 2):
        cand = extract_candidate(g, subset)
        assert contract_timelines(cand).graph == cand.graph


def test_mine_reference_circuit(ref_circuit):
    res = mine_circuit(ref_circuit, 2)
    assert res.subsets_total == 15
    # the six pairs of gates consecutive on some qubit
    assert res.subsets_examined == 6
    assert not res.truncated
    assert [c.layers for c in res.candidates] == [(0, 1), (2, 3), (4, 5)]


def test_mined_candidates_satisfy_all_filters():
    rng = random.Random(321)
    for _ in range(15):
        c = random_circuit(rng, rng.randrange(2, 5), rng.randrange(2, 9))
        for c_g in range(2, min(5, c.cx_count) + 1):
            for cand in mine_circuit(c, c_g).candidates:
                assert not cand.tainted
                assert passes_closure_filter(cand)
                assert passes_stationarity_filter(cand)
                assert cand.layers == tuple(sorted(cand.layers))
                assert len(cand.layers) == c_g


def _timeline_connected(circuit, subset) -> bool:
    """Gates joined when consecutive in the circuit on some qubit."""
    on_qubit: dict[int, list[int]] = {}
    for i, g in enumerate(circuit.gates):
        for q in (g.control, g.target):
            on_qubit.setdefault(q, []).append(i)
    pairs = {frozenset(p) for seq in on_qubit.values()
             for p in zip(seq, seq[1:])}
    reached, todo = {subset[0]}, [subset[0]]
    while todo:
        a = todo.pop()
        for b in subset:
            if b not in reached and frozenset((a, b)) in pairs:
                reached.add(b)
                todo.append(b)
    return len(reached) == len(subset)


def _relayered(circuit: Circuit, rng: random.Random) -> Circuit:
    """The circuit with its gates at increasing layers from 3 up, with
    gaps, so that no layer is its gate's index."""
    gates, layer = [], 2
    for g in circuit.gates:
        layer += rng.randrange(1, 5)
        gates.append(CnotGate(g.control, g.target, layer))
    return Circuit(circuit.n_qubits, tuple(gates), name=circuit.name)


def test_mine_matches_exhaustive_oracle():
    rng = random.Random(654)
    # gate 0 is the least gate of two kept sets at C_g = 4, so the order
    # of the sets found from one root is checked
    circuits = [Circuit.from_pairs(
        3, [(1, 2), (2, 1), (1, 0), (0, 2), (2, 0)])]
    circuits += [random_circuit(rng, rng.randrange(2, 6), rng.randrange(1, 13))
                 for _ in range(30)]
    circuits += [_relayered(c, rng) for c in circuits[:4]]
    for c in circuits:
        g = circuit_to_graph(c)
        for c_g in range(1, min(6, c.cx_count) + 1):
            want = []
            for subset in combinations(ordered_cnot_edges(g), c_g):
                cand = extract_candidate(g, subset)
                if (not cand.tainted
                        and passes_closure_filter(cand)
                        and passes_stationarity_filter(cand)):
                    want.append(cand)
            res = mine_circuit(c, c_g)
            assert [(x.graph, x.layers) for x in res.candidates] == [
                (x.graph, x.layers) for x in want]
            assert not res.truncated
            # the count does not depend on how the gates are numbered
            assert res.subsets_examined == sum(
                _timeline_connected(c, s)
                for s in combinations(range(c.cx_count), c_g))
            for cap in range(len(want) + 1):
                capped = mine_circuit(c, c_g,
                                      MiningLimits(max_candidates=cap))
                assert [x.graph for x in capped.candidates] == [
                    x.graph for x in want[:cap]]
                if cap < len(want):
                    assert capped.truncated
                    assert capped.reason == "max_candidates"


def test_mine_builds_a_graph_only_per_kept_candidate(monkeypatch,
                                                     ref_circuit):
    builds = []

    class CountingGraph(CircuitGraph):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    rng = random.Random(77)
    hosts = [ref_circuit] + [random_circuit(rng, 4, 30) for _ in range(3)]
    # no host graph: a kept set's graph is built in graph
    monkeypatch.setattr(graph, "CircuitGraph", CountingGraph)
    monkeypatch.setattr(mining, "CircuitGraph", CountingGraph)
    kept = 0
    for c in hosts:
        for c_g in range(2, 6):
            builds.clear()
            res = mine_circuit(c, c_g)
            assert len(builds) == len(res.candidates)
            kept += len(res.candidates)
    assert kept > 0


def test_mined_candidates_share_gate_objects():
    """The candidates of one circuit share each gate's node and cnot-edge
    objects, so a pickled result (what a --jobs worker returns) holds
    each once."""
    # a host whose kept sets at C_g = 4 overlap
    c = random_circuit(random.Random(3), 3, 20)
    seen = {}
    repeats = 0
    for cand in mine_circuit(c, 4).candidates:
        for obj in cand.graph.nodes + cand.graph.cnot_edges:
            if obj in seen:
                assert seen[obj] is obj
                repeats += 1
            seen[obj] = obj
    assert repeats > 0


def test_oversized_subset_returns_empty():
    c = Circuit.from_pairs(2, [(0, 1)])
    res = mine_circuit(c, 5)
    assert res.candidates == [] and not res.truncated
    assert res.subsets_total == 0
    with pytest.raises(ValueError):
        mine_circuit(c, 0)


def test_max_candidates_truncation(ref_circuit):
    res = mine_circuit(ref_circuit, 2, MiningLimits(max_candidates=1))
    assert res.truncated and res.reason == "max_candidates"
    assert len(res.candidates) == 1
    assert res.subsets_examined < res.subsets_total
    # the second keep arrives mid-scan, the third only on the last subset
    two = mine_circuit(ref_circuit, 2, MiningLimits(max_candidates=2))
    assert two.truncated and len(two.candidates) == 2
    exact = mine_circuit(ref_circuit, 2, MiningLimits(max_candidates=3))
    assert not exact.truncated and len(exact.candidates) == 3


def test_time_budget_truncation():
    rng = random.Random(8)
    c = random_circuit(rng, 6, 24)
    res = mine_circuit(c, 4, MiningLimits(deadline=time.monotonic()))
    assert res.truncated and res.reason == "time_budget"
    # the deadline is checked before the first set is visited
    assert res.subsets_examined == 0
