"""Subset enumeration, candidate extraction, filters, the mining loop."""

from __future__ import annotations

import gc
import io
import json
import math
import pickle
import random
import time
import tracemalloc
from itertools import combinations

import pytest

from gadgetminer import cli, mining
from gadgetminer.circuit import Circuit, save_circuit
from gadgetminer.cli import main
from gadgetminer.graph import CircuitGraph, circuit_to_graph
from gadgetminer.mining import (
    contract_timelines,
    extract_candidate,
    mine_circuit,
    ordered_cnot_edges,
    passes_closure_filter,
    passes_stationarity_filter,
)

import reference
from conftest import brickwork_ring, random_circuit


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
    assert not res.reason
    assert [c.layers for c in res.candidates] == [(0, 1), (2, 3), (4, 5)]


def test_mined_candidates_satisfy_all_filters():
    rng = random.Random(321)
    for _ in range(15):
        c = random_circuit(rng, rng.randrange(2, 5), rng.randrange(2, 9))
        host = circuit_to_graph(c)
        edges = ordered_cnot_edges(host)
        for c_g in range(2, min(5, c.cx_count) + 1):
            for cand in mine_circuit(c, c_g).candidates:
                ref = extract_candidate(host, [edges[g[0]] for g in cand.gates])
                assert not ref.tainted and ref.graph == cand.graph
                assert passes_closure_filter(cand)
                assert passes_stationarity_filter(cand)
                assert cand.layers == tuple(sorted(cand.layers))
                assert len(cand.layers) == c_g


def test_mine_matches_exhaustive_oracle():
    rng = random.Random(654)
    # gate 0 is the least gate of two kept sets at C_g = 4, so the order
    # of the sets found from one root is checked
    circuits = [Circuit.from_pairs(
        3, [(1, 2), (2, 1), (1, 0), (0, 2), (2, 0)])]
    circuits += [random_circuit(rng, rng.randrange(2, 6), rng.randrange(1, 13))
                 for _ in range(30)]
    cases = [(c, range(1, min(6, c.cx_count) + 1)) for c in circuits]
    # above 64 gates, a set's mask spans more than one machine word
    cases.append((random_circuit(rng, 3, 70), range(2, 4)))
    for c, sizes in cases:
        for c_g in sizes:
            want = reference.mine(c, c_g)
            graphs = [reference.candidate_graph(c, s) for s in want]
            res = mine_circuit(c, c_g)
            assert [(x.graph, x.layers) for x in res.candidates] == list(
                zip(graphs, want))
            assert not res.reason
            # the count does not depend on how the gates are numbered
            connected = reference.timeline_connected_sets(c, c_g)
            assert res.subsets_examined == len(connected)
            for cap in range(len(want) + 1):
                capped = mine_circuit(c, c_g, max_candidates=cap)
                assert [x.graph for x in capped.candidates] == graphs[:cap]
                # a capped run ends at the root boundary after the cap-th
                # kept set: it examines every set whose least gate is at
                # most that set's
                last = want[cap - 1][0] if cap else -1
                assert capped.subsets_examined == sum(
                    s[0] <= last for s in connected)
                if cap < len(want):
                    assert capped.reason == "max_candidates"


def test_mine_builds_graphs_only_for_reported_classes(monkeypatch, tmp_path):
    """Mining and grouping build no graph; the report builds one per
    reported class, its representative's."""
    builds = []
    init = CircuitGraph.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    rng = random.Random(77)
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(4):
        save_circuit(random_circuit(rng, 4, 30), inputs / f"c{i}.txt")
    monkeypatch.setattr(CircuitGraph, "__init__", counting_init)
    gadgets = 0
    for c_g in range(2, 6):
        builds.clear()
        out = tmp_path / f"out{c_g}"
        assert main(["mine", "--input", str(inputs), "--gadget-cnots",
                     str(c_g), "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(builds) == manifest["gadgets"] < manifest["candidates"]
        gadgets += manifest["gadgets"]
    assert gadgets > 0


def test_mine_result_pickle_holds_no_graph():
    """What a --jobs worker pickles back is the mining result and its
    candidates' gate tuples: no graph, node or edge objects."""
    c = random_circuit(random.Random(3), 3, 20)
    res = cli._mine_one((c, 4, math.inf, math.inf))
    assert res.candidates
    classes = []

    class Recording(pickle.Unpickler):
        def find_class(self, module, name):
            classes.append(f"{module}.{name}")
            return super().find_class(module, name)

    back = Recording(io.BytesIO(pickle.dumps(res))).load()
    assert back == res
    assert sorted(set(classes)) == ["gadgetminer.mining.MinedCandidate",
                                    "gadgetminer.mining.MiningResult"]


def test_mining_frees_visited_sets_without_the_cyclic_collector():
    """The 6,826 visited masks are garbage once mine_circuit returns, with
    no reference cycle holding them (a recursive closure would be one).
    The walk holds only the sets that pass the taint and closure test, so
    the peak does not grow with the 41,368 sets visited at C_g = 8."""
    rng = random.Random(3)
    c = Circuit(4, [tuple(rng.sample(range(4), 2)) for _ in range(120)])
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        res = mine_circuit(c, 6)
        assert res.subsets_examined == 6826
        del res
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert mine_circuit(c, 8).subsets_examined == 41_368
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert live < 100_000
    # this walk peaks near 25 KB, one that holds every visited set near 100 KB
    assert peak < 50_000


def test_oversized_subset_returns_empty():
    c = Circuit.from_pairs(2, [(0, 1)])
    res = mine_circuit(c, 5)
    assert res.candidates == [] and not res.reason
    assert res.subsets_total == 0
    with pytest.raises(ValueError):
        mine_circuit(c, 0)


def test_max_candidates_truncation(ref_circuit):
    res = mine_circuit(ref_circuit, 2, max_candidates=1)
    assert res.reason == "max_candidates"
    assert len(res.candidates) == 1
    assert res.subsets_examined < res.subsets_total
    # the second keep comes from root 2, the third from root 4, the last
    # root: a cap of 2 stops before root 3, and a cap of 3 walks every root
    two = mine_circuit(ref_circuit, 2, max_candidates=2)
    assert two.reason == "max_candidates" and len(two.candidates) == 2
    exact = mine_circuit(ref_circuit, 2, max_candidates=3)
    assert not exact.reason and len(exact.candidates) == 3


def test_capped_run_tests_each_set_once(monkeypatch):
    """A cap ends the walk at a root boundary, with no second walk of the
    root where it is reached: every set the run tests is counted once in
    subsets_examined."""
    ring = brickwork_ring(12)
    calls = []
    closed = mining._closed_untainted
    monkeypatch.setattr(mining, "_closed_untainted",
                        lambda m, lines: calls.append(m) or closed(m, lines))
    res = mine_circuit(ring, 12, max_candidates=50)
    assert res.reason == "max_candidates" and len(res.candidates) == 50
    assert len(calls) == len(set(calls)) == res.subsets_examined


def test_time_budget_cuts_inside_a_root(monkeypatch):
    """The clock is read once every DEADLINE_STRIDE sets, inside a root
    too.  With a clock that reads the number of sets tested, the run
    stops within one stride of the deadline, in the middle of root 0's
    823 sets, and the cut root gives the kept sets among those tested."""
    ring = brickwork_ring(8)
    tested, reads = [], []
    closed = mining._closed_untainted
    monkeypatch.setattr(mining, "_closed_untainted",
                        lambda m, lines: tested.append(m) or closed(m, lines))
    full = mine_circuit(ring, 8)
    assert sum(m & 1 for m in tested) == 823
    tested.clear()
    monkeypatch.setattr(mining, "monotonic",
                        lambda: reads.append(1) or len(tested))
    deadline = 250
    res = mine_circuit(ring, 8, deadline=deadline)
    assert res.reason == "time_budget"
    assert res.subsets_examined == len(tested)
    assert deadline <= len(tested) <= deadline + mining.DEADLINE_STRIDE
    assert len(reads) <= len(tested) // mining.DEADLINE_STRIDE + 1
    assert all(m & 1 for m in tested)  # root 0's sets only
    masks = set(tested)
    kept = [x for x in full.candidates
            if sum(1 << i for i in x.layers) in masks]
    assert len(kept) > 1 and res.candidates == kept


def test_time_budget_truncation():
    rng = random.Random(8)
    c = random_circuit(rng, 6, 24)
    res = mine_circuit(c, 4, deadline=time.monotonic())
    assert res.reason == "time_budget"
    # the deadline is checked before the first set is visited
    assert res.subsets_examined == 0
