"""Circuit-to-graph conversion, closedness, connectivity, formats."""

from __future__ import annotations

import random

import pytest

from gadgetminer.circuit import Circuit
from gadgetminer.graph import (
    CircuitGraph,
    GraphEdge,
    GraphError,
    GraphNode,
    circuit_to_graph,
    graph_to_json_dict,
    is_closed,
    is_connected,
)

import reference
from conftest import graph_from_json_dict


def ring_graph(m: int, label: str = "c") -> CircuitGraph:
    """Hand-built m-cycle of time edges; min degree 2 everywhere."""
    nodes = [GraphNode(i, i, i, label) for i in range(m)]
    edges = [GraphEdge(i, (i + 1) % m, "time") for i in range(m)]
    return CircuitGraph(nodes, edges)


def test_conversion_node_edge_layout(ref_circuit):
    g = circuit_to_graph(ref_circuit)
    assert len(g) == 12
    assert len(g.cnot_edges) == 6
    assert len(g.time_edges) == 9  # 3 qubits x (4 endpoints - 1)
    for i, (control, target) in enumerate(ref_circuit.gates):
        c, t = g.node(2 * i), g.node(2 * i + 1)
        assert (c.qubit, c.layer, c.label) == (control, i, "c")
        assert (t.qubit, t.layer, t.label) == (target, i, "t")
    assert all((e.src, e.dst) == (2 * i, 2 * i + 1)
               for i, e in enumerate(sorted(g.cnot_edges, key=lambda e: e.src)))
    assert g.source_circuit == "ref3q6"
    assert g.qubits_touched == (0, 1, 2)


def test_time_edges_chain_per_qubit():
    c = Circuit.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    g = circuit_to_graph(c)
    # qubit 0: control of gates 0 and 2 -> nodes 0, 4
    # qubit 1: target of gate 0, control of gate 1 -> nodes 1, 2
    # qubit 2: target of gates 1 and 2 -> nodes 3, 5
    assert set((e.src, e.dst) for e in g.time_edges) == {(0, 4), (1, 2), (3, 5)}


def test_spectator_qubits_produce_no_nodes():
    c = Circuit.from_pairs(6, [(0, 5)])
    g = circuit_to_graph(c)
    assert g.qubits_touched == (0, 5)
    assert len(g) == 2


def test_empty_circuit_graph():
    g = circuit_to_graph(Circuit.from_pairs(2, []))
    assert g.is_empty
    assert not is_closed(g)
    assert not is_connected(g)


def test_construction_validation():
    n0, n1 = GraphNode(0, 0, 0, "c"), GraphNode(1, 1, 0, "t")
    CircuitGraph([n0, n1], [GraphEdge(0, 1, "cnot")])
    with pytest.raises(GraphError):
        CircuitGraph([n0, GraphNode(0, 1, 0, "t")], [])
    with pytest.raises(GraphError):
        CircuitGraph([GraphNode(0, 0, 0, "x")], [])
    with pytest.raises(GraphError):
        CircuitGraph([n0, n1], [GraphEdge(0, 2, "cnot")])
    with pytest.raises(GraphError):
        CircuitGraph([n0, n1], [GraphEdge(0, 1, "wavy")])
    with pytest.raises(GraphError):
        CircuitGraph([n0, n1], [GraphEdge(0, 1, "cnot"), GraphEdge(0, 1, "cnot")])


def test_only_control_and_target_labels():
    """Graphs have control and target nodes only: the idle label "n" of
    earlier versions is rejected, hand-built or read from JSON."""
    with pytest.raises(GraphError):
        CircuitGraph([GraphNode(0, 0, 0, "n")], [])
    obj = {"nodes": [{"id": 0, "qubit": 0, "layer": 0, "label": "n"}],
           "edges": []}
    with pytest.raises(GraphError):
        graph_from_json_dict(obj)


def test_prune_removes_chain():
    # a path of 4 nodes peels to nothing
    nodes = [GraphNode(i, 0, i, "c") for i in range(4)]
    edges = [GraphEdge(i, i + 1, "time") for i in range(3)]
    assert not is_closed(CircuitGraph(nodes, edges))


def test_prune_keeps_cycle_drops_tail():
    g = ring_graph(4)
    tail_nodes = list(g.nodes) + [GraphNode(10, 9, 9, "c"), GraphNode(11, 9, 10, "c")]
    tail_edges = list(g.edges) + [GraphEdge(0, 10, "time"), GraphEdge(10, 11, "time")]
    dressed = CircuitGraph(tail_nodes, tail_edges)
    assert is_closed(g)
    assert not is_closed(dressed)
    assert not is_closed(CircuitGraph([], []))


def test_closedness_of_gate_pair():
    # two cnots on the same qubit pair form a 4-cycle: closed
    g = circuit_to_graph(Circuit.from_pairs(2, [(0, 1), (1, 0)]))
    assert is_closed(g) and is_connected(g)
    # a single gate is an open 2-path
    g1 = circuit_to_graph(Circuit.from_pairs(2, [(0, 1)]))
    assert not is_closed(g1) and is_connected(g1)


def test_connectivity():
    two = CircuitGraph([GraphNode(0, 0, 0, "c"), GraphNode(1, 1, 0, "c")], [])
    assert not is_connected(two)
    c = Circuit.from_pairs(4, [(0, 1), (2, 3)])
    assert not is_connected(circuit_to_graph(c))
    c2 = Circuit.from_pairs(4, [(0, 1), (2, 3), (1, 2)])
    assert is_connected(circuit_to_graph(c2))


def test_is_closed_matches_peeling_oracle():
    """A graph is closed exactly when it is non-empty and peeling nodes of
    degree <= 1 until none is left removes nothing: compare against the
    recompute-from-scratch peel of reference.closed on random graphs."""
    rng = random.Random(424242)
    outcomes = set()
    for _ in range(40):
        n = rng.randrange(1, 14)
        nodes = [GraphNode(i, i, i, "c") for i in range(n)]
        edges = []
        seen = set()
        for _ in range(rng.randrange(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            kind = rng.choice(("cnot", "time"))
            if a != b and (a, b, kind) not in seen:
                seen.add((a, b, kind))
                edges.append(GraphEdge(a, b, kind))
        g = CircuitGraph(nodes, edges)
        assert is_closed(g) == reference.closed(g)
        outcomes.add(is_closed(g))
    assert outcomes == {False, True}


def test_json_round_trip(ref_circuit):
    g = circuit_to_graph(ref_circuit)
    obj = graph_to_json_dict(g)
    back = graph_from_json_dict(obj, source_circuit=g.source_circuit)
    assert back == g
    assert back.source_circuit == g.source_circuit
    with pytest.raises(GraphError):
        graph_from_json_dict({"nodes": [{"id": 0}], "edges": []})


def test_graph_equality_and_hash():
    a = circuit_to_graph(Circuit.from_pairs(2, [(0, 1)]))
    b = circuit_to_graph(Circuit.from_pairs(2, [(0, 1)]))
    assert a == b and hash(a) == hash(b)
    c = circuit_to_graph(Circuit.from_pairs(2, [(1, 0)]))
    assert a != c
