"""Labeled directed graphs derived from CNOT circuits.

Every CNOT endpoint becomes a node labeled "c" (control) or "t" (target);
a "cnot" edge runs control -> target within a gate, and "time" edges chain
consecutive endpoints on each qubit in layer order.  Spectator qubits never
produce nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit

NODE_LABELS = ("c", "t")
EDGE_KINDS = ("cnot", "time")


class GraphError(ValueError):
    """Raised for malformed graphs."""


@dataclass(frozen=True)
class GraphNode:
    id: int
    qubit: int
    layer: int
    label: str


@dataclass(frozen=True)
class GraphEdge:
    src: int
    dst: int
    kind: str


class CircuitGraph:
    """Immutable node/edge container with cached adjacency.

    Construction validates ids, endpoint existence, labels and edge kinds;
    structural invariants tied to circuit conversion (one cnot edge per
    c/t node, time edges along single qubits) hold for converted graphs
    but are not enforced here, since hand-built graphs may break them.
    """

    __slots__ = ("nodes", "cnot_edges", "time_edges", "source_circuit",
                 "_by_id", "_adj")

    def __init__(self, nodes, edges, source_circuit: str = ""):
        self.nodes: tuple[GraphNode, ...] = tuple(
            sorted(nodes, key=lambda nd: nd.id))
        cnot = []
        time = []
        by_id: dict[int, GraphNode] = {}
        for nd in self.nodes:
            if nd.id in by_id:
                raise GraphError(f"duplicate node id {nd.id}")
            if nd.label not in NODE_LABELS:
                raise GraphError(f"unknown node label {nd.label!r}")
            by_id[nd.id] = nd
        seen = set()
        for e in edges:
            if e.src not in by_id or e.dst not in by_id:
                raise GraphError(f"edge {e.src}->{e.dst} references missing node")
            if e.kind == "cnot":
                cnot.append(e)
            elif e.kind == "time":
                time.append(e)
            else:
                raise GraphError(f"unknown edge kind {e.kind!r}")
            key = (e.src, e.dst, e.kind)
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        self.cnot_edges: tuple[GraphEdge, ...] = tuple(
            sorted(cnot, key=lambda e: (e.src, e.dst)))
        self.time_edges: tuple[GraphEdge, ...] = tuple(
            sorted(time, key=lambda e: (e.src, e.dst)))
        self.source_circuit = source_circuit
        self._by_id = by_id
        self._adj: dict[int, list[int]] | None = None

    @property
    def edges(self) -> tuple[GraphEdge, ...]:
        return self.cnot_edges + self.time_edges

    def node(self, node_id: int) -> GraphNode:
        return self._by_id[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircuitGraph):
            return NotImplemented
        return (self.nodes == other.nodes
                and self.cnot_edges == other.cnot_edges
                and self.time_edges == other.time_edges)

    def __hash__(self):
        return hash((self.nodes, self.cnot_edges, self.time_edges))

    def adjacency(self) -> dict[int, list[int]]:
        """Undirected neighbor lists, one entry per incident edge."""
        if self._adj is None:
            adj: dict[int, list[int]] = {nd.id: [] for nd in self.nodes}
            for e in self.edges:
                adj[e.src].append(e.dst)
                adj[e.dst].append(e.src)
            self._adj = adj
        return self._adj

    def degrees(self) -> dict[int, int]:
        return {nid: len(nbrs) for nid, nbrs in self.adjacency().items()}

    @property
    def qubits_touched(self) -> tuple[int, ...]:
        return tuple(sorted({nd.qubit for nd in self.nodes}))

    def __repr__(self):
        return (f"CircuitGraph(nodes={len(self.nodes)}, "
                f"cnot={len(self.cnot_edges)}, time={len(self.time_edges)})")


def gate_tuples(circuit: Circuit) -> list[tuple[int, int, int, int]]:
    """(index, layer, control, target) of every gate, in circuit order."""
    return [(i, g.layer, g.control, g.target)
            for i, g in enumerate(circuit.gates)]


def gates_graph(source: str, gates) -> CircuitGraph:
    """The graph of (index, layer, control, target) gates in ascending
    index order: per gate i a control node 2i, a target node 2i+1 and
    their cnot edge, and time edges chaining the endpoints on each qubit
    in layer order."""
    nodes, edges, last = [], [], {}  # last: qubit -> its latest node id
    for i, layer, control, target in gates:
        c = GraphNode(2 * i, control, layer, "c")
        t = GraphNode(2 * i + 1, target, layer, "t")
        nodes += (c, t)
        edges.append(GraphEdge(c.id, t.id, "cnot"))
        for nd in (c, t):
            if nd.qubit in last:
                edges.append(GraphEdge(last[nd.qubit], nd.id, "time"))
            last[nd.qubit] = nd.id
    return CircuitGraph(nodes, edges, source_circuit=source)


def circuit_to_graph(circuit: Circuit) -> CircuitGraph:
    """The graph of all the circuit's gates (see gates_graph)."""
    return gates_graph(circuit.name, gate_tuples(circuit))


def is_closed(graph: CircuitGraph) -> bool:
    """True when the graph is non-empty with minimum undirected degree 2,
    i.e. peeling nodes of degree <= 1 would remove nothing."""
    return not graph.is_empty and min(graph.degrees().values()) >= 2


def is_connected(graph: CircuitGraph) -> bool:
    """Connectivity of the undirected skeleton; empty graphs are not
    connected."""
    if graph.is_empty:
        return False
    adj = graph.adjacency()
    seen = {graph.nodes[0].id}
    stack = [graph.nodes[0].id]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(graph)


def graph_to_json_dict(graph: CircuitGraph) -> dict:
    return {
        "nodes": [
            {"id": nd.id, "qubit": nd.qubit, "layer": nd.layer,
             "label": nd.label}
            for nd in graph.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "kind": e.kind}
            for e in graph.edges
        ],
    }
