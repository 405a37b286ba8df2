"""Candidate gadget mining over circuit graphs.

A candidate is the subgraph induced by a chosen subset of CNOT gates: the
chosen endpoints, their cnot edges, and fresh time edges chaining the
chosen endpoints per qubit.  Rejections are values, not exceptions: the
extractor always returns a candidate and the filters return booleans, so
callers can compose or audit them independently.

Filter pipeline, in order:
  1. empty nodes: an unchosen gate endpoint inside the candidate's span on
     a shared qubit would be left dangling, so the candidate is tainted;
  2. closure and connectivity of the candidate graph;
  3. stationarity: adjacent chosen gates (sharing a qubit with no chosen
     gate between them on any shared qubit) must not commute, otherwise
     the block can be slid apart and is not a rigid unit.

extract_candidate and the passes_* filters work on a host graph and its
candidate graphs and are the reference; mine_circuit runs the same tests
on a circuit's gate indices and builds a graph only for a set that passes
them (see its docstring).
"""

from __future__ import annotations

import math
import time as _time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from .circuit import Circuit
from .graph import (
    CircuitGraph,
    GraphEdge,
    gate_parts,
    gates_graph,
    is_closed,
    is_connected,
)


@dataclass(frozen=True)
class SubgraphCandidate:
    """One extracted CNOT subset with provenance."""

    source_circuit: str
    layers: tuple[int, ...]
    graph: CircuitGraph
    tainted: bool


@dataclass
class MiningLimits:
    max_candidates: int | None = None
    deadline: float | None = None  # a time.monotonic() value


@dataclass
class MiningResult:
    candidates: list[SubgraphCandidate] = field(default_factory=list)
    truncated: bool = False
    reason: str = ""
    subsets_total: int = 0
    subsets_examined: int = 0


def ordered_cnot_edges(graph: CircuitGraph) -> tuple[GraphEdge, ...]:
    """Cnot edges in layer order; ties broken by node id for graphs not
    produced by circuit conversion."""
    return tuple(sorted(graph.cnot_edges,
                        key=lambda e: (graph.node(e.src).layer, e.src)))


def extract_candidate(graph: CircuitGraph, subset) -> SubgraphCandidate:
    """Build the candidate for one cnot-edge subset of the host graph: the
    chosen endpoints, their cnot edges, and time edges chaining them per
    qubit in layer order."""
    edges = list(subset)
    nodes = []
    per_qubit: dict[int, list] = defaultdict(list)
    layers = []
    for e in edges:
        c = graph.node(e.src)
        t = graph.node(e.dst)
        nodes += (c, t)
        per_qubit[c.qubit].append(c)
        per_qubit[t.qubit].append(t)
        layers.append(c.layer)
    tainted = False
    for nds in per_qubit.values():
        nds.sort(key=lambda nd: nd.layer)
        for a, b in zip(nds, nds[1:]):
            edges.append(GraphEdge(a.id, b.id, "time"))
            # a host endpoint strictly between them is an unchosen gate's
            tainted = tainted or any(
                nd.qubit == a.qubit and a.layer < nd.layer < b.layer
                for nd in graph.nodes)
    return SubgraphCandidate(
        source_circuit=graph.source_circuit,
        layers=tuple(sorted(layers)),
        graph=CircuitGraph(nodes, edges, source_circuit=graph.source_circuit),
        tainted=tainted,
    )


def passes_closure_filter(candidate: SubgraphCandidate) -> bool:
    return is_connected(candidate.graph) and is_closed(candidate.graph)


def _candidate_gates(candidate: SubgraphCandidate):
    """(layer, control_qubit, target_qubit) per chosen gate, layer order."""
    g = candidate.graph
    gates = []
    for e in g.cnot_edges:
        c = g.node(e.src)
        t = g.node(e.dst)
        gates.append((c.layer, c.qubit, t.qubit))
    gates.sort()
    return gates


def passes_stationarity_filter(candidate: SubgraphCandidate) -> bool:
    """Adjacent chosen gates must not commute.

    Two chosen gates are adjacent when they share a qubit and no other
    chosen gate acts on any shared qubit strictly between them.  A
    commuting adjacent pair means the candidate is not held in place by
    its own gates and the same composite appears in a slid variant."""
    return _stationary(_candidate_gates(candidate))


def _stationary(gates) -> bool:
    """passes_stationarity_filter on (layer, control, target) tuples in
    layer order."""
    for (li, ci, ti), (lj, cj, tj) in combinations(gates, 2):
        shared = {ci, ti} & {cj, tj}
        # not adjacent: disjoint, or a chosen gate on a shared qubit lies
        # strictly between them
        if not shared or any(li < lk < lj and {ck, tk} & shared
                             for lk, ck, tk in gates):
            continue
        if ci != tj and ti != cj:  # adjacent pair commutes
            return False
    return True


def contract_timelines(candidate: SubgraphCandidate) -> SubgraphCandidate:
    """Identity: graphs have no idle nodes to contract.  Kept only because
    perfbench/checks.py still calls it; ROADMAP item 1 deletes both."""
    return candidate


def _gate_tables(circuit: Circuit):
    """Per gate (an index into circuit.gates): its timeline neighbours, at
    most four; its (layer, control, target); and its two endpoints'
    (qubit, position among the endpoints on that qubit)."""
    adj: list[set[int]] = [set() for _ in circuit.gates]
    gates = []
    ends: list[list[tuple[int, int]]] = [[] for _ in circuit.gates]
    on_qubit: dict[int, list[int]] = defaultdict(list)
    for i, g in enumerate(circuit.gates):
        gates.append((g.layer, g.control, g.target))
        for q in (g.control, g.target):
            seq = on_qubit[q]
            if seq:
                adj[i].add(seq[-1])
                adj[seq[-1]].add(i)
            ends[i].append((q, len(seq)))
            seq.append(i)
    return adj, gates, ends


def _passes(chosen, gates, ends) -> bool:
    """The filters on a timeline-connected set: two or more chosen
    endpoints per touched qubit, at consecutive positions; stationarity."""
    on_qubit: dict[int, list[int]] = defaultdict(list)
    for i in chosen:
        for q, pos in ends[i]:
            on_qubit[q].append(pos)
    for ps in on_qubit.values():
        if len(ps) < 2 or max(ps) - min(ps) >= len(ps):
            return False
    return _stationary([gates[i] for i in chosen])


def _connected_sets(adj: list[set[int]], root: int,
                    size: int) -> list[tuple[int, ...]]:
    """Every connected set of size gates whose least gate is root, once
    each, as ascending tuples in ascending order (ESU: Wernicke 2006,
    "Efficient detection of network motifs")."""
    found = []

    def extend(chosen, frontier, seen):
        if len(chosen) == size:
            found.append(tuple(sorted(chosen)))
            return
        while frontier:
            w = frontier.pop()
            new = [u for u in adj[w] if u > root and u not in seen]
            extend(chosen + [w], frontier + new, seen.union(new))

    extend([root], [u for u in adj[root] if u > root], {root, *adj[root]})
    found.sort()
    return found


def mine_circuit(
    circuit: Circuit,
    c_g: int,
    limits: MiningLimits | None = None,
) -> MiningResult:
    """Run the full pipeline over the size-c_g gate subsets of the circuit
    that can pass it.

    An untainted, connected candidate is connected in the timeline graph,
    where gates are neighbours when consecutive on some qubit, so only
    those sets are visited, in combinations order: roots ascending, and
    the sets whose least gate is the root sorted.  Their candidates are
    connected, so each is filtered on gate indices and gets a graph
    (gates_graph) only if kept: closed when every touched qubit carries
    two or more chosen endpoints (a lone one has degree 1), untainted when
    those are consecutive among the qubit's endpoints, and stationary by
    its (layer, control, target) tuples.  subsets_total is the binomial
    search-space size; subsets_examined counts the sets visited.  The
    deadline is checked before each root; a candidate cap stops the run
    only when a further set would be visited."""
    if c_g < 1:
        raise ValueError(f"subset size {c_g} must be >= 1")
    limits = limits or MiningLimits()
    if c_g > circuit.cx_count:
        return MiningResult()
    parts = gate_parts(circuit)
    adj, gates, ends = _gate_tables(circuit)
    result = MiningResult(subsets_total=math.comb(len(parts), c_g))
    kept = result.candidates
    for root in range(len(parts) - c_g + 1):
        if (limits.deadline is not None
                and _time.monotonic() >= limits.deadline):
            result.truncated, result.reason = True, "time_budget"
            break
        for chosen in _connected_sets(adj, root, c_g):
            if (limits.max_candidates is not None
                    and len(kept) >= limits.max_candidates):
                result.truncated, result.reason = True, "max_candidates"
                break
            result.subsets_examined += 1
            if _passes(chosen, gates, ends):
                kept.append(SubgraphCandidate(
                    circuit.name, tuple(gates[i][0] for i in chosen),
                    gates_graph(circuit.name, parts, chosen), False))
        if result.truncated:
            break
    return result
