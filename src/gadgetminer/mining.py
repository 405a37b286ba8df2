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
on bitmasks of a circuit's gates.  Its walk applies the taint and closure
test to each set it visits and holds only the sets that pass, the
stationarity test runs on those, and each kept set is returned as its
gates, with no graph (see its docstring).
"""

from __future__ import annotations

import math
from time import monotonic
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .circuit import Circuit
from .graph import (
    CircuitGraph,
    GraphEdge,
    gate_tuples,
    gates_graph,
    is_closed,
    is_connected,
)

# mine_circuit reads the clock once per this many tested sets, and
# canon.group_candidates once per this many candidates
DEADLINE_STRIDE = 100


@dataclass(frozen=True)
class SubgraphCandidate:
    """One extracted CNOT subset with provenance."""

    source_circuit: str
    layers: tuple[int, ...]
    graph: CircuitGraph
    tainted: bool


class MinedCandidate(NamedTuple):
    """One kept gate set: its circuit's name and its gates' (index,
    control, target) in ascending index order; a gate's layer is its
    index.  The graph is built on request, so a kept set costs no graph
    and pickles small."""

    source_circuit: str
    gates: tuple[tuple[int, int, int], ...]

    @property
    def layers(self) -> tuple[int, ...]:
        return tuple(g[0] for g in self.gates)

    @property
    def qubits_touched(self) -> tuple[int, ...]:
        return tuple(sorted({q for g in self.gates for q in g[1:]}))

    @property
    def graph(self) -> CircuitGraph:
        return gates_graph(self.source_circuit, self.gates)


@dataclass
class MiningResult:
    candidates: list[MinedCandidate] = field(default_factory=list)
    # why the walk stopped early, "time_budget" or "max_candidates", or ""
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
    layer order; a gate's index serves as its layer."""
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


def _gate_masks(circuit: Circuit) -> tuple[list[int], list[tuple[int, int]]]:
    """Per gate (bit i stands for circuit.gates[i]): the mask of its
    timeline neighbours, at most four, and the masks of the gates on its
    control and on its target qubit."""
    on_qubit: dict[int, int] = defaultdict(int)
    last: dict[int, int] = {}
    nbrs = [0] * circuit.cx_count
    for i, gate in enumerate(circuit.gates):
        for q in gate:
            if q in last:
                nbrs[i] |= 1 << last[q]
                nbrs[last[q]] |= 1 << i
            last[q] = i
            on_qubit[q] |= 1 << i
    return nbrs, [(on_qubit[c], on_qubit[t]) for c, t in circuit.gates]


def _indices(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _closed_untainted(chosen: int, lines) -> bool:
    """On every qubit the chosen gates touch: two or more chosen gates (a
    lone endpoint has degree 1), and no unchosen gate of that qubit
    between the lowest and the highest chosen one (it would taint)."""
    rest = chosen
    while rest:
        low = rest & -rest
        rest ^= low
        for line in lines[low.bit_length() - 1]:
            on = chosen & line
            if not on & (on - 1):
                return False
            # the qubit's gates from the lowest chosen to the highest
            if line & ((1 << on.bit_length()) - (on & -on)) != on:
                return False
    return True


class _Keep:
    """The walk's one keep test: test(set) is _closed_untainted(set,
    lines), and tested counts the sets it has tested.  It reads the clock
    before every DEADLINE_STRIDE-th set, the first included; past the
    deadline (a time.monotonic value, math.inf for none) it raises
    TimeoutError, which cuts the walk.  The walk calls the bound method:
    calling the instance through __call__ costs more per set."""

    def __init__(self, lines, deadline: float):
        self.lines = lines
        self.deadline = deadline
        self.tested = 0

    def test(self, chosen: int) -> bool:
        if (not self.tested % DEADLINE_STRIDE
                and monotonic() >= self.deadline):
            raise TimeoutError
        self.tested += 1
        return _closed_untainted(chosen, self.lines)


def _walk(nbrs, above, keep, found, chosen, ext, seen, left) -> None:
    """Reach once each timeline-connected set that adds left gates from
    ext to chosen, test it with keep, and append to found, as masks in no
    fixed order, those that pass (ESU: Wernicke 2006, "Efficient
    detection of network motifs").  Not a closure: a recursive closure is
    a reference cycle, which would keep found alive until the cyclic
    collector runs."""
    while ext:
        low = ext & -ext
        ext ^= low
        if left > 1:
            new = nbrs[low.bit_length() - 1] & above & ~seen
            _walk(nbrs, above, keep, found, chosen | low, ext | new,
                  seen | new, left - 1)
        elif keep(chosen | low):
            found.append(chosen | low)


def mine_circuit(
    circuit: Circuit,
    c_g: int,
    max_candidates: float = math.inf,
    deadline: float = math.inf,
) -> MiningResult:
    """Run the full pipeline over the size-c_g gate subsets of the circuit
    that can pass it.

    An untainted, connected candidate is connected in the timeline graph,
    where gates are neighbours when consecutive on some qubit, so only
    those sets are visited, as bitmasks, in combinations order: roots
    ascending, and the sets whose least gate is the root in ascending
    tuple order.  Their candidates are connected; one is closed when every
    touched qubit carries two or more chosen gates, untainted when no
    unchosen gate of that qubit lies between them, and stationary by its
    (index, control, target) tuples, which are read only for sets that
    pass the first two.  A kept set is returned as a MinedCandidate.
    subsets_total is the binomial search-space size; subsets_examined
    counts the sets tested, each once.

    The walk tests each set as it reaches it and holds only those that are
    closed and untainted, so memory follows the kept sets, not the visited
    ones.  Each limit is math.inf for none.  The clock is read before the
    first set and then once every DEADLINE_STRIDE sets; past the deadline
    (a time.monotonic value) the root cut gives the sets kept among those
    tested before the cut.  A max_candidates cap ends the walk at a root
    boundary: a walk that already keeps that many sets stops before the
    next root, and the kept sets are cut to the first max_candidates."""
    if c_g < 1:
        raise ValueError(f"subset size {c_g} must be >= 1")
    gates = gate_tuples(circuit)
    nbrs, lines = _gate_masks(circuit)
    keep = _Keep(lines, deadline)
    result = MiningResult(subsets_total=math.comb(len(gates), c_g))
    kept = result.candidates
    for root in range(len(gates) - c_g + 1):
        if len(kept) >= max_candidates:
            result.reason = "max_candidates"
            break
        above, bit = -1 << (root + 1), 1 << root  # above: the gates after root
        found: list[int] = []
        try:
            _walk(nbrs, above, keep.test, found, 0, bit, bit, c_g)
        except TimeoutError:
            # the root is cut: it gives the sets kept among those tested
            result.reason = "time_budget"
        passed = []
        for chosen in found:
            idx = _indices(chosen)
            if _stationary([gates[i] for i in idx]):
                passed.append(idx)
        passed.sort()
        kept += (MinedCandidate(circuit.name, tuple(gates[i] for i in idx))
                 for idx in passed)
        if result.reason:
            break
    if len(kept) > max_candidates:
        del kept[max_candidates:]
        result.reason = result.reason or "max_candidates"
    result.subsets_examined = keep.tested
    return result
