"""Brute-force references that the tests check the program against.

Each fact has one oracle here, written from its definition: the
exhaustive miner (taint, closure, connectivity, stationarity) and the
count of timeline-connected gate sets, the peeling test, the
isomorphism search, random relabelling, GF(2) elimination and the
weight-by-weight scan for logical operators.  From gadgetminer the
module imports only the circuit type and the graph containers, nothing
of the kernels, the mining walk, the tableau or the graph algorithms, so
it shares no shortcut with the code it checks.  It imports neither
pytest nor conftest, so it also runs standalone.

Pauli rows are integers x | z << n: bit q is X on qubit q, bit q + n is
Z on it.  A gate set is a sorted tuple of gate indices; a gate's index
is its time.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from gadgetminer.circuit import Circuit
from gadgetminer.graph import CircuitGraph, GraphEdge, GraphNode


# ---------------------------------------------------------------------------
# Mining
# ---------------------------------------------------------------------------


def cnots_commute(g1: tuple[int, int], g2: tuple[int, int]) -> bool:
    """True iff the two CNOTs, given as (control, target) pairs, commute as
    operators.

    Shared-control, shared-target and disjoint pairs commute; the pair fails
    to commute exactly when one gate's control sits on the other's target.
    """
    (c1, t1), (c2, t2) = g1, g2
    return not (c1 == t2 or t1 == c2)


def tainted(circuit: Circuit, chosen) -> bool:
    """Whether an unchosen gate touches a qubit of the chosen gates
    strictly between the first and the last chosen gate on it."""
    times: dict[int, list[int]] = {}
    for i in chosen:
        for q in circuit.gates[i]:
            times.setdefault(q, []).append(i)
    return any(q in circuit.gates[j] and j not in chosen
               for q, ts in times.items()
               for j in range(min(ts) + 1, max(ts)))


def candidate_graph(circuit: Circuit, chosen) -> CircuitGraph:
    """The chosen gates' graph: gate i's control and target are nodes
    2i and 2i + 1 at layer i, joined by a cnot edge, and time edges chain
    each qubit's chosen endpoints in gate order."""
    nodes = []
    edges = []
    per_qubit: dict[int, list[tuple[int, int]]] = {}
    for i in chosen:
        control, target = circuit.gates[i]
        nodes.append(GraphNode(2 * i, control, i, "c"))
        nodes.append(GraphNode(2 * i + 1, target, i, "t"))
        edges.append(GraphEdge(2 * i, 2 * i + 1, "cnot"))
        per_qubit.setdefault(control, []).append((i, 2 * i))
        per_qubit.setdefault(target, []).append((i, 2 * i + 1))
    for items in per_qubit.values():
        items.sort()
        for (_, a), (_, b) in zip(items, items[1:]):
            edges.append(GraphEdge(a, b, "time"))
    return CircuitGraph(nodes, edges, source_circuit=circuit.name)


def closed(graph: CircuitGraph) -> bool:
    """Whether the graph is non-empty and peeling nodes of degree <= 1,
    recomputing every degree from scratch each round, removes nothing."""
    keep = {nd.id for nd in graph.nodes}
    while keep:
        deg = {nid: 0 for nid in keep}
        for e in graph.edges:
            if e.src in keep and e.dst in keep:
                deg[e.src] += 1
                deg[e.dst] += 1
        drop = {nid for nid, d in deg.items() if d <= 1}
        if not drop:
            break
        keep -= drop
    return bool(keep) and len(keep) == len(graph.nodes)


def connected(graph: CircuitGraph) -> bool:
    """Whether the graph is non-empty and one breadth-first search over
    its edges, in either direction, reaches every node."""
    if graph.is_empty:
        return False
    neighbors: dict[int, set[int]] = {nd.id: set() for nd in graph.nodes}
    for e in graph.edges:
        neighbors[e.src].add(e.dst)
        neighbors[e.dst].add(e.src)
    start = graph.nodes[0].id
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == len(graph)


def stationary(circuit: Circuit, chosen) -> bool:
    """Whether every two chosen gates that share a qubit, with no chosen
    gate on a shared qubit between them, fail to commute."""
    gates = sorted((i, *circuit.gates[i]) for i in chosen)
    m = len(gates)
    for i in range(m):
        li, ci, ti = gates[i]
        for j in range(i + 1, m):
            lj, cj, tj = gates[j]
            shared = {ci, ti} & {cj, tj}
            if not shared:
                continue
            blocked = any(
                li < lk < lj and ({ck, tk} & shared)
                for k, (lk, ck, tk) in enumerate(gates) if k not in (i, j))
            if not blocked and cnots_commute((ci, ti), (cj, tj)):
                return False
    return True


def keeps(circuit: Circuit, chosen) -> bool:
    """Whether the chosen gates are a candidate gadget: untainted, their
    graph connected and closed, and stationary."""
    if tainted(circuit, chosen):
        return False
    graph = candidate_graph(circuit, chosen)
    return (connected(graph) and closed(graph)
            and stationary(circuit, chosen))


def mine(circuit: Circuit, c_g: int) -> list[tuple[int, ...]]:
    """Every c_g-gate set that keeps() accepts, in tuple order."""
    return [chosen for chosen in combinations(range(circuit.cx_count), c_g)
            if keeps(circuit, chosen)]


def timeline_connected_sets(circuit: Circuit,
                            c_g: int) -> list[tuple[int, ...]]:
    """Every c_g-gate set, in tuple order, whose gates are joined through
    pairs of gates that are consecutive on some qubit of the circuit."""
    on_qubit: dict[int, list[int]] = {}
    for i, gate in enumerate(circuit.gates):
        for q in gate:
            on_qubit.setdefault(q, []).append(i)
    pairs = {frozenset(p) for seq in on_qubit.values()
             for p in zip(seq, seq[1:])}

    def joined(chosen) -> bool:
        reached, todo = {chosen[0]}, [chosen[0]]
        while todo:
            a = todo.pop()
            for b in chosen:
                if b not in reached and frozenset((a, b)) in pairs:
                    reached.add(b)
                    todo.append(b)
        return len(reached) == len(chosen)

    return [chosen for chosen in combinations(range(circuit.cx_count), c_g)
            if joined(chosen)]


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def isomorphic(a: CircuitGraph, b: CircuitGraph) -> bool:
    """Label-preserving isomorphism by backtracking over node bijections:
    node i of a goes to node j of b only if the labels agree and every
    cnot and time relation between i and the nodes mapped so far, i
    itself included (a self-loop), holds in a exactly when it holds in b,
    in both directions."""
    if len(a) != len(b):
        return False
    an = a.nodes
    bn = b.nodes
    if sorted(nd.label for nd in an) != sorted(nd.label for nd in bn):
        return False

    def edge_set(g, kind):
        idx = {nd.id: i for i, nd in enumerate(g.nodes)}
        return {(idx[e.src], idx[e.dst])
                for e in (g.cnot_edges if kind == "cnot" else g.time_edges)}

    ac, at = edge_set(a, "cnot"), edge_set(a, "time")
    bc, bt = edge_set(b, "cnot"), edge_set(b, "time")
    if len(ac) != len(bc) or len(at) != len(bt):
        return False
    n = len(an)
    mapping = [-1] * n
    used = [False] * n

    def consistent(i, j):
        if an[i].label != bn[j].label:
            return False
        for p, q in [*enumerate(mapping[:i]), (i, j)]:
            for rel_a, rel_b in ((ac, bc), (at, bt)):
                if (((i, p) in rel_a) != ((j, q) in rel_b)
                        or ((p, i) in rel_a) != ((q, j) in rel_b)):
                    return False
        return True

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if not used[j] and consistent(i, j):
                used[j] = True
                mapping[i] = j
                if rec(i + 1):
                    return True
                used[j] = False
        return False

    return rec(0)


def classes(graphs) -> list[tuple[CircuitGraph, int]]:
    """Isomorphism classes of the graphs in first-seen order, as
    (first member, size)."""
    found: list[list[CircuitGraph]] = []
    for g in graphs:
        for cls in found:
            if isomorphic(cls[0], g):
                cls.append(g)
                break
        else:
            found.append([g])
    return [(cls[0], len(cls)) for cls in found]


def relabeled(graph: CircuitGraph, rng: random.Random) -> CircuitGraph:
    """Isomorphic copy under a random id permutation (qubit/layer metadata
    is scrambled too; certificates must not depend on either)."""
    ids = [nd.id for nd in graph.nodes]
    new_ids = list(range(100, 100 + len(ids)))
    rng.shuffle(new_ids)
    remap = dict(zip(ids, new_ids))
    nodes = [GraphNode(remap[nd.id], rng.randrange(50), rng.randrange(50),
                       nd.label) for nd in graph.nodes]
    edges = [GraphEdge(remap[e.src], remap[e.dst], e.kind)
             for e in graph.edges]
    return CircuitGraph(nodes, edges)


# ---------------------------------------------------------------------------
# GF(2) and logical operators
# ---------------------------------------------------------------------------


def row_echelon(rows) -> list[int]:
    """GF(2) reduced row echelon form of int rows, eliminating column by
    column from bit 0 up: each row's pivot is its lowest set bit and is
    clear in every other row.  Rows come out sorted by pivot, with zero
    rows dropped."""
    reduced: list[int] = []
    rest = [r for r in rows if r]
    bit = 1
    while rest:
        pivot = next((r for r in rest if r & bit), 0)
        if pivot:
            rest.remove(pivot)
            rest = [r ^ pivot if r & bit else r for r in rest]
            reduced = [r ^ pivot if r & bit else r for r in reduced]
            reduced.append(pivot)
            rest = [r for r in rest if r]
        bit <<= 1
    return reduced


def in_span(v: int, basis: list[int]) -> bool:
    """Whether v is a GF(2) sum of rows of basis, a row_echelon: clearing
    v's bit at each pivot leaves 0."""
    for r in basis:
        if v & r & -r:
            v ^= r
    return v == 0


def logicals_at(gens, n: int, w: int) -> list[int]:
    """The sorted weight-w rows that commute with every generator and lie
    outside their span, by visiting every weight-w Pauli."""
    mask = (1 << n) - 1
    halves = [(g & mask, g >> n) for g in gens]
    basis = row_echelon(gens)
    found = []
    for support in combinations(range(n), w):
        for letters in product(((1, 0), (1, 1), (0, 1)), repeat=w):
            px = pz = 0
            for q, (xb, zb) in zip(support, letters):
                px |= xb << q
                pz |= zb << q
            if any(((px & z).bit_count() + (pz & x).bit_count()) & 1
                   for x, z in halves):
                continue
            if not in_span(px | pz << n, basis):
                found.append(px | pz << n)
    return sorted(found)


def logicals(gens, n: int, max_weight: int) -> list[list[int]]:
    """logicals_at for each weight 1..max_weight."""
    return [logicals_at(gens, n, w) for w in range(1, max_weight + 1)]


def distance(rows, n: int) -> int:
    """The least weight of a logical operator of the code the rows
    generate, 0 if it has none."""
    return next((w for w in range(1, n + 1) if logicals_at(rows, n, w)), 0)
