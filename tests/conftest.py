"""Shared fixtures and test-local reference implementations."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from gadgetminer import kernels
from gadgetminer.circuit import Circuit
from gadgetminer.graph import CircuitGraph, GraphEdge, GraphError, GraphNode
from gadgetminer.tableau import Pauli, StabilizerCode, encoder_tableau

# three qubits, six CNOTs: every consecutive pair forms a back-to-back block
REF_3Q6_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))

STEANE_PAIRS = ((0, 1), (0, 2), (6, 0), (6, 1), (6, 3),
                (5, 0), (5, 2), (5, 3), (4, 1), (4, 2), (4, 3))
STEANE_X_ANCILLAS = (4, 5, 6)

FIVE_QUBIT_GENERATORS = ("+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ")


@pytest.fixture
def ref_circuit() -> Circuit:
    return Circuit.from_pairs(3, REF_3Q6_PAIRS, name="ref3q6")


@pytest.fixture
def steane_circuit() -> Circuit:
    return Circuit.from_pairs(7, STEANE_PAIRS, name="steane")


@pytest.fixture
def five_qubit_code() -> StabilizerCode:
    gens = tuple(Pauli.from_str(s) for s in FIVE_QUBIT_GENERATORS)
    return StabilizerCode(5, 1, gens)


def random_circuit(rng: random.Random, n_qubits: int, n_gates: int,
                   name: str = "") -> Circuit:
    pairs = []
    for _ in range(n_gates):
        c = rng.randrange(n_qubits)
        t = rng.randrange(n_qubits - 1)
        if t >= c:
            t += 1
        pairs.append((c, t))
    return Circuit.from_pairs(n_qubits, pairs, name=name)


# ---------------------------------------------------------------------------
# Brute-force oracles (intentionally independent of the library internals)
# ---------------------------------------------------------------------------


def cnots_commute(g1: tuple[int, int], g2: tuple[int, int]) -> bool:
    """True iff the two CNOTs, given as (control, target) pairs, commute as
    operators.

    Shared-control, shared-target and disjoint pairs commute; the pair fails
    to commute exactly when one gate's control sits on the other's target.
    """
    (c1, t1), (c2, t2) = g1, g2
    return not (c1 == t2 or t1 == c2)


def symplectic_ok(t) -> bool:
    """The tableau's rows (X/Z bitmask lists t.x, t.z) form a symplectic
    basis: row i anticommutes with row i + n and commutes with every
    other row."""
    n, x, z = t.n, t.x, t.z
    return all(((x[i] & z[j]).bit_count() + (z[i] & x[j]).bit_count()) % 2
               == (j == i + n)
               for i in range(2 * n) for j in range(i + 1, 2 * n))


class SignedTableau:
    """Reference Aaronson-Gottesman tableau (Aaronson & Gottesman, 2004)
    with the sign column and the CNOT, H and S gates: 2n rows of X/Z
    bitmasks (bit q = qubit q) and 2n sign bits, destabilizers first,
    starting as the identity."""

    def __init__(self, n: int):
        self.n = n
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]
        self.r = [0] * (2 * n)

    def cnot(self, a: int, b: int) -> SignedTableau:
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xi, zi = x[i], z[i]
            xa, zb = xi >> a & 1, zi >> b & 1
            r[i] ^= xa & zb & ((xi >> b ^ zi >> a ^ 1) & 1)
            x[i] = xi ^ xa << b
            z[i] = zi ^ zb << a
        return self

    def h(self, q: int) -> SignedTableau:
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xq, zq = x[i] >> q & 1, z[i] >> q & 1
            r[i] ^= xq & zq
            swap = (xq ^ zq) << q
            x[i] ^= swap
            z[i] ^= swap
        return self

    def s(self, q: int) -> SignedTableau:
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xq = x[i] >> q & 1
            r[i] ^= xq & z[i] >> q
            z[i] ^= xq << q
        return self

    def row(self, i: int) -> str:
        """Row i as a signed Pauli word, e.g. '-XZ'."""
        return "-+"[self.r[i] == 0] + "".join(
            "IXZY"[(self.x[i] >> q & 1) | (self.z[i] >> q & 1) << 1]
            for q in range(self.n))

    def to_bytes(self) -> bytes:
        """4-byte big-endian n, then the X rows, the Z rows (row-major,
        qubit 0 first) and the signs as one bit stream, packed MSB-first
        and zero-padded to a whole byte."""
        n = self.n
        bits = "".join(format(m, f"0{n}b")[::-1] for m in self.x + self.z)
        bits += "".join(map(str, self.r))
        bits += "0" * (-len(bits) % 8)
        return n.to_bytes(4, "big") + int(bits, 2).to_bytes(len(bits) // 8, "big")


def logical_slices(lists, n: int) -> tuple[list[int], list[int]]:
    """(sl, ws) of per-weight logical lists, one bit per logical in list
    order: bit i of sl[q] (Z on qubit q, X at q + n) and of ws[w] says
    logical i has that letter or weight w."""
    sl = [0] * (2 * n)
    ws = [0]
    bit = 1
    for found in lists:
        ws.append(0)
        for v in found:
            ws[-1] |= bit
            for q in range(2 * n):
                if v >> q & 1:
                    sl[q] |= bit
            bit <<= 1
    return sl, ws


def slice_logicals(sl: list[int], ws: list[int], n: int) -> list[list[int]]:
    """The sorted per-weight vector lists, (x << n) | z, that slices hold."""
    lists = []
    for m in ws[1:]:
        found = []
        while m:
            bit = m & -m
            found.append(sum(1 << q for q in range(2 * n) if sl[q] & bit))
            m ^= bit
        lists.append(sorted(found))
    return lists


def reference_move_scores(gx, gz, n: int, target_d: int,
                          directed) -> list[tuple[int, ...]]:
    """Violation profile of the generators after each move in directed,
    scored from a fresh walk of the current logicals up to target_d: on
    {a, b} a logical's weight stays 1 or 2 and moves by one where it
    flips."""
    sl, ws = logical_slices(
        kernels.logicals_by_weight(gx, gz, n, target_d), n)
    scores = []
    for a, b in directed:
        # X on a spreads to b, Z on b spreads to a
        xa, za, xb, zb = sl[a + n], sl[a], sl[b + n], sl[b]
        was = (xa | za) & (xb | zb)
        now = (xa | za ^ zb) & (xb ^ xa | zb)
        up, down = now & ~was, was & ~now
        same = ~(up | down)
        scores.append(tuple(
            (ws[w] & same | ws[w - 1] & up | ws[w + 1] & down).bit_count()
            for w in range(1, target_d)))
    return scores


def reference_hillclimb(sub: random.Random, cfg, directed, x_set):
    """The hill climb that walks the logicals afresh at every step: greedy
    gate appension scored by the violation profile, with a random kick on
    plateaus, stopping as soon as the profile is clean."""
    n = cfg.n
    t = encoder_tableau(Circuit.from_pairs(n, ()), x_set)
    gx, gz = t.x[n + cfg.k:], t.z[n + cfg.k:]
    gates = []
    target = (0,) * (cfg.target_d - 1)
    cur = tuple(kernels.pauli_weight_profile(gx, gz, n, cfg.target_d - 1))
    while cur != target and len(gates) < cfg.max_gates:
        scores = reference_move_scores(gx, gz, n, cfg.target_d, directed)
        best = min(scores)
        if best < cur:
            ties = [i for i, s in enumerate(scores) if s == best]
            i = ties[sub.randrange(len(ties))]
        else:
            i = sub.randrange(len(directed))
        a, b = directed[i]
        gx = [x ^ (x >> a & 1) << b for x in gx]
        gz = [z ^ (z >> b & 1) << a for z in gz]
        gates.append((a, b))
        cur = scores[i]
    return gates


def graph_from_json_dict(data: dict, source_circuit: str = "") -> CircuitGraph:
    """Reader of the graph JSON that graph_to_json_dict writes."""
    try:
        nodes = [
            GraphNode(int(nd["id"]), int(nd["qubit"]), int(nd["layer"]),
                      str(nd["label"]))
            for nd in data["nodes"]
        ]
        edges = [
            GraphEdge(int(e["from"]), int(e["to"]), str(e["kind"]))
            for e in data["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    return CircuitGraph(nodes, edges, source_circuit=source_circuit)


def random_labeled_graph(rng: random.Random, n: int,
                         n_qubits: int) -> CircuitGraph:
    """n nodes labelled c or t on random qubits below n_qubits, and random
    cnot and time edges, at most one per (kind, direction) at a node, the
    domain certificates take."""
    nodes = [GraphNode(i, rng.randrange(n_qubits), i, rng.choice("ct"))
             for i in range(n)]
    edges = []
    has_out, has_in = set(), set()
    for _ in range(rng.randrange(0, 2 * n + 1)):
        a, b = rng.randrange(n), rng.randrange(n)
        kind = rng.choice(("cnot", "time"))
        if a != b and (a, kind) not in has_out and (b, kind) not in has_in:
            has_out.add((a, kind))
            has_in.add((b, kind))
            edges.append(GraphEdge(a, b, kind))
    return CircuitGraph(nodes, edges)


def graph_isomorphic_oracle(a, b) -> bool:
    """Label-preserving isomorphism by backtracking over all consistent
    node bijections, checking all four relations in both directions."""
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
        for p in range(i):
            q = mapping[p]
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


def ordered_graph_key(graph) -> tuple:
    """(labels, slots) in node order, the argument tuple of
    canon._certificate: slots[4*i + k] is node i's neighbour along its
    cnot out, cnot in, time out or time in edge (k = 0..3), or -1.  Equal
    keys mean identical ordered labelled graphs."""
    idx = {nd.id: i for i, nd in enumerate(graph.nodes)}
    slots = [-1] * (4 * len(graph.nodes))
    for e in graph.edges:
        k = 0 if e.kind == "cnot" else 2
        slots[4 * idx[e.src] + k] = idx[e.dst]
        slots[4 * idx[e.dst] + k + 1] = idx[e.src]
    return tuple(nd.label for nd in graph.nodes), tuple(slots)


def pauli_group_distance_oracle(code: StabilizerCode) -> int:
    """Exhaustive scan of the full Pauli group in weight order."""
    n = code.n
    span = set()
    vecs = [(g.x << n) | g.z for g in code.generators]
    for mask in range(1 << len(vecs)):
        v = 0
        for i, g in enumerate(vecs):
            if (mask >> i) & 1:
                v ^= g
        span.add(v)
    best = None
    for w in range(1, n + 1):
        for support in combinations(range(n), w):
            for letters in range(3 ** w):
                px = pz = 0
                rem = letters
                for q in support:
                    letter = rem % 3
                    rem //= 3
                    if letter == 0:
                        px |= 1 << q
                    elif letter == 1:
                        px |= 1 << q
                        pz |= 1 << q
                    else:
                        pz |= 1 << q
                if ((px << n) | pz) in span:
                    continue
                ok = True
                for g in code.generators:
                    if ((px & g.z).bit_count()
                            + (pz & g.x).bit_count()) % 2 == 1:
                        ok = False
                        break
                if ok:
                    return w
        if best is not None:
            break
    raise AssertionError("no logical operator found")


_ORACLE_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def pauli_canonical_rows(rows: list[Pauli]) -> tuple[Pauli, ...]:
    """RREF over GF(2) of Pauli rows, column by column: X block, then Z
    block, ascending qubit; the reference for tableau.canonical_rows."""
    n = rows[0].n

    def bit(p: Pauli, col: int) -> int:
        return (p.x >> col) & 1 if col < n else (p.z >> (col - n)) & 1

    def mul(p: Pauli, q: Pauli) -> Pauli:
        return Pauli(n, p.x ^ q.x, p.z ^ q.z)

    reduced: list[Pauli] = []
    remaining = list(rows)
    for col in range(2 * n):
        pivot = next((i for i, p in enumerate(remaining) if bit(p, col)), None)
        if pivot is None:
            continue
        row = remaining.pop(pivot)
        remaining = [mul(p, row) if bit(p, col) else p for p in remaining]
        reduced = [mul(p, row) if bit(p, col) else p for p in reduced]
        reduced.append(row)
    return tuple(reduced)


def pauli_row_text(p: Pauli) -> str:
    """'+' then one letter per qubit, e.g. '+IXYZ'."""
    return "+" + "".join(_ORACLE_LETTER[((p.x >> q) & 1, (p.z >> q) & 1)]
                         for q in range(p.n))


def stabilizer_masks(t) -> list[int]:
    """A tableau's stabilizer rows n..2n-1 as masks x | z << n."""
    n = t.n
    return [x | z << n for x, z in zip(t.x[n:], t.z[n:])]
