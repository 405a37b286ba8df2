"""Shared fixtures, input builders, and test-local references and readers;
the brute-force oracles are in reference.py."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from gadgetminer import kernels
from gadgetminer.circuit import Circuit, save_circuit
from gadgetminer.graph import CircuitGraph, GraphEdge, GraphError, GraphNode
from gadgetminer.tableau import encoder_tableau

# three qubits, six CNOTs: every consecutive pair forms a back-to-back block
REF_3Q6_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))

STEANE_PAIRS = ((0, 1), (0, 2), (6, 0), (6, 1), (6, 3),
                (5, 0), (5, 2), (5, 3), (4, 1), (4, 2), (4, 3))
STEANE_X_ANCILLAS = (4, 5, 6)


def pauli_row(word: str) -> int:
    """Row x | z << n of a word such as 'XZZXI' (bit q is X on qubit q,
    bit q + n Z on it); a leading '+' is skipped."""
    word = word.removeprefix("+")
    n = len(word)
    return sum((ch in "XY") << q | (ch in "ZY") << q + n
               for q, ch in enumerate(word))


# the [[5,1,3]] code: XZZXI and its cyclic shifts
FIVE_QUBIT_ROWS = tuple(map(pauli_row, ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")))


@pytest.fixture
def ref_circuit() -> Circuit:
    return Circuit.from_pairs(3, REF_3Q6_PAIRS, name="ref3q6")


@pytest.fixture
def steane_circuit() -> Circuit:
    return Circuit.from_pairs(7, STEANE_PAIRS, name="steane")


def brickwork_ring(n: int) -> Circuit:
    """Two rounds of an n-qubit brickwork ring: even bonds, then odd."""
    bonds = [(q, (q + 1) % n) for q in range(n)]
    return Circuit.from_pairs(n, (bonds[0::2] + bonds[1::2]) * 2,
                              name="ring")


def save_ref_repeats(directory: Path) -> None:
    """c0.txt, c1.txt and c2.txt: REF_3Q6_PAIRS three, two and one times,
    so 9 + 6 + 3 candidates at C_g = 2, in input (file name) order."""
    directory.mkdir()
    for i, reps in enumerate((3, 2, 1)):
        save_circuit(Circuit.from_pairs(3, REF_3Q6_PAIRS * reps),
                     directory / f"c{i}.txt")


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


def random_generators(rng: random.Random, n: int, m: int) -> list[int]:
    """m commuting-free random rows x | z << n, X halves drawn first;
    kernels do not require the generators to commute or be independent,
    only the span logic."""
    gx = [rng.getrandbits(n) for _ in range(m)]
    gz = [rng.getrandbits(n) for _ in range(m)]
    return [x | z << n for x, z in zip(gx, gz)]


def random_generator_set(rng: random.Random, n: int) -> list[int]:
    """Up to n random_generators, commuting or not, with a dependent
    generator mixed in half the time: the span test must still be exact."""
    m = rng.randrange(0, n + 1)
    gens = random_generators(rng, n, m)
    if m >= 2 and rng.random() < 0.5:
        gens.append(gens[0] ^ gens[1])
    return gens


# ---------------------------------------------------------------------------
# Test-local references and readers
# ---------------------------------------------------------------------------


def symplectic_ok(t) -> bool:
    """The tableau's rows t.rows, each x | z << n, form a symplectic
    basis: row i anticommutes with row i + n and commutes with every
    other row."""
    n, rows = t.n, t.rows
    mask = (1 << n) - 1
    x = [r & mask for r in rows]
    z = [r >> n for r in rows]
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

    @property
    def rows(self) -> list[int]:
        """The rows as x | z << n, signs dropped."""
        return [x | z << self.n for x, z in zip(self.x, self.z)]

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
    """(sl, ws) of per-weight lists of logical rows x | z << n, one bit per
    logical in list order: bit i of sl[q] (X on qubit q, Z at q + n) and
    of ws[w] says logical i has that letter or weight w."""
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
    """The sorted per-weight lists of rows x | z << n that slices hold."""
    lists = []
    for m in ws[1:]:
        found = []
        while m:
            bit = m & -m
            found.append(sum(1 << q for q in range(2 * n) if sl[q] & bit))
            m ^= bit
        lists.append(sorted(found))
    return lists


def cnot_moved(gens: list[int], n: int, a: int, b: int) -> list[int]:
    """Rows x | z << n conjugated by CNOT a -> b: X on a spreads to b, Z on
    b spreads to a."""
    return [g ^ (g >> a & 1) << b ^ (g >> b + n & 1) << a + n for g in gens]


def reference_move_scores(gens, n: int, target_d: int,
                          directed) -> list[tuple[int, ...]]:
    """Violation profile of the generators after each move in directed,
    scored from a fresh walk of the current logicals up to target_d: on
    {a, b} a logical's weight stays 1 or 2 and moves by one where it
    flips."""
    sl, ws = logical_slices(
        kernels.logicals_by_weight(gens, n, target_d), n)
    scores = []
    for a, b in directed:
        # X on a spreads to b, Z on b spreads to a
        xa, za, xb, zb = sl[a], sl[a + n], sl[b], sl[b + n]
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
    gens = t.rows[n + cfg.k:]
    gates = []
    target = (0,) * (cfg.target_d - 1)
    cur = tuple(kernels.pauli_weight_profile(gens, n, cfg.target_d - 1))
    while cur != target and len(gates) < cfg.max_gates:
        scores = reference_move_scores(gens, n, cfg.target_d, directed)
        best = min(scores)
        if best < cur:
            ties = [i for i, s in enumerate(scores) if s == best]
            i = ties[sub.randrange(len(ties))]
        else:
            i = sub.randrange(len(directed))
        a, b = directed[i]
        gens = cnot_moved(gens, n, a, b)
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


_ORACLE_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def pauli_row_text(v: int, n: int) -> str:
    """Row x | z << n as '+' then one letter per qubit, e.g. '+IXYZ'."""
    return "+" + "".join(_ORACLE_LETTER[(v >> q & 1, v >> q + n & 1)]
                         for q in range(n))
