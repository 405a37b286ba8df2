"""Hot inner loops: the logical-operator walk and canonical graph encoding.

The walk lists a code's logical operators weight by weight; the weight
profile, the minimum weight and the hill-climb's move scores count it.
Pauli operators are passed as X/Z bitmask integers (bit q = qubit q),
graphs as per-node slots of at most one neighbour per edge kind and
direction.  BACKEND names the implementation and is recorded in mine
manifests.
"""

from __future__ import annotations

BACKEND = "python"


def gf2_basis(vectors: list[int]) -> list[int]:
    """XOR basis, kept sorted descending so reduction is a single pass."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def logicals_by_weight(gx: list[int], gz: list[int], n: int, max_weight: int):
    """Yield, for w = 1..max_weight, the list of weight-w Paulis that commute
    with every generator but lie outside the generators' GF(2) span, as
    vectors (x << n) | z.

    Parity-check form: a Pauli's syndrome has bit i set when it anticommutes
    with generator i, and is the XOR of its letters' syndromes.  Each
    weight-w Pauli is a weight-(w-1) prefix on lower qubits plus one closing
    letter on a higher qubit; only closers whose syndrome equals the
    prefix's give a commuting Pauli, and only those need the span test.
    The generators need not commute or be independent."""
    basis = gf2_basis([(x << n) | z for x, z in zip(gx, gz)])
    # X on qubit q anticommutes with generator i when gz[i] has bit q,
    # Z on qubit q when gx[i] has bit q
    sx = [0] * n
    sz = [0] * n
    bit = 1
    for x, z in zip(gx, gz):
        while z:
            low = z & -z
            sx[low.bit_length() - 1] |= bit
            z ^= low
        while x:
            low = x & -x
            sz[low.bit_length() - 1] |= bit
            x ^= low
        bit <<= 1
    # per qubit: (vector, syndrome) of X, Y, Z; vectors are (x << n) | z
    letters = [((1 << q + n, sx[q]), (1 << q + n | 1 << q, sx[q] ^ sz[q]),
                (1 << q, sz[q])) for q in range(n)]
    # closers[s] lists qubits in descending order, so a scan stops at the
    # first qubit not above the prefix's last one
    closers: dict[int, list[tuple[int, int]]] = {}
    for q in reversed(range(n)):
        for v, s in letters[q]:
            closers.setdefault(s, []).append((q, v))
    for w in range(1, max_weight + 1):
        found = []
        # depth-first over the weight-(w-1) prefixes, so memory stays
        # O(n * w).  Entries are (vector, syndrome, last qubit, letters still
        # to place); a letter goes only where the qubits above it leave room
        # for the letters still to place and a closer.
        stack = [(0, 0, -1, w - 1)]
        while stack:
            pv, s, last, left = stack.pop()
            if left:
                stack.extend((pv | v, s ^ t, q, left - 1)
                             for q in range(last + 1, n - left)
                             for v, t in letters[q])
                continue
            for q, v in closers.get(s, ()):
                if q <= last:
                    break
                v |= pv
                r = v
                for b in basis:
                    if r ^ b < r:
                        r ^= b
                if r:
                    found.append(v)
        yield found


def min_logical_weight(gx: list[int], gz: list[int], n: int, max_weight: int) -> int:
    """Smallest weight in 1..max_weight of a Pauli commuting with all
    generators but outside their span; 0 if none exists up to the bound."""
    for w, found in enumerate(logicals_by_weight(gx, gz, n, max_weight), 1):
        if found:
            return w
    return 0


def pauli_weight_profile(
    gx: list[int], gz: list[int], n: int, max_weight: int
) -> list[int]:
    """counts[w-1] = number of weight-w Paulis commuting with all generators
    but outside their span, for w = 1..max_weight."""
    return [len(found) for found in logicals_by_weight(gx, gz, n, max_weight)]


def canonical_encoding(labels: list[int], slots: list[int]) -> bytes:
    """Canonical encoding of a graph whose nodes each have at most one
    neighbour per slot: slots[4*u + k] is node u's neighbour in slot k
    (cnot out, cnot in, time out, time in), or -1.

    A breadth-first walk from a start node, taking each node's slots in
    that fixed order, numbers the start's whole component; its encoding is
    the component size, then per node in walk order the label code and the
    four slot neighbours' walk numbers + 1 (0 for none).  An isomorphism
    maps walks onto walks, so the least encoding over a component's start
    nodes is canonical.  The components' encodings are sorted and joined;
    each opens with its size, so the join can be read back."""
    seen = [False] * len(labels)
    parts = []
    for root in range(len(labels)):
        if not seen[root]:
            comp = _slot_walk(root, labels, slots)[1]
            for u in comp:
                seen[u] = True
            parts.append(min(_slot_walk(s, labels, slots)[0] for s in comp))
    return b"".join(sorted(parts))


def _slot_walk(start: int, labels: list[int], slots: list[int]):
    """(encoding, nodes in walk order) of the walk from start."""
    pos = {start: 0}
    order = [start]
    enc = bytearray([0])
    for u in order:  # order grows while it is read
        enc.append(labels[u])
        for v in slots[4 * u:4 * u + 4]:
            if v < 0:
                enc.append(0)
                continue
            if v not in pos:
                pos[v] = len(order)
                order.append(v)
            enc.append(pos[v] + 1)
    enc[0] = len(order)
    return bytes(enc), order
