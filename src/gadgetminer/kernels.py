"""Hot inner loops: the logical-operator walk and canonical graph encoding.

The walk lists a code's logical operators weight by weight; the weight
profile and the minimum weight count it, and the hill climb seeds its
carried logicals with it.  A restricted walk lists only the logicals
that a CNOT move brings down to a given weight, for the climb's steps.
Both share one set-up of letters, syndromes and closers.
Pauli operators are passed as X/Z bitmask integers (bit q = qubit q),
graphs as per-node slots of at most one neighbour per edge kind and
direction.  BACKEND names the implementation and is recorded in mine
manifests.
"""

from __future__ import annotations

BACKEND = "python"


def _reduce(basis: list[int], v: int) -> int:
    """v reduced by a gf2_basis: 0 exactly when v lies in its span."""
    for b in basis:
        if v ^ b < v:
            v ^= b
    return v


def gf2_basis(vectors: list[int]) -> list[int]:
    """XOR basis, kept sorted descending so reduction is a single pass."""
    basis: list[int] = []
    for v in vectors:
        v = _reduce(basis, v)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def _walk_tables(gx: list[int], gz: list[int], n: int, qubits):
    """What a walk over the letters on qubits needs: the generators' GF(2)
    basis; per qubit 0..n-1 its X, Y and Z letters as (vector, syndrome),
    vectors (x << n) | z; and closers[s], the (position in qubits, vector)
    of the letters on qubits with syndrome s, latest position first.

    Parity-check form: a Pauli's syndrome has bit i set when it anticommutes
    with generator i, and is the XOR of its letters' syndromes.  The
    generators need not commute or be independent."""
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
    letters = [((1 << q + n, sx[q]), (1 << q + n | 1 << q, sx[q] ^ sz[q]),
                (1 << q, sz[q])) for q in range(n)]
    # a closer scan stops at the first position not above the prefix's last
    closers: dict[int, list[tuple[int, int]]] = {}
    for i in reversed(range(len(qubits))):
        for v, s in letters[qubits[i]]:
            closers.setdefault(s, []).append((i, v))
    return basis, letters, closers


def _closed_words(basis, letters, closers, prefix_len: int, heads) -> list[int]:
    """The logicals made of one of the heads, each a (vector, syndrome),
    prefix_len letters on increasing positions of letters (per position,
    its qubit's letters) and one closer on a later position: only closers
    whose syndrome cancels the head's and the prefix's give a commuting
    Pauli, and only those need the span test."""
    found = []
    # depth-first over the prefixes, so memory stays O(n * w).  Entries
    # are (vector, syndrome, last position, letters still to place); a
    # letter goes only where the positions above it leave room for the
    # letters still to place and a closer.
    m = len(letters)
    stack = [(0, 0, -1, prefix_len)]
    while stack:
        pv, s, last, left = stack.pop()
        if left:
            stack.extend((pv | v, s ^ t, i, left - 1)
                         for i in range(last + 1, m - left)
                         for v, t in letters[i])
            continue
        for hv, hs in heads:
            for i, v in closers.get(s ^ hs, ()):
                if i <= last:
                    break
                v |= pv | hv
                if _reduce(basis, v):
                    found.append(v)
    return found


def logicals_by_weight(gx: list[int], gz: list[int], n: int, max_weight: int):
    """Yield, for w = 1..max_weight, the list of weight-w Paulis that commute
    with every generator but lie outside the generators' GF(2) span, as
    vectors (x << n) | z.  Each is a weight-(w-1) prefix on lower qubits
    plus one closing letter on a higher qubit."""
    basis, letters, closers = _walk_tables(gx, gz, n, range(n))
    for w in range(1, max_weight + 1):
        yield _closed_words(basis, letters, closers, w - 1, ((0, 0),))


def logicals_entering(gx: list[int], gz: list[int], n: int, w: int,
                      a: int, b: int) -> list[int]:
    """The weight-w logicals (as logicals_by_weight lists them) whose
    letters on {a, b} are exactly one of X_a, Y_a, Z_b and Y_b.

    These are the letters CNOT a -> b maps to a weight-2 Pauli, so after
    that move these are the weight-w logicals whose weight before the move
    was w + 1.  Each is such a head plus w - 1 letters on the other
    qubits, walked once for all four heads."""
    others = [q for q in range(n) if q != a and q != b]
    basis, letters, closers = _walk_tables(gx, gz, n, others)
    (xa, ya, _), (_, yb, zb) = letters[a], letters[b]
    heads = (xa, ya, zb, yb)
    if w == 1:
        return [v for v, s in heads if not s and _reduce(basis, v)]
    return _closed_words(basis, [letters[q] for q in others], closers,
                         w - 2, heads)


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
