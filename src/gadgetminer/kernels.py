"""Hot inner loops: CNOT conjugation of Pauli rows, GF(2) elimination,
the logical-operator walk and canonical graph encoding.

A Pauli is one integer x | z << n: bit q holds X on qubit q and bit
q + n holds Z on it, so Y has both.  The tableau's rows, a code's
generators, the walk's logicals and canonical stabilizer rows all use
this layout, and canonical_rows is the one GF(2) elimination: its pivot
columns run X block then Z block, ascending qubit.

The walk lists a code's logical operators weight by weight; the weight
profile and the minimum weight count it, and the hill climb seeds its
carried logicals with it.  A restricted walk lists only the logicals
that a CNOT move brings down to a given weight, for the climb's steps.
Both share one set-up of letters, syndromes and closers.  Graphs are
passed as per-node slots of at most one neighbour per edge kind and
direction.  BACKEND names the implementation and is recorded in mine
manifests.
"""

from __future__ import annotations

from typing import Iterable

BACKEND = "python"


def cnot_rows(rows: list[int], n: int, a: int, b: int) -> None:
    """Conjugate rows by CNOT a -> b in place: X on a spreads to b, Z on
    b spreads to a."""
    xa, xb, za, zb = 1 << a, 1 << b, 1 << a + n, 1 << b + n
    for i, r in enumerate(rows):
        if r & xa:
            r ^= xb
        if r & zb:
            r ^= za
        rows[i] = r


def _echelon(rows: Iterable[int]) -> list[tuple[int, int]]:
    """(pivot, row) pairs of the GF(2) reduced row echelon form of rows,
    in no particular order.  A row's pivot is its lowest set bit and is
    clear in every other row; dependent rows are dropped."""
    pairs: list[tuple[int, int]] = []
    for v in rows:
        # a pivot is clear in the other rows: one pass clears v's
        for p, r in pairs:
            if v & p:
                v ^= r
        if v:
            low = v & -v
            pairs = [(p, r ^ v) if r & low else (p, r) for p, r in pairs]
            pairs.append((low, v))
    return pairs


def canonical_rows(rows: Iterable[int]) -> list[int]:
    """GF(2) reduced row echelon form of rows, sorted by pivot: equal
    spans give equal lists."""
    return [r for _, r in sorted(_echelon(rows))]


def _in_span(basis: list[tuple[int, int]], v: int) -> bool:
    """Whether v lies in the span of an _echelon basis: one pass clears
    v's pivot bits, and what is left is in the span only if it is 0."""
    for p, r in basis:
        if v & p:
            v ^= r
    return not v


def _walk_tables(gens: list[int], n: int, qubits):
    """What a walk over the letters on qubits needs: the generators'
    _echelon basis; per qubit 0..n-1 its X, Y and Z letters as (row,
    syndrome); and closers[s], the (position in qubits, row) of the
    letters on qubits with syndrome s, latest position first.

    Parity-check form: a Pauli's syndrome has bit i set when it anticommutes
    with generator i, and is the XOR of its letters' syndromes.  The
    generators need not commute or be independent."""
    basis = _echelon(gens)
    # has[p]: the generators with bit p set.  X on qubit q anticommutes
    # with those that have Z there (bit q + n), Z with those that have X
    has = [0] * (2 * n)
    bit = 1
    for g in gens:
        while g:
            low = g & -g
            has[low.bit_length() - 1] |= bit
            g ^= low
        bit <<= 1
    letters = [((1 << q, has[q + n]),
                (1 << q | 1 << q + n, has[q] ^ has[q + n]),
                (1 << q + n, has[q])) for q in range(n)]
    # a closer scan stops at the first position not above the prefix's last
    closers: dict[int, list[tuple[int, int]]] = {}
    for i in reversed(range(len(qubits))):
        for v, s in letters[qubits[i]]:
            closers.setdefault(s, []).append((i, v))
    return basis, letters, closers


def _closed_words(basis, letters, closers, prefix_len: int, heads) -> list[int]:
    """The logicals made of one of the heads, each a (row, syndrome),
    prefix_len letters on increasing positions of letters (per position,
    its qubit's letters) and one closer on a later position: only closers
    whose syndrome cancels the head's and the prefix's give a commuting
    Pauli, and only those need the span test."""
    found = []
    # depth-first over the prefixes, so memory stays O(n * w).  Entries
    # are (row, syndrome, last position, letters still to place); a
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
                if not _in_span(basis, v):
                    found.append(v)
    return found


def logicals_by_weight(gens: list[int], n: int, max_weight: int):
    """Yield, for w = 1..max_weight, the list of weight-w Paulis that commute
    with every generator but lie outside the generators' GF(2) span.  Each
    is a weight-(w-1) prefix on lower qubits plus one closing letter on a
    higher qubit."""
    basis, letters, closers = _walk_tables(gens, n, range(n))
    for w in range(1, max_weight + 1):
        yield _closed_words(basis, letters, closers, w - 1, ((0, 0),))


def logicals_entering(gens: list[int], n: int, w: int,
                      a: int, b: int) -> list[int]:
    """The weight-w logicals (as logicals_by_weight lists them) whose
    letters on {a, b} are exactly one of X_a, Y_a, Z_b and Y_b.

    These are the letters CNOT a -> b maps to a weight-2 Pauli, so after
    that move these are the weight-w logicals whose weight before the move
    was w + 1.  Each is such a head plus w - 1 letters on the other
    qubits, walked once for all four heads."""
    others = [q for q in range(n) if q != a and q != b]
    basis, letters, closers = _walk_tables(gens, n, others)
    (xa, ya, _), (_, yb, zb) = letters[a], letters[b]
    heads = (xa, ya, zb, yb)
    if w == 1:
        return [v for v, s in heads if not s and not _in_span(basis, v)]
    return _closed_words(basis, [letters[q] for q in others], closers,
                         w - 2, heads)


def min_logical_weight(gens: list[int], n: int, max_weight: int) -> int:
    """Smallest weight in 1..max_weight of a Pauli commuting with all
    generators but outside their span; 0 if none exists up to the bound."""
    for w, found in enumerate(logicals_by_weight(gens, n, max_weight), 1):
        if found:
            return w
    return 0


def pauli_weight_profile(gens: list[int], n: int,
                         max_weight: int) -> list[int]:
    """counts[w-1] = number of weight-w Paulis commuting with all generators
    but outside their span, for w = 1..max_weight."""
    return [len(found) for found in logicals_by_weight(gens, n, max_weight)]


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
            enc, comp = _slot_walk(root, labels, slots)
            for u in comp:
                seen[u] = True
            parts.append(min([enc] + [_slot_walk(s, labels, slots)[0]
                                      for s in comp[1:]]))
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
