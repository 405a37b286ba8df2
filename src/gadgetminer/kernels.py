"""Hot inner loops: CNOT conjugation of Pauli rows, GF(2) elimination,
the logical-operator walk and canonical graph encoding.

A Pauli is one integer x | z << n: bit q holds X on qubit q and bit
q + n holds Z on it, so Y has both.  The tableau's rows, a code's
generators, the walk's logicals and canonical stabilizer rows all use
this layout.  _echelon is the one GF(2) elimination: canonical_rows
sorts its rows by pivot (X block then Z block, ascending qubit), and
commutant reads the generators' commutant off it.

The walk lists a code's logical operators weight by weight from its
syndrome table: per Pauli bit, the generators and the other rows of the
code's commutant that anticommute with that letter.  A Pauli that
commutes with the generators is a logical iff it anticommutes with one
of the other rows (Aaronson & Gottesman 2004), so no span test is
needed.  The weight profile and the minimum weight count the walk of a
generic generator set's table; the hill climb carries its own table and
seeds its listed logicals with a walk.  A restricted walk lists only
the logicals that a CNOT move brings down to a given weight, for the
climb's steps.  Graphs are passed as per-node slots of at most one
neighbour per edge kind and direction.  BACKEND names the
implementation and is recorded in mine manifests.
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


def commutant(gens: list[int], n: int) -> list[int]:
    """A basis of the Paulis that commute with every generator, from one
    _echelon of the generators with their X and Z halves swapped: P
    commutes with g iff P & swap(g) has even weight, so the basis is that
    null space, one row per non-pivot bit f, with f and the pivot of each
    reduced row that has bit f set."""
    low = (1 << n) - 1
    basis = _echelon(g >> n | (g & low) << n for g in gens)
    pivots = 0
    for p, _ in basis:
        pivots |= p
    out = []
    for f in range(2 * n):
        bit = 1 << f
        if not pivots & bit:
            for p, r in basis:
                if r & bit:
                    bit |= p
            out.append(bit)
    return out


def syndrome_table(rows: Iterable[int], n: int) -> list[int]:
    """t[p], per Pauli bit p: the rows that anticommute with the
    one-letter Pauli at bit p, as bit i for row i.  X on qubit q (bit q)
    anticommutes with the rows that have Z there (bit q + n), and Z with
    those that have X; a Pauli's syndrome is the XOR of its letters'.
    Conjugating the rows by CNOT a -> b changes two entries:
    t[a] ^= t[b], then t[b + n] ^= t[a + n]."""
    t = [0] * (2 * n)
    bit = 1
    for r in rows:
        while r:
            low = r & -r
            p = low.bit_length() - 1
            t[p - n if p >= n else p + n] |= bit
            r ^= low
        bit <<= 1
    return t


def code_table(gens: list[int], n: int) -> tuple[list[int], int]:
    """(syndrome table, m) of the generators, as the table's m low bits,
    and a basis of their commutant above them: a Pauli whose syndrome is
    clear on the generators commutes with them, and it lies outside
    their span iff it anticommutes with a commutant row.  The generators
    need not commute or be independent."""
    gens = list(gens)
    return syndrome_table(gens + commutant(gens, n), n), len(gens)


def _letters(t: list[int], n: int, qubits):
    """Per qubit of qubits its X, Y and Z letters as (row, syndrome)."""
    return [((1 << q, t[q]), (1 << q | 1 << q + n, t[q] ^ t[q + n]),
             (1 << q + n, t[q + n])) for q in qubits]


def _closers(letters, gmask: int, size: int):
    """closers[s]: per word of size letters (1 or 2) on increasing
    positions of letters (per position, one qubit's letters) whose
    syndrome on the generator bits gmask is s, its (first position, row,
    syndrome), latest first position first: a closer scan stops at the
    first position not above the prefix's last."""
    closers: dict[int, list[tuple[int, int, int]]] = {}
    m = len(letters)
    for i in reversed(range(m)):
        words = letters[i] if size == 1 else [
            (v | u, s ^ t) for v, s in letters[i]
            for j in range(i + 1, m) for u, t in letters[j]]
        for v, s in words:
            closers.setdefault(s & gmask, []).append((i, v, s))
    return closers


def _closer_size(letters: int) -> int:
    """How many of a walk's letters its closers take: two when a prefix
    letter is still left, which saves a factor of about 3n lookups for
    the price of one dictionary of all letter pairs."""
    return 1 if letters <= 2 else 2


def _closed_words(letters, closers, size: int, gmask: int, prefix_len: int,
                  heads) -> list[int]:
    """The logicals made of one of the heads, each a (row, syndrome),
    prefix_len letters on increasing positions of letters and one closing
    word of size letters on later positions, from closers.  A closer must
    cancel the prefix's syndrome (the head's included) on the generator
    bits, so the Pauli commutes with the generators, and leave some other
    bit set."""
    # prefixes are (row, syndrome, last position); a letter goes only
    # where the positions above it leave room for the letters still to
    # place and a closer.  Depth-first over lists of prefixes with the
    # same letters left, each list at most 3n long and the last letter
    # placed for a whole list at once, so memory stays O(w * n^2).
    room = len(letters) - size + 1
    found = []
    stack = [([(hv, hs, -1) for hv, hs in heads], prefix_len)]
    while stack:
        prefixes, left = stack.pop()
        if left > 1:
            stack.extend(([(pv | v, s ^ t, i)
                           for i in range(last + 1, room - left)
                           for v, t in letters[i]], left - 1)
                         for pv, s, last in prefixes)
            continue
        if left:
            prefixes = [(pv | v, s ^ t, i) for pv, s, last in prefixes
                        for i in range(last + 1, room - 1)
                        for v, t in letters[i]]
        for pv, s, last in prefixes:
            for i, v, cs in closers.get(s & gmask, ()):
                if i <= last:
                    break
                if cs != s:
                    found.append(v | pv)
    return found


def walk_logicals(t: list[int], m: int, n: int, max_weight: int):
    """Yield, for w = 1..max_weight, the list of weight-w logicals of the
    code whose syndrome table t has the generators on its m low bits: the
    Paulis whose syndrome is clear there and set above.  Each is a
    prefix on lower qubits closed by one or two letters (_closer_size)
    on higher qubits."""
    letters = _letters(t, n, range(n))
    gmask = (1 << m) - 1
    closers = {}
    for w in range(1, max_weight + 1):
        size = _closer_size(w)
        if size not in closers:
            closers[size] = _closers(letters, gmask, size)
        yield _closed_words(letters, closers[size], size, gmask, w - size,
                            ((0, 0),))


def logicals_by_weight(gens: list[int], n: int, max_weight: int):
    """Yield, for w = 1..max_weight, the list of weight-w Paulis that commute
    with every generator but lie outside the generators' GF(2) span."""
    t, m = code_table(gens, n)
    return walk_logicals(t, m, n, max_weight)


def logicals_entering(t: list[int], m: int, n: int, w: int,
                      a: int, b: int) -> list[int]:
    """The weight-w logicals (as walk_logicals lists them) whose letters
    on {a, b} are exactly one of X_a, Y_a, Z_b and Y_b.

    These are the letters CNOT a -> b maps to a weight-2 Pauli, so after
    that move these are the weight-w logicals whose weight before the move
    was w + 1.  Each is such a head plus w - 1 letters on the other
    qubits, walked once for all four heads."""
    gmask = (1 << m) - 1
    heads = ((1 << a, t[a]), (1 << a | 1 << a + n, t[a] ^ t[a + n]),
             (1 << b + n, t[b + n]), (1 << b | 1 << b + n, t[b] ^ t[b + n]))
    if w == 1:
        return [v for v, s in heads if s and not s & gmask]
    others = _letters(t, n, [q for q in range(n) if q != a and q != b])
    size = _closer_size(w - 1)
    return _closed_words(others, _closers(others, gmask, size), size, gmask,
                         w - 1 - size, heads)


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
