"""Hot inner loops: the Pauli weight scan and canonical graph encoding.

Pauli operators are passed as X/Z bitmask integers (bit q = qubit q),
graphs as per-node adjacency bitmasks.  BACKEND names the implementation
and is recorded in mine manifests.
"""

from __future__ import annotations

from .tableau import gf2_basis

BACKEND = "python"


def _weight_counts(gx: list[int], gz: list[int], n: int, max_weight: int):
    """Yield, for w = 1..max_weight, the number of weight-w Paulis that
    commute with every generator but lie outside the generators' GF(2) span.

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
        count = 0
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
                for b in basis:
                    if v ^ b < v:
                        v ^= b
                if v:
                    count += 1
        yield count


def min_logical_weight(gx: list[int], gz: list[int], n: int, max_weight: int) -> int:
    """Smallest weight in 1..max_weight of a Pauli commuting with all
    generators but outside their span; 0 if none exists up to the bound."""
    for w, count in enumerate(_weight_counts(gx, gz, n, max_weight), 1):
        if count:
            return w
    return 0


def pauli_weight_profile(
    gx: list[int], gz: list[int], n: int, max_weight: int
) -> list[int]:
    """counts[w-1] = number of weight-w Paulis commuting with all generators
    but outside their span, for w = 1..max_weight."""
    return list(_weight_counts(gx, gz, n, max_weight))


def canonical_encoding(
    n: int,
    class_sizes: list[int],
    class_nodes: list[int],
    out_c: list[int],
    in_c: list[int],
    out_t: list[int],
    in_t: list[int],
) -> bytes:
    """Lexicographically minimal adjacency encoding over node orderings that
    place each refinement class in its own contiguous position block.

    class_nodes lists node indices grouped per class (sizes in class_sizes);
    adjacency masks are indexed by original node index.  The encoding is one
    nibble per unordered position pair (i, j), i > j, in row-major order:
    bit3 = cnot i->j, bit2 = cnot j->i, bit1 = time i->j, bit0 = time j->i.
    """
    if n == 0:
        return b""
    pos_class: list[int] = []
    members: list[list[int]] = []
    start = 0
    for ci, size in enumerate(class_sizes):
        members.append(class_nodes[start : start + size])
        pos_class.extend([ci] * size)
        start += size
    total = n * (n - 1) // 2
    cur = [0] * total
    best: list[int] | None = None
    placed = [0] * n
    used = [False] * n

    def rec(i: int, tight: bool) -> bool:
        nonlocal best
        if i == n:
            if best is None or not tight:
                best = cur.copy()
                return True
            return False
        improved = False
        off = i * (i - 1) // 2
        for u in members[pos_class[i]]:
            if used[u]:
                continue
            for j in range(i):
                v = placed[j]
                cur[off + j] = (
                    (((out_c[u] >> v) & 1) << 3)
                    | (((in_c[u] >> v) & 1) << 2)
                    | (((out_t[u] >> v) & 1) << 1)
                    | ((in_t[u] >> v) & 1)
                )
            child_tight = tight
            if best is not None and tight:
                seg = cur[off : off + i]
                ref = best[off : off + i]
                if seg > ref:
                    continue
                child_tight = seg == ref
            used[u] = True
            placed[i] = u
            if rec(i + 1, child_tight):
                improved = True
                tight = True
            used[u] = False
        return improved

    rec(0, True)
    assert best is not None
    return bytes(best)
