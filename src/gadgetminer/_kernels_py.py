"""Pure-Python kernels: Pauli weight scans and canonical graph encoding.

These are the reference implementations of the hot inner loops; the Cython
module _kernels mirrors them exactly.  Pauli operators are passed as X/Z
bitmask integers (bit q = qubit q), graphs as per-node adjacency bitmasks.
"""

from __future__ import annotations

from itertools import combinations, product

from .tableau import gf2_basis

# (x, z) encodings of the letters X, Y, Z, in this fixed scan order
_LETTERS = ((1, 0), (1, 1), (0, 1))


def _reduce(v: int, basis: list[int]) -> int:
    for b in basis:
        v = min(v, v ^ b)
    return v


def _scan_weight(
    gx: list[int], gz: list[int], n: int, w: int, count_mode: bool
) -> int:
    """Count (or detect) weight-w Paulis that commute with every generator
    but lie outside the generators' GF(2) span.  Returns the count, or 1/0
    in detection mode."""
    basis = gf2_basis([(x << n) | z for x, z in zip(gx, gz)])
    m = len(gx)
    count = 0
    for support in combinations(range(n), w):
        for letters in product(_LETTERS, repeat=w):
            px = pz = 0
            for q, (xb, zb) in zip(support, letters):
                px |= xb << q
                pz |= zb << q
            commutes = True
            for i in range(m):
                if ((px & gz[i]).bit_count() + (pz & gx[i]).bit_count()) & 1:
                    commutes = False
                    break
            if not commutes:
                continue
            if _reduce((px << n) | pz, basis) == 0:
                continue
            if not count_mode:
                return 1
            count += 1
    return count


def min_logical_weight(gx: list[int], gz: list[int], n: int, max_weight: int) -> int:
    """Smallest weight in 1..max_weight of a Pauli commuting with all
    generators but outside their span; 0 if none exists up to the bound."""
    for w in range(1, max_weight + 1):
        if _scan_weight(gx, gz, n, w, count_mode=False):
            return w
    return 0


def pauli_weight_profile(
    gx: list[int], gz: list[int], n: int, max_weight: int
) -> list[int]:
    """counts[w-1] = number of weight-w Paulis commuting with all generators
    but outside their span, for w = 1..max_weight."""
    return [_scan_weight(gx, gz, n, w, count_mode=True) for w in range(1, max_weight + 1)]


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
