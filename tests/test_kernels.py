"""Kernels against brute-force references."""

from __future__ import annotations

import random
from itertools import combinations, product

from gadgetminer import kernels


def random_generators(rng: random.Random, n: int, m: int) -> list[int]:
    """m commuting-free random rows x | z << n, X halves drawn first;
    kernels do not require the generators to commute or be independent,
    only the span logic."""
    gx = [rng.getrandbits(n) for _ in range(m)]
    gz = [rng.getrandbits(n) for _ in range(m)]
    return [x | z << n for x, z in zip(gx, gz)]


def five_qubit_rows() -> list[int]:
    # XZZXI and cyclic shifts; bit q is X on qubit q, bit q + 5 Z on it
    rows = []
    for word in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"):
        x = z = 0
        for q, ch in enumerate(word):
            if ch in "XY":
                x |= 1 << q
            if ch in "ZY":
                z |= 1 << q
        rows.append(x | z << 5)
    return rows


def in_span(v: int, vecs) -> bool:
    """GF(2) span membership by elimination on leading bits."""
    pivots: dict[int, int] = {}
    for b in vecs:
        while b and b.bit_length() in pivots:
            b ^= pivots[b.bit_length()]
        if b:
            pivots[b.bit_length()] = b
    while v and v.bit_length() in pivots:
        v ^= pivots[v.bit_length()]
    return v == 0


def brute_force_logicals(gens, n: int, max_weight: int) -> list[list[int]]:
    """Reference for logicals_by_weight: visit every weight-w Pauli, test
    commutation with each generator, then span membership.  Rows are
    x | z << n, sorted per weight."""
    mask = (1 << n) - 1
    halves = [(g & mask, g >> n) for g in gens]
    lists = []
    for w in range(1, max_weight + 1):
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
                if in_span(px | pz << n, gens):
                    continue
                found.append(px | pz << n)
        lists.append(sorted(found))
    return lists


def brute_force_profile(gens, n: int, max_weight: int) -> list[int]:
    """Reference for pauli_weight_profile."""
    return [len(found) for found in brute_force_logicals(gens, n, max_weight)]


def brute_force_min_weight(gens, n: int, max_weight: int) -> int:
    profile = brute_force_profile(gens, n, max_weight)
    return next((w for w, c in enumerate(profile, 1) if c), 0)


def test_backend_identifier():
    assert kernels.BACKEND == "python"


def test_min_logical_weight_five_qubit():
    gens = five_qubit_rows()
    assert kernels.min_logical_weight(gens, 5, 5) == 3
    assert kernels.min_logical_weight(gens, 5, 2) == 0  # bound too low


def test_weight_profile_five_qubit():
    gens = five_qubit_rows()
    profile = kernels.pauli_weight_profile(gens, 5, 3)
    assert profile[0] == 0 and profile[1] == 0
    assert profile[2] == 30  # 2k * binom-type count for the perfect code
    assert profile == brute_force_profile(gens, 5, 3)


def test_empty_generator_set():
    # with nothing to commute with, any weight-1 Pauli is logical
    assert kernels.min_logical_weight([], 4, 3) == 1
    assert kernels.pauli_weight_profile([], 2, 2) == [6, 9]


def test_canonical_encoding_hand_case():
    # one cnot 0 -> 1; slots per node are cnot out/in, time out/in.  With
    # labels n, n the walk from node 1 gives the smaller encoding
    slots = [1, -1, -1, -1, -1, 0, -1, -1]
    assert kernels.canonical_encoding([2, 2], slots) == bytes(
        [2, 2, 0, 2, 0, 0, 2, 1, 0, 0, 0])
    # with labels c, t the walk from the control (label code 0) wins
    assert kernels.canonical_encoding([0, 1], slots) == bytes(
        [2, 0, 2, 0, 0, 0, 1, 0, 1, 0, 0])


def test_canonical_encoding_sizes():
    assert kernels.canonical_encoding([], []) == b""
    single = kernels.canonical_encoding([1], [-1] * 4)
    assert single == bytes([1, 1, 0, 0, 0, 0])
    # a time edge 0 -> 1 and a lone node 2: the components' encodings come
    # out sorted (size 1 first), not in node order
    slots = [-1, -1, 1, -1, -1, -1, -1, 0, -1, -1, -1, -1]
    assert kernels.canonical_encoding([0, 0, 1], slots) == bytes(
        [1, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0])


def test_scan_parity_random():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randrange(1, 9)
        m = rng.randrange(0, n + 1)
        gens = random_generators(rng, n, m)
        if m >= 2 and rng.random() < 0.5:
            # a dependent generator: the span test must still be exact
            gens.append(gens[0] ^ gens[1])
        w = rng.randrange(1, n + 1)
        ref = brute_force_logicals(gens, n, w)
        assert [sorted(found) for found in
                kernels.logicals_by_weight(gens, n, w)] == ref
        assert kernels.pauli_weight_profile(gens, n, w) == \
            [len(found) for found in ref]
        assert kernels.min_logical_weight(gens, n, w) == \
            next((i for i, found in enumerate(ref, 1) if found), 0)


def test_logicals_entering_matches_brute_force():
    # the weight-w logicals whose letters on {a, b} are exactly one of X_a,
    # Y_a, Z_b and Y_b, for w up to n + 1
    rng = random.Random(4321)
    for _ in range(30):
        n = rng.randrange(2, 7)
        gens = random_generators(rng, n, rng.randrange(0, n + 1))
        a, b = rng.sample(range(n), 2)
        w = rng.randrange(1, n + 2)
        # X_a, Y_a, Z_b, Y_b
        heads = {1 << a, 1 << a | 1 << a + n, 1 << b + n, 1 << b | 1 << b + n}
        pair = (1 << a | 1 << b) * ((1 << n) + 1)
        ref = [v for v in brute_force_logicals(gens, n, w)[w - 1]
               if v & pair in heads]
        assert sorted(kernels.logicals_entering(gens, n, w, a, b)) == ref


def test_scan_parity_wide_inputs():
    # masks wider than a machine word
    n = 36
    gens = [1 << q + n for q in range(32)]  # Z on qubits 0..31
    assert kernels.min_logical_weight(gens, n, 1) == \
        brute_force_min_weight(gens, n, 1) == 1
    assert kernels.pauli_weight_profile(gens, n, 1) == \
        brute_force_profile(gens, n, 1)
