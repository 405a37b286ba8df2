"""Kernels against brute-force references."""

from __future__ import annotations

import random
from itertools import combinations, product

from gadgetminer import kernels


def random_generators(rng: random.Random, n: int, m: int):
    """m commuting-free random mask pairs; kernels do not require the
    generators to commute or be independent, only the span logic."""
    gx = [rng.getrandbits(n) for _ in range(m)]
    gz = [rng.getrandbits(n) for _ in range(m)]
    return gx, gz


def five_qubit_masks():
    # XZZXI and cyclic shifts; bit q = qubit q
    gens = [("XZZXI"), ("IXZZX"), ("XIXZZ"), ("ZXIXZ")]
    gx, gz = [], []
    for word in gens:
        x = z = 0
        for q, ch in enumerate(word):
            if ch in "XY":
                x |= 1 << q
            if ch in "ZY":
                z |= 1 << q
        gx.append(x)
        gz.append(z)
    return gx, gz


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


def brute_force_profile(gx, gz, n: int, max_weight: int) -> list[int]:
    """Reference for pauli_weight_profile: visit every weight-w Pauli, test
    commutation with each generator, then span membership."""
    vecs = [(x << n) | z for x, z in zip(gx, gz)]
    counts = []
    for w in range(1, max_weight + 1):
        count = 0
        for support in combinations(range(n), w):
            for letters in product(((1, 0), (1, 1), (0, 1)), repeat=w):
                px = pz = 0
                for q, (xb, zb) in zip(support, letters):
                    px |= xb << q
                    pz |= zb << q
                if any(((px & z).bit_count() + (pz & x).bit_count()) & 1
                       for x, z in zip(gx, gz)):
                    continue
                if in_span((px << n) | pz, vecs):
                    continue
                count += 1
        counts.append(count)
    return counts


def brute_force_min_weight(gx, gz, n: int, max_weight: int) -> int:
    profile = brute_force_profile(gx, gz, n, max_weight)
    return next((w for w, c in enumerate(profile, 1) if c), 0)


def test_backend_identifier():
    assert kernels.BACKEND == "python"


def test_min_logical_weight_five_qubit():
    gx, gz = five_qubit_masks()
    assert kernels.min_logical_weight(gx, gz, 5, 5) == 3
    assert kernels.min_logical_weight(gx, gz, 5, 2) == 0  # bound too low


def test_weight_profile_five_qubit():
    gx, gz = five_qubit_masks()
    profile = kernels.pauli_weight_profile(gx, gz, 5, 3)
    assert profile[0] == 0 and profile[1] == 0
    assert profile[2] == 30  # 2k * binom-type count for the perfect code
    assert profile == brute_force_profile(gx, gz, 5, 3)


def test_empty_generator_set():
    # with nothing to commute with, any weight-1 Pauli is logical
    assert kernels.min_logical_weight([], [], 4, 3) == 1
    assert kernels.pauli_weight_profile([], [], 2, 2) == [6, 9]


def test_canonical_encoding_hand_case():
    # two swappable nodes, one cnot edge 0 -> 1; the minimal row stores the
    # in-edge nibble (4), not the out-edge nibble (8)
    enc = kernels.canonical_encoding(
        2, [2], [0, 1], [2, 0], [0, 1], [0, 0], [0, 0])
    assert enc == bytes([4])
    # fixing the order with singleton classes keeps the out-edge form
    enc2 = kernels.canonical_encoding(
        2, [1, 1], [1, 0], [2, 0], [0, 1], [0, 0], [0, 0])
    assert enc2 == bytes([8])


def test_canonical_encoding_sizes():
    assert kernels.canonical_encoding(0, [], [], [], [], [], []) == b""
    assert kernels.canonical_encoding(1, [1], [0], [0], [0], [0], [0]) == b""
    n = 5
    enc = kernels.canonical_encoding(
        n, [n], list(range(n)), [0] * n, [0] * n, [0] * n, [0] * n)
    assert enc == bytes(n * (n - 1) // 2)


def test_scan_parity_random():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randrange(1, 9)
        m = rng.randrange(0, n + 1)
        gx, gz = random_generators(rng, n, m)
        if m >= 2 and rng.random() < 0.5:
            # a dependent generator: the span test must still be exact
            gx.append(gx[0] ^ gx[1])
            gz.append(gz[0] ^ gz[1])
        w = rng.randrange(1, n + 1)
        assert kernels.min_logical_weight(gx, gz, n, w) == \
            brute_force_min_weight(gx, gz, n, w)
        assert kernels.pauli_weight_profile(gx, gz, n, w) == \
            brute_force_profile(gx, gz, n, w)


def test_scan_parity_wide_inputs():
    # masks wider than a machine word
    n = 36
    gz = [1 << q for q in range(32)]
    gx = [0] * 32
    assert kernels.min_logical_weight(gx, gz, n, 1) == \
        brute_force_min_weight(gx, gz, n, 1) == 1
    assert kernels.pauli_weight_profile(gx, gz, n, 1) == \
        brute_force_profile(gx, gz, n, 1)
