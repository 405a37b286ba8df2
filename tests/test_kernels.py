"""Kernels against brute-force references."""

from __future__ import annotations

import random

from gadgetminer import kernels

import reference
from conftest import FIVE_QUBIT_ROWS, random_generator_set, random_generators


def test_backend_identifier():
    assert kernels.BACKEND == "python"


def test_min_logical_weight_five_qubit():
    gens = list(FIVE_QUBIT_ROWS)
    assert kernels.min_logical_weight(gens, 5, 5) == 3
    assert kernels.min_logical_weight(gens, 5, 2) == 0  # bound too low


def test_weight_profile_five_qubit():
    gens = list(FIVE_QUBIT_ROWS)
    profile = kernels.pauli_weight_profile(gens, 5, 3)
    assert profile[0] == 0 and profile[1] == 0
    assert profile[2] == 30  # 2k * binom-type count for the perfect code
    assert profile == [len(found) for found in
                       reference.logicals(gens, 5, 3)]


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
        gens = random_generator_set(rng, n)
        w = rng.randrange(1, n + 1)
        ref = reference.logicals(gens, n, w)
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
        ref = [v for v in reference.logicals_at(gens, n, w)
               if v & pair in heads]
        t, m = kernels.code_table(gens, n)
        assert sorted(kernels.logicals_entering(t, m, n, w, a, b)) == ref


def test_commutant_is_the_symplectic_complement():
    # the rows commute with every generator, are independent, and number
    # 2n minus the generators' rank, so they span all that commutes
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randrange(1, 8)
        gens = random_generator_set(rng, n)
        rows = kernels.commutant(gens, n)
        mask = (1 << n) - 1
        assert all(((r & mask & g >> n).bit_count()
                    + (r >> n & g & mask).bit_count()) % 2 == 0
                   for r in rows for g in gens)
        assert len(kernels.canonical_rows(rows)) == len(rows)
        assert len(rows) == 2 * n - len(kernels.canonical_rows(gens))


def test_scan_parity_wide_inputs():
    # masks wider than a machine word
    n = 36
    gens = [1 << q + n for q in range(32)]  # Z on qubits 0..31
    assert kernels.min_logical_weight(gens, n, 1) == \
        reference.distance(gens, n) == 1
    assert kernels.pauli_weight_profile(gens, n, 1) == [
        len(reference.logicals_at(gens, n, 1))]
