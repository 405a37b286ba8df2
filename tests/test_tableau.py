"""Tableau simulation, printed rows, canonical forms, distance search."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from gadgetminer.circuit import Circuit
from gadgetminer.kernels import canonical_rows, min_logical_weight
from gadgetminer.tableau import (
    CliffordTableau,
    TableauError,
    code_distance,
    encoder_code,
    encoder_tableau,
    row_str,
    rows_digest,
)

import reference
from conftest import (
    FIVE_QUBIT_ROWS,
    STEANE_X_ANCILLAS,
    SignedTableau,
    pauli_row,
    pauli_row_text,
    random_circuit,
    symplectic_ok,
)


# ---------------------------------------------------------------------------
# Printed rows
# ---------------------------------------------------------------------------


def test_pauli_str_round_trip():
    """row_str prints a row as the word it was read from, with the '+' of
    the signed layout, and agrees with conftest's own printer."""
    for s in ("+XZZXI", "+IYXZI", "+IIIII", "+Z"):
        assert row_str(pauli_row(s), len(s) - 1) == s
    assert row_str(pauli_row("XZ"), 2) == "+XZ"
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 9)
        v = rng.getrandbits(2 * n)
        assert row_str(v, n) == pauli_row_text(v, n)
        assert pauli_row(row_str(v, n)) == v


# ---------------------------------------------------------------------------
# Tableau gate action
# ---------------------------------------------------------------------------


def test_cnot_conjugation_images():
    t = CliffordTableau(2).cnot(0, 1)
    assert str(t.row_pauli(0)) == "+XX"  # X_c -> X_c X_t
    assert str(t.row_pauli(1)) == "+IX"  # X_t fixed
    assert str(t.row_pauli(2)) == "+ZI"  # Z_c fixed
    assert str(t.row_pauli(3)) == "+ZZ"  # Z_t -> Z_c Z_t


def test_h_and_s_conjugation():
    """The signed reference tableau's H and S images."""
    t = SignedTableau(1).h(0)
    assert t.row(0) == "+Z"
    assert t.row(1) == "+X"
    t = SignedTableau(1).s(0)
    assert t.row(0) == "+Y"  # S X S† = Y
    assert t.row(1) == "+Z"
    t = SignedTableau(1).s(0).s(0)
    assert t.row(0) == "-X"  # Z X Z = -X


def test_gate_index_checks():
    t = CliffordTableau(2)
    with pytest.raises(TableauError):
        t.cnot(0, 0)
    with pytest.raises(TableauError):
        t.cnot(0, 2)
    with pytest.raises(TableauError):
        t.cnot(-1, 0)
    with pytest.raises(TableauError):
        CliffordTableau(0)
    for bad in ((2,), (-1,)):
        with pytest.raises(TableauError):
            encoder_tableau(Circuit(2, ()), x_ancillas=bad)


def test_cnot_involution_and_digest():
    t = CliffordTableau(3).cnot(0, 1).cnot(0, 1)
    assert t.rows == CliffordTableau(3).rows
    a = CliffordTableau(3).cnot(0, 1)
    b = CliffordTableau(3).cnot(0, 1)
    assert a.digest() == b.digest()
    assert a.digest() != CliffordTableau(3).digest()


def test_to_bytes_matches_golden():
    """Pins the signed reference's layout, which corpus digests depend on:
    4-byte big-endian n, then X rows, Z rows and signs packed MSB-first
    and zero-padded.  The gate sequences use H and S so that sign bits
    are set; test_to_bytes_matches_signed_reference ties the program's
    bytes to the reference's."""
    golden = Path(__file__).parent / "fixtures" / "golden_tableau.json"
    for case in json.loads(golden.read_text()):
        t = SignedTableau(case["n"])
        for gate in case["gates"].split("; "):
            name, *qubits = gate.split()
            getattr(t, "cnot" if name == "cx" else name)(*map(int, qubits))
        assert t.to_bytes().hex() == case["to_bytes"]


def test_to_bytes_matches_signed_reference():
    """On random CNOT encoders with random |+> sets the program's bytes
    equal those of the signed reference run as H on each |+> wire, then
    the CNOTs, and the reference never sets a sign bit."""
    rng = random.Random(1717)
    for trial in range(600):
        n = 1 if trial < 20 else rng.randrange(2, 12)
        k = 0 if trial % 3 == 0 else rng.randrange(n)
        if trial % 5 == 0:
            xs = set(range(k, n))  # every ancilla in |+>
        else:
            xs = {q for q in range(k, n) if rng.random() < 0.5}
        c = random_circuit(rng, n, rng.randrange(0, 25) if n > 1 else 0)
        ref = SignedTableau(n)
        for q in xs:
            ref.h(q)
        for control, target in c.gates:
            ref.cnot(control, target)
        t = encoder_tableau(c, xs)
        assert t.to_bytes() == ref.to_bytes()
        assert t.digest() == hashlib.sha256(ref.to_bytes()).hexdigest()
        assert not any(ref.r)
        assert [row_str(v, n) for v in t.rows[n + k:]] == [
            ref.row(n + j) for j in range(k, n)]


def test_copy_is_independent():
    t = CliffordTableau(2)
    c = t.copy()
    c.cnot(0, 1)
    assert t.rows == CliffordTableau(2).rows
    assert c.rows != t.rows


def test_commutation_rule_matches_tableau():
    """cnots_commute must agree with unitary equality under adjacent swap."""
    rng = random.Random(20240401)
    for _ in range(200):
        n = rng.randrange(2, 6)
        c1 = rng.randrange(n)
        t1 = (c1 + rng.randrange(1, n)) % n
        c2 = rng.randrange(n)
        t2 = (c2 + rng.randrange(1, n)) % n
        fwd = CliffordTableau(n).cnot(c1, t1).cnot(c2, t2)
        rev = CliffordTableau(n).cnot(c2, t2).cnot(c1, t1)
        assert reference.cnots_commute((c1, t1), (c2, t2)) == (fwd.rows == rev.rows)


def test_symplectic_invariant_random_walk():
    """On the signed reference, whose H and S the program does not have."""
    rng = random.Random(99)
    t = SignedTableau(6)
    for _ in range(500):
        kind = rng.randrange(3)
        if kind == 0:
            a = rng.randrange(6)
            b = (a + rng.randrange(1, 6)) % 6
            t.cnot(a, b)
        elif kind == 1:
            t.h(rng.randrange(6))
        else:
            t.s(rng.randrange(6))
        assert symplectic_ok(t)


def test_encoder_tableau_prefix():
    c = Circuit.from_pairs(3, [(0, 1)])
    t = encoder_tableau(c, x_ancillas=(2,))
    # the |+> wire 2 starts with destabilizer Z_2 and stabilizer X_2
    assert [str(t.row_pauli(i)) for i in range(6)] == [
        "+XXI", "+IXI", "+IIZ", "+ZII", "+ZZI", "+IIX"]
    # duplicate listings fold to one H
    assert encoder_tableau(c, x_ancillas=(2, 2)).rows == t.rows


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def test_canonical_rows_group_invariance():
    a = [pauli_row("ZI"), pauli_row("IZ")]
    b = [pauli_row("ZZ"), pauli_row("IZ")]
    assert canonical_rows(a) == canonical_rows(b)
    assert [row_str(v, 2) for v in canonical_rows(a)] == ["+ZI", "+IZ"]


def _random_row_sets(rng):
    """Stabilizer rows of random encoders (n = 1, k = 0 and all-|+> among
    them), then random Pauli rows, which have Y letters."""
    cases = [(1, 0, set()), (1, 0, {0}), (3, 0, {0, 1, 2}), (4, 0, set())]
    for _ in range(60):
        n = rng.randrange(1, 8)
        k = rng.randrange(n)
        cases.append((n, k, {q for q in range(k, n) if rng.random() < 0.5}))
    for n, k, xa in cases:
        c = random_circuit(rng, n, rng.randrange(12)) if n > 1 else Circuit(1, ())
        t = encoder_tableau(c, xa)
        yield n, t.rows[n + k:]
    for _ in range(30):
        n = rng.randrange(1, 8)
        # X half drawn first
        yield n, [rng.getrandbits(n) | rng.getrandbits(n) << n
                  for _ in range(rng.randrange(1, 2 * n + 1))]


def test_canonical_rows_random_generating_sets():
    """canonical_rows equals reference.row_echelon on random row sets,
    shuffled and mixed by row operations, with dependent rows added: same
    rows, text and digest."""
    rng = random.Random(7)
    for n, rows in _random_row_sets(rng):
        ref = reference.row_echelon(rows)
        mixed = list(rows)
        for _ in range(10):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                mixed[i] ^= mixed[j]
        mixed.append(mixed[0] ^ mixed[-1])
        mixed.append(0)
        rng.shuffle(mixed)
        got = canonical_rows(mixed)
        assert got == ref
        text = [pauli_row_text(v, n) for v in ref]
        assert [row_str(v, n) for v in got] == text
        assert rows_digest(got, n) == hashlib.sha256(
            (f"{n}|" + "|".join(text)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Distance: kernels.min_logical_weight on encoder rows, as gen calls it
# ---------------------------------------------------------------------------


def test_gf2_rank():
    assert len(canonical_rows([0b101, 0b011, 0b110])) == 2
    assert canonical_rows([]) == []
    assert canonical_rows([0, 0]) == []
    assert canonical_rows([4, 2, 1]) == [1, 2, 4]


def test_five_qubit_code_distance():
    assert min_logical_weight(list(FIVE_QUBIT_ROWS), 5, 5) == 3
    assert reference.distance(FIVE_QUBIT_ROWS, 5) == 3
    rows = canonical_rows(FIVE_QUBIT_ROWS)
    assert [((v | v >> 5) & 31).bit_count() for v in rows] == [4, 4, 4, 4]


def test_steane_encoder_distance(steane_circuit):
    rows = encoder_tableau(steane_circuit, STEANE_X_ANCILLAS).rows[7 + 1:]
    assert len(rows) == 6
    assert min_logical_weight(rows, 7, 7) == 3
    assert reference.distance(rows, 7) == 3
    # the tracer's shims give the same rows and distance
    assert encoder_code(steane_circuit, 1, STEANE_X_ANCILLAS) == rows
    assert code_distance(rows, 7) == 3


def test_distance_matches_oracle_on_random_encoders():
    rng = random.Random(31)
    checked = 0
    for _ in range(12):
        n = rng.randrange(3, 6)
        c = random_circuit(rng, n, rng.randrange(2, 10))
        xa = tuple(q for q in range(1, n) if rng.random() < 0.5)
        rows = encoder_tableau(c, xa).rows[n + 1:]
        assert min_logical_weight(rows, n, n) == reference.distance(rows, n)
        checked += 1
    assert checked == 12


def test_zero_ancilla_encoders_have_distance_one():
    """CNOT circuits map Z_j to Z-only rows, so some single-qubit Z is
    always a logical operator when every ancilla starts in |0>."""
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(3, 7)
        c = random_circuit(rng, n, rng.randrange(1, 15))
        rows = encoder_tableau(c).rows[n + 1:]
        assert min_logical_weight(rows, n, n) == reference.distance(rows, n) == 1


def test_encoder_code_images_of_initial_stabilizers():
    """Generator row j is the circuit image of Z_j for a |0> ancilla and
    of X_j for a |+> ancilla: the bare circuit's stabilizer and
    destabilizer rows."""
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(2, 7)
        k = rng.randrange(0, n)
        c = random_circuit(rng, n, rng.randrange(1, 15))
        xa = {q for q in range(k, n) if rng.random() < 0.5}
        bare = CliffordTableau(n)
        for control, target in c.gates:
            bare.cnot(control, target)
        images = [bare.rows[j if j in xa else n + j] for j in range(k, n)]
        assert encoder_code(c, k, xa) == images
