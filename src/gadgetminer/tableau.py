"""Stabilizer-tableau simulation of CNOT encoders over GF(2).

The tableau follows the Aaronson-Gottesman layout: for an n-qubit circuit
U, rows 0..n-1 hold the images U X_i U† (destabilizers) and rows n..2n-1 the
images U Z_i U† (stabilizers), each one integer x | z << n (bit q is X on
qubit q, bit q + n is Z on it), the one layout of kernels.  CNOT is the
only gate.  It maps X-type rows to X-type rows and Z-type rows to Z-type
rows with sign +, and a |+> wire only swaps its two fresh rows, so every
row is an unsigned pure-X or pure-Z Pauli and the tableau keeps no sign
column.

A corpus manifest's canonical rows are kernels.canonical_rows of the
stabilizer rows, printed by row_str and hashed by rows_digest.  The
methods copy and row_pauli and the functions encoder_code and
code_distance are on no command's path: they stay, on integer rows,
because the benchmark's tracer wraps them by name.

Conventions (conjugation by CNOT with control c, target t):
    X_c -> X_c X_t      X_t -> X_t
    Z_c -> Z_c          Z_t -> Z_c Z_t
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from . import kernels
from .circuit import Circuit


class TableauError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------


class CliffordTableau:
    """2n rows x | z << n; starts as the identity."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int):
        if n < 1:
            raise TableauError(f"qubit count must be positive, got {n}")
        self.n = n
        # destabilizer i = X_i (bit i), stabilizer i = Z_i (bit n + i)
        self.rows = [1 << i for i in range(2 * n)]

    # -- the one gate (in place) --------------------------------------------

    def cnot(self, control: int, target: int) -> CliffordTableau:
        self._check_pair(control, target)
        kernels.cnot_rows(self.rows, self.n, control, target)
        return self

    def _check_qubit(self, q: int) -> None:
        if not (0 <= q < self.n):
            raise TableauError(f"qubit index {q} out of range for n={self.n}")

    def _check_pair(self, a: int, b: int) -> None:
        self._check_qubit(a)
        self._check_qubit(b)
        if a == b:
            raise TableauError("control equals target")

    # -- inspection ----------------------------------------------------------

    def copy(self) -> CliffordTableau:
        """An independent tableau with the same rows.  Kept for the
        benchmark's tracer, which wraps it by name, until ROADMAP item 1a
        drops the target."""
        t = CliffordTableau.__new__(CliffordTableau)
        t.n = self.n
        t.rows = self.rows.copy()
        return t

    def row_pauli(self, i: int) -> str:
        """Row i as text, row_str(rows[i], n).  Kept for the benchmark's
        tracer, which wraps it by name, until ROADMAP item 1a drops the
        target."""
        return row_str(self.rows[i], self.n)

    def to_bytes(self) -> bytes:
        """Faithful fixed-convention serialization; equal bytes <=> equal
        tableau <=> equal CNOT unitary.

        Layout: 4-byte big-endian n, then the X rows, the Z rows (row-major,
        qubit 0 first) and 2n sign bits as one bit stream, packed MSB-first
        and zero-padded to a whole byte.  The sign bits of a CNOT image are
        always 0 (+); they are kept so that digests stay those of the signed
        Aaronson-Gottesman layout."""
        n, rows = self.n, self.rows
        halves = [r & (1 << n) - 1 for r in rows] + [r >> n for r in rows]
        bits = "".join(format(m, f"0{n}b")[::-1] for m in halves)
        bits += "0" * (2 * n)
        bits += "0" * (-len(bits) % 8)
        return n.to_bytes(4, "big") + int(bits, 2).to_bytes(len(bits) // 8, "big")

    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def encoder_tableau(c: Circuit, x_ancillas: Iterable[int] = ()) -> CliffordTableau:
    """Tableau of the circuit preceded by H on every |+>-initialized wire.

    H on a fresh wire q swaps its rows: destabilizer q becomes Z_q and
    stabilizer n+q becomes X_q.  The prefix folds the per-entry input-basis
    pattern into the tableau so that corpus deduplication keys see it, and
    makes stabilizer row n+j the image of wire j's initial stabilizer in
    either basis.
    """
    t = CliffordTableau(c.n_qubits)
    n = t.n
    for q in set(x_ancillas):
        t._check_qubit(q)
        t.rows[q], t.rows[n + q] = 1 << n + q, 1 << q
    for control, target in c.gates:
        t.cnot(control, target)
    return t


# ---------------------------------------------------------------------------
# Printed rows
# ---------------------------------------------------------------------------

_LETTERS = "IXZY"  # one qubit's letter at index x | z << 1


def row_str(v: int, n: int) -> str:
    """Row mask x | z << n as text, e.g. '+IXYZ'; the '+' of the signed
    layout keeps canonical digests unchanged."""
    return "+" + "".join(
        _LETTERS[(v >> q & 1) | (v >> (n + q) & 1) << 1] for q in range(n))


def rows_digest(rows: Iterable[int], n: int) -> str:
    """SHA-256 of 'n|row|row|...' over the printed rows."""
    payload = f"{n}|" + "|".join(row_str(v, n) for v in rows)
    return hashlib.sha256(payload.encode()).hexdigest()


def encoder_code(c: Circuit, k: int, x_ancillas: Iterable[int] = ()) -> list[int]:
    """Stabilizer rows n + k onwards of encoder_tableau: the images of the
    ancilla wires' initial stabilizers, the generators gen judges.  Kept
    for the benchmark's tracer, which wraps it by name, until ROADMAP item
    1a drops the target."""
    return encoder_tableau(c, x_ancillas).rows[c.n_qubits + k:]


def code_distance(rows: list[int], n: int) -> int:
    """kernels.min_logical_weight(rows, n, n): the distance of the code the
    rows generate, 0 if it has no logical operator.  Kept for the
    benchmark's tracer, which wraps it by name, until ROADMAP item 1a
    drops the target."""
    return kernels.min_logical_weight(rows, n, n)
