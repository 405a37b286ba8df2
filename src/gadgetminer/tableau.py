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
stabilizer rows, printed by row_str and hashed by rows_digest.  Pauli,
StabilizerCode, encoder_code, code_distance and row_pauli are on no
command's path: they stay because the benchmark's tracer wraps the last
three by name, and those take or return the first two (the tests'
distance oracle is tests/reference.py).

Conventions (conjugation by CNOT with control c, target t):
    X_c -> X_c X_t      X_t -> X_t
    Z_c -> Z_c          Z_t -> Z_c Z_t
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .circuit import Circuit


class TableauError(ValueError):
    pass


class DistanceSearchError(RuntimeError):
    """Raised when the brute-force distance search exhausts its bound."""


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

_LETTERS = "IXZY"  # one qubit's letter at index x | z << 1


@dataclass(frozen=True)
class Pauli:
    """Unsigned n-qubit Pauli with X/Z bitmasks (bit q = qubit q); as a
    row it is x | z << n."""

    n: int
    x: int
    z: int

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def commutes(self, other: Pauli) -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __str__(self) -> str:
        return row_str(self.x | self.z << self.n, self.n)

    @classmethod
    def from_str(cls, s: str) -> Pauli:
        s = s.strip().removeprefix("+")
        x = z = 0
        for q, ch in enumerate(s):
            i = _LETTERS.find(ch)
            if i < 0:
                raise TableauError(f"bad Pauli letter {ch!r}")
            x |= (i & 1) << q
            z |= (i >> 1) << q
        return cls(n=len(s), x=x, z=z)


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
        t = CliffordTableau.__new__(CliffordTableau)
        t.n = self.n
        t.rows = self.rows.copy()
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordTableau)
            and self.n == other.n
            and self.rows == other.rows
        )

    def row_pauli(self, i: int) -> Pauli:
        r, n = self.rows[i], self.n
        return Pauli(n, r & (1 << n) - 1, r >> n)

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


def row_str(v: int, n: int) -> str:
    """Row mask x | z << n as text, e.g. '+IXYZ'; the '+' of the signed
    layout keeps canonical digests unchanged."""
    return "+" + "".join(
        _LETTERS[(v >> q & 1) | (v >> (n + q) & 1) << 1] for q in range(n))


def rows_digest(rows: Iterable[int], n: int) -> str:
    """SHA-256 of 'n|row|row|...' over the printed rows."""
    payload = f"{n}|" + "|".join(row_str(v, n) for v in rows)
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Stabilizer codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizerCode:
    """[[n, k]] stabilizer code given by n-k commuting independent generators."""

    n: int
    k: int
    generators: tuple[Pauli, ...]

    def __post_init__(self):
        if not (0 <= self.k < self.n):
            raise TableauError(f"need 0 <= k < n, got k={self.k}, n={self.n}")
        if len(self.generators) != self.n - self.k:
            raise TableauError(
                f"expected {self.n - self.k} generators, got {len(self.generators)}"
            )
        for i, g in enumerate(self.generators):
            if g.n != self.n:
                raise TableauError("generator length mismatch")
            for h in self.generators[i + 1 :]:
                if not g.commutes(h):
                    raise TableauError(f"generators do not commute: {g}, {h}")
        rows = kernels.canonical_rows(g.x | g.z << self.n
                                      for g in self.generators)
        if len(rows) != len(self.generators):
            raise TableauError("generators are not independent over GF(2)")


def encoder_code(c: Circuit, k: int, x_ancillas: Iterable[int] = ()) -> StabilizerCode:
    """Code stabilized by the circuit images of the ancilla-wire stabilizers.

    Qubits 0..k-1 carry logical information; qubit j >= k starts in |0>
    (initial stabilizer Z_j) or, if listed in x_ancillas, in |+> (initial
    stabilizer X_j = H Z_j H).  Either way the image is stabilizer row n+j
    of encoder_tableau, whose H prefix folds the |+> preparations in; each
    generator is an unsigned pure-X or pure-Z row.
    """
    if not (0 <= k < c.n_qubits):
        raise TableauError(f"need 0 <= k < n, got k={k}, n={c.n_qubits}")
    xset = set(x_ancillas)
    bad = [q for q in xset if not (k <= q < c.n_qubits)]
    if bad:
        raise TableauError(f"x_ancillas outside ancilla range: {sorted(bad)}")
    t = encoder_tableau(c, xset)
    gens = tuple(t.row_pauli(t.n + j) for j in range(k, t.n))
    return StabilizerCode(n=c.n_qubits, k=k, generators=gens)


def code_distance(
    code: StabilizerCode, n_limit: int = 15, max_weight: float = math.inf
) -> int:
    """Minimum weight over Paulis commuting with every generator but outside
    the generator span, by exhaustive search in increasing weight.

    This is the vector-space definition of distance.  Raises
    DistanceSearchError beyond the qubit bound or if the weight search is
    exhausted.
    """
    if code.n > n_limit:
        raise DistanceSearchError(
            f"brute-force distance limited to n <= {n_limit}, code has n={code.n}"
        )
    limit = min(max_weight, code.n)
    gens = [g.x | g.z << code.n for g in code.generators]
    w = kernels.min_logical_weight(gens, code.n, limit)
    if w == 0:
        raise DistanceSearchError(
            f"search bound exceeded: no logical operator of weight <= {limit}"
        )
    return w
