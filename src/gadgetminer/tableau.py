"""Stabilizer-tableau simulation of CNOT encoders over GF(2).

The tableau follows the Aaronson-Gottesman layout: for an n-qubit circuit
U, rows 0..n-1 hold the images U X_i U† (destabilizers) and rows n..2n-1 the
images U Z_i U† (stabilizers), each as X and Z bitmasks (bit q = qubit q,
as in Pauli).  CNOT is the only gate.  It maps X-type rows to X-type rows
and Z-type rows to Z-type rows with sign +, and a |+> wire only swaps its
two fresh rows, so every row is an unsigned pure-X or pure-Z Pauli and the
tableau keeps no sign column.

Conventions (conjugation by CNOT with control c, target t):
    X_c -> X_c X_t      X_t -> X_t
    Z_c -> Z_c          Z_t -> Z_c Z_t
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernels
from .circuit import Circuit


class TableauError(ValueError):
    pass


class DistanceSearchError(RuntimeError):
    """Raised when the brute-force distance search exhausts its bound."""


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {v: k for k, v in _LETTER.items()}


@dataclass(frozen=True)
class Pauli:
    """Unsigned n-qubit Pauli with X/Z bitmasks (bit q = qubit q)."""

    n: int
    x: int
    z: int

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def commutes(self, other: Pauli) -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __str__(self) -> str:
        # the '+' of the signed layout keeps canonical digests unchanged
        return "+" + "".join(
            _LETTER[((self.x >> q) & 1, (self.z >> q) & 1)] for q in range(self.n)
        )

    @classmethod
    def from_str(cls, s: str) -> Pauli:
        s = s.strip().removeprefix("+")
        x = z = 0
        for q, ch in enumerate(s):
            if ch not in _BITS:
                raise TableauError(f"bad Pauli letter {ch!r}")
            xb, zb = _BITS[ch]
            x |= xb << q
            z |= zb << q
        return cls(n=len(s), x=x, z=z)

    def mul(self, other: Pauli) -> Pauli:
        """Product self * other up to phase: the XOR of the bitmasks."""
        if self.n != other.n:
            raise TableauError("Pauli size mismatch")
        return Pauli(self.n, self.x ^ other.x, self.z ^ other.z)


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------


class CliffordTableau:
    """2n rows of X/Z bitmasks; starts as the identity."""

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int):
        if n < 1:
            raise TableauError(f"qubit count must be positive, got {n}")
        self.n = n
        # destabilizer i = X_i, stabilizer i = Z_i
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]

    # -- the one gate (in place) --------------------------------------------

    def cnot(self, control: int, target: int) -> CliffordTableau:
        a, b = control, target
        self._check_pair(a, b)
        x, z = self.x, self.z
        for i in range(2 * self.n):
            x[i] ^= (x[i] >> a & 1) << b
            z[i] ^= (z[i] >> b & 1) << a
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
        t.x = self.x.copy()
        t.z = self.z.copy()
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordTableau)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
        )

    def row_pauli(self, i: int) -> Pauli:
        return Pauli(self.n, self.x[i], self.z[i])

    def stabilizer_rows(self) -> list[Pauli]:
        return [self.row_pauli(self.n + i) for i in range(self.n)]

    def to_bytes(self) -> bytes:
        """Faithful fixed-convention serialization; equal bytes <=> equal
        tableau <=> equal CNOT unitary.

        Layout: 4-byte big-endian n, then the X rows, the Z rows (row-major,
        qubit 0 first) and 2n sign bits as one bit stream, packed MSB-first
        and zero-padded to a whole byte.  The sign bits of a CNOT image are
        always 0 (+); they are kept so that digests stay those of the signed
        Aaronson-Gottesman layout."""
        n = self.n
        bits = "".join(format(m, f"0{n}b")[::-1] for m in self.x + self.z)
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
        t.x[q], t.z[q], t.x[n + q], t.z[n + q] = 0, 1 << q, 1 << q, 0
    for control, target in c.gates:
        t.cnot(control, target)
    return t


# ---------------------------------------------------------------------------
# Canonical form of a stabilizer row set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Reduced row echelon form over GF(2) of a set of unsigned Pauli rows.

    Column order is the X block then the Z block, ascending qubit index; the
    rows are the unique span elements with pivots at the RREF columns, so
    two row sets spanning the same space compare equal.  Rows print with
    the leading '+' of the signed layout, so digests are unchanged.
    """

    n: int
    rows: tuple[Pauli, ...]

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.rows)

    def digest(self) -> str:
        payload = f"{self.n}|" + "|".join(str(p) for p in self.rows)
        return hashlib.sha256(payload.encode()).hexdigest()


def canonical_rows(rows: Sequence[Pauli]) -> CanonicalForm:
    """RREF over GF(2) of Pauli rows (unsigned CNOT images)."""
    if not rows:
        raise TableauError("cannot canonicalize an empty row set")
    n = rows[0].n

    def bit(p: Pauli, col: int) -> int:
        # columns 0..n-1: X block; columns n..2n-1: Z block
        return (p.x >> col) & 1 if col < n else (p.z >> (col - n)) & 1

    # pivots are taken in column order, so reduced stays sorted by pivot
    reduced: list[Pauli] = []
    remaining = list(rows)
    for col in range(2 * n):
        pivot = next((i for i, p in enumerate(remaining) if bit(p, col)), None)
        if pivot is None:
            continue
        row = remaining.pop(pivot)
        remaining = [p.mul(row) if bit(p, col) else p for p in remaining]
        reduced = [p.mul(row) if bit(p, col) else p for p in reduced]
        reduced.append(row)
        if not remaining:
            break
    return CanonicalForm(n=n, rows=tuple(reduced))


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
        if len(kernels.gf2_basis([(g.x << self.n) | g.z for g in self.generators])) != len(
            self.generators
        ):
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
    code: StabilizerCode, n_limit: int = 15, max_weight: int | None = None
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
    limit = code.n if max_weight is None else min(max_weight, code.n)
    gx = [g.x for g in code.generators]
    gz = [g.z for g in code.generators]
    w = kernels.min_logical_weight(gx, gz, code.n, limit)
    if w == 0:
        raise DistanceSearchError(
            f"search bound exceeded: no logical operator of weight <= {limit}"
        )
    return w
