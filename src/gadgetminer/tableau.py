"""Stabilizer-tableau simulation over GF(2).

The tableau follows the Aaronson-Gottesman layout: for an n-qubit Clifford
U, rows 0..n-1 hold the images U X_i U† (destabilizers) and rows n..2n-1 the
images U Z_i U† (stabilizers), each as X and Z bitmasks (bit q = qubit q,
as in Pauli) and a sign bit.  Only CNOT enters circuits here; H and S are
provided for encoder input bases and for tests, and never appear in the
mining IR.

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
    """n-qubit Pauli with X/Z bitmasks (bit q = qubit q) and a ±1 sign."""

    n: int
    x: int
    z: int
    sign: int = 0  # 0 -> '+', 1 -> '-'

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def commutes(self, other: Pauli) -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __str__(self) -> str:
        word = "".join(
            _LETTER[((self.x >> q) & 1, (self.z >> q) & 1)] for q in range(self.n)
        )
        return ("-" if self.sign else "+") + word

    @classmethod
    def from_str(cls, s: str) -> Pauli:
        s = s.strip()
        sign = 0
        if s and s[0] in "+-":
            sign = 1 if s[0] == "-" else 0
            s = s[1:]
        x = z = 0
        for q, ch in enumerate(s):
            if ch not in _BITS:
                raise TableauError(f"bad Pauli letter {ch!r}")
            xb, zb = _BITS[ch]
            x |= xb << q
            z |= zb << q
        return cls(n=len(s), x=x, z=z, sign=sign)

    def mul(self, other: Pauli) -> Pauli:
        """Product self * other; defined only for commuting pairs (the result
        of multiplying anticommuting Hermitian Paulis is anti-Hermitian)."""
        if self.n != other.n:
            raise TableauError("Pauli size mismatch")
        g = _phase_exponent(self.x, self.z, other.x, other.z)
        if g % 2:
            raise TableauError("product of anticommuting Paulis has imaginary phase")
        sign = (self.sign + other.sign + (g % 4) // 2) % 2
        return Pauli(self.n, self.x ^ other.x, self.z ^ other.z, sign)


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent k of i^k picked up by the qubit-wise product P1 * P2.

    XY = iZ, YZ = iX and ZX = iY contribute +1 each; the reversed orders
    contribute -1."""
    xo1, y1, zo1 = x1 & ~z1, x1 & z1, z1 & ~x1
    xo2, y2, zo2 = x2 & ~z2, x2 & z2, z2 & ~x2
    plus = (xo1 & y2) | (y1 & zo2) | (zo1 & xo2)
    minus = (y1 & xo2) | (zo1 & y2) | (xo1 & zo2)
    return (plus.bit_count() - minus.bit_count()) % 4


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------


class CliffordTableau:
    """2n rows of X/Z bitmasks plus 2n sign bits; starts as the identity."""

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int):
        if n < 1:
            raise TableauError(f"qubit count must be positive, got {n}")
        self.n = n
        # destabilizer i = X_i, stabilizer i = Z_i
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]
        self.r = [0] * (2 * n)

    # -- gates (in place) ---------------------------------------------------

    def cnot(self, control: int, target: int) -> CliffordTableau:
        a, b = control, target
        self._check_pair(a, b)
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xi, zi = x[i], z[i]
            xa, zb = xi >> a & 1, zi >> b & 1
            r[i] ^= xa & zb & ((xi >> b ^ zi >> a ^ 1) & 1)
            x[i] = xi ^ xa << b
            z[i] = zi ^ zb << a
        return self

    def h(self, q: int) -> CliffordTableau:
        self._check_qubit(q)
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xq, zq = x[i] >> q & 1, z[i] >> q & 1
            r[i] ^= xq & zq
            swap = (xq ^ zq) << q
            x[i] ^= swap
            z[i] ^= swap
        return self

    def s(self, q: int) -> CliffordTableau:
        self._check_qubit(q)
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xq = x[i] >> q & 1
            r[i] ^= xq & z[i] >> q
            z[i] ^= xq << q
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
        t.r = self.r.copy()
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordTableau)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
            and self.r == other.r
        )

    def __hash__(self):
        return hash(self.to_bytes())

    def row_pauli(self, i: int) -> Pauli:
        return Pauli(self.n, self.x[i], self.z[i], self.r[i])

    def stabilizer_rows(self) -> list[Pauli]:
        return [self.row_pauli(self.n + i) for i in range(self.n)]

    def to_bytes(self) -> bytes:
        """Faithful fixed-convention serialization; equal bytes <=> equal
        tableau <=> equal Clifford unitary.

        Layout: 4-byte big-endian n, then the X rows, the Z rows (row-major,
        qubit 0 first) and the signs as one bit stream, packed MSB-first and
        zero-padded to a whole byte."""
        n = self.n
        bits = "".join(format(m, f"0{n}b")[::-1] for m in self.x + self.z)
        bits += "".join(map(str, self.r))
        bits += "0" * (-len(bits) % 8)
        return n.to_bytes(4, "big") + int(bits, 2).to_bytes(len(bits) // 8, "big")

    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def encoder_tableau(c: Circuit, x_ancillas: Iterable[int] = ()) -> CliffordTableau:
    """Tableau of the circuit preceded by H on every |+>-initialized wire.

    The H prefix folds the per-entry input-basis pattern into the tableau so
    that corpus deduplication keys see it, and makes stabilizer row n+j the
    image of wire j's initial stabilizer in either basis.
    """
    t = CliffordTableau(c.n_qubits)
    for q in sorted(set(x_ancillas)):
        t.h(q)
    for g in c.gates:
        t.cnot(g.control, g.target)
    return t


# ---------------------------------------------------------------------------
# Canonical form of a stabilizer row set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Sign-tracked reduced row echelon form of a commuting Pauli row set.

    Column order is the X block then the Z block, ascending qubit index; the
    rows are the unique group elements with pivots at the RREF columns, so
    two row sets generating the same signed group compare equal.
    """

    n: int
    rows: tuple[Pauli, ...]

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.rows)

    def digest(self) -> str:
        payload = f"{self.n}|" + "|".join(str(p) for p in self.rows)
        return hashlib.sha256(payload.encode()).hexdigest()

    def weights(self) -> list[int]:
        return [p.weight for p in self.rows]


def canonical_rows(rows: Sequence[Pauli]) -> CanonicalForm:
    """RREF over GF(2) of commuting Pauli rows, with exact sign tracking."""
    if not rows:
        raise TableauError("cannot canonicalize an empty row set")
    n = rows[0].n
    work = list(rows)

    def bit(p: Pauli, col: int) -> int:
        # columns 0..n-1: X block; columns n..2n-1: Z block
        return (p.x >> col) & 1 if col < n else (p.z >> (col - n)) & 1

    reduced: list[Pauli] = []
    pivot_cols: list[int] = []
    remaining = work
    for col in range(2 * n):
        pivot = next((i for i, p in enumerate(remaining) if bit(p, col)), None)
        if pivot is None:
            continue
        row = remaining.pop(pivot)
        remaining = [p.mul(row) if bit(p, col) else p for p in remaining]
        reduced = [p.mul(row) if bit(p, col) else p for p in reduced]
        reduced.append(row)
        pivot_cols.append(col)
        if not remaining:
            break
    leftover = [p for p in remaining if p.x or p.z or p.sign]
    if leftover:
        # dependent rows must reduce to +identity for a consistent group
        raise TableauError("rows are inconsistent (dependent row with sign -1)")
    order = sorted(range(len(reduced)), key=lambda i: pivot_cols[i])
    return CanonicalForm(n=n, rows=tuple(reduced[i] for i in order))


def canonical_tableau(t: CliffordTableau) -> CanonicalForm:
    """Canonical form of the group generated by the stabilizer rows."""
    return canonical_rows(t.stabilizer_rows())


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

    def canonical(self) -> CanonicalForm:
        return canonical_rows(self.generators)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "generators": [str(g) for g in self.generators]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> StabilizerCode:
        gens = tuple(Pauli.from_str(s) for s in obj["generators"])
        return cls(n=int(obj["n"]), k=int(obj["k"]), generators=gens)


def encoder_code(c: Circuit, k: int, x_ancillas: Iterable[int] = ()) -> StabilizerCode:
    """Code stabilized by the circuit images of the ancilla-wire stabilizers.

    Qubits 0..k-1 carry logical information; qubit j >= k starts in |0>
    (initial stabilizer Z_j) or, if listed in x_ancillas, in |+> (initial
    stabilizer X_j = H Z_j H).  Either way the image is stabilizer row n+j
    of encoder_tableau, whose H prefix folds the |+> preparations in.
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

    Signs are ignored (the vector-space definition of distance).  Raises
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


def generator_weights(code: StabilizerCode) -> tuple[list[int], float]:
    """Weights of the canonical-form generators and their mean."""
    weights = code.canonical().weights()
    return weights, sum(weights) / len(weights)
