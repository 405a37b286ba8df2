"""CNOT-circuit intermediate representation.

A circuit is an ordered list of CNOT gates on ``n_qubits`` wires, one gate
per temporal layer (layer index == position in the gate list).  Two
serializations are supported and round-trip exactly:

* line format::

      # comment
      qubits 3
      cx 0 1
      cx 1 2

* JSON: ``{"name": str, "qubits": int, "gates": [[control, target], ...]}``

The IR deliberately knows nothing about single-qubit gates; those exist only
in the tableau layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


class CircuitError(ValueError):
    """Invalid circuit structure (bad indices, layering, ...)."""


class CircuitParseError(CircuitError):
    """Malformed circuit file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class CnotGate:
    """A single CNOT: ``control`` and ``target`` are 0-based qubit indices."""

    control: int
    target: int
    layer: int

    def __post_init__(self):
        if self.control == self.target:
            raise CircuitError(
                f"control equals target ({self.control}) at layer {self.layer}"
            )
        if self.control < 0 or self.target < 0 or self.layer < 0:
            raise CircuitError("negative qubit or layer index")


@dataclass(frozen=True)
class Circuit:
    """An ordered CNOT circuit with strictly increasing layer indices."""

    n_qubits: int
    gates: tuple[CnotGate, ...]
    name: str = ""

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError(f"n_qubits must be positive, got {self.n_qubits}")
        prev = -1
        for g in self.gates:
            if g.layer <= prev:
                raise CircuitError(
                    f"gate layers must be strictly increasing (layer {g.layer} "
                    f"after {prev})"
                )
            prev = g.layer
            if g.control >= self.n_qubits or g.target >= self.n_qubits:
                raise CircuitError(
                    f"qubit index out of range in gate ({g.control},{g.target}) "
                    f"for {self.n_qubits} qubits"
                )

    @classmethod
    def from_pairs(
        cls, n_qubits: int, pairs: list[tuple[int, int]] | tuple, name: str = ""
    ) -> Circuit:
        """Build a circuit from (control, target) pairs, layered 0, 1, 2, ..."""
        gates = tuple(CnotGate(c, t, i) for i, (c, t) in enumerate(pairs))
        return cls(n_qubits=n_qubits, gates=gates, name=name)

    @property
    def cx_count(self) -> int:
        return len(self.gates)

    def pairs(self) -> list[tuple[int, int]]:
        return [(g.control, g.target) for g in self.gates]


def parse_circuit(text: str | bytes, name: str = "") -> Circuit:
    """Parse the line format.  Layer i is assigned to the i-th gate line.

    Raises CircuitParseError with the 1-based line number on malformed lines,
    out-of-range qubit indices, or control == target.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n_qubits = None
    pairs: list[tuple[int, int, int]] = []  # (control, target, source line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n_qubits is None:
            if len(fields) != 2 or fields[0] != "qubits":
                raise CircuitParseError(
                    f"expected 'qubits <N>' header at line {lineno}, got {raw!r}",
                    lineno,
                )
            try:
                n_qubits = int(fields[1])
            except ValueError:
                raise CircuitParseError(
                    f"malformed qubit count at line {lineno}", lineno
                ) from None
            if n_qubits < 1:
                raise CircuitParseError(
                    f"qubit count must be positive at line {lineno}", lineno
                )
            continue
        if len(fields) != 3 or fields[0] != "cx":
            raise CircuitParseError(
                f"malformed gate line at line {lineno}: {raw!r}", lineno
            )
        try:
            c, t = int(fields[1]), int(fields[2])
        except ValueError:
            raise CircuitParseError(
                f"malformed qubit index at line {lineno}: {raw!r}", lineno
            ) from None
        if c == t:
            raise CircuitParseError(f"control equals target at line {lineno}", lineno)
        if not (0 <= c < n_qubits and 0 <= t < n_qubits):
            raise CircuitParseError(
                f"qubit index out of range at line {lineno} "
                f"(circuit has {n_qubits} qubits)",
                lineno,
            )
        pairs.append((c, t, lineno))
    if n_qubits is None:
        raise CircuitParseError("missing 'qubits <N>' header", None)
    gates = tuple(CnotGate(c, t, i) for i, (c, t, _) in enumerate(pairs))
    return Circuit(n_qubits=n_qubits, gates=gates, name=name)


def serialize_circuit(c: Circuit) -> str:
    """Line-format serialization; parse_circuit inverts it (name aside,
    which the line format does not carry)."""
    lines = [f"qubits {c.n_qubits}"]
    lines.extend(f"cx {g.control} {g.target}" for g in c.gates)
    return "\n".join(lines) + "\n"


def parse_circuit_json(text: str | bytes, name: str = "") -> Circuit:
    """Parse the JSON form; an embedded "name" wins over the argument."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitParseError(f"invalid JSON: {exc}", exc.lineno) from None
    try:
        n = int(obj["qubits"])
        gates = [(int(c), int(t)) for c, t in obj["gates"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitParseError(f"bad circuit JSON structure: {exc!r}") from None
    try:
        return Circuit.from_pairs(n, gates, name=str(obj.get("name", name)))
    except CircuitError as exc:
        raise CircuitParseError(str(exc)) from None


def serialize_circuit_json(c: Circuit) -> str:
    return json.dumps(
        {"name": c.name, "qubits": c.n_qubits, "gates": [[g.control, g.target] for g in c.gates]}
    )


def load_circuit(path: str | Path) -> Circuit:
    """Load a circuit file, dispatching on the .json extension."""
    path = Path(path)
    data = path.read_text(encoding="utf-8")
    name = path.stem
    try:
        if path.suffix.lower() == ".json":
            return parse_circuit_json(data, name=name)
        return parse_circuit(data, name=name)
    except CircuitParseError as exc:
        raise CircuitParseError(f"{path}: {exc}", exc.line) from None


def save_circuit(c: Circuit, path: str | Path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(serialize_circuit_json(c) + "\n", encoding="utf-8")
    else:
        path.write_text(serialize_circuit(c), encoding="utf-8")
