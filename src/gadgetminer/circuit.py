"""CNOT-circuit intermediate representation.

A circuit is its qubit count and its ordered (control, target) pairs, one
gate per temporal layer: a gate's layer is its index.  Two serializations
are supported and round-trip exactly:

* line format::

      # comment
      qubits 3
      cx 0 1
      cx 1 2

* JSON: ``{"name": str, "qubits": int, "gates": [[control, target], ...]}``

The IR has no single-qubit gates.  The only one the program models is the
H that prepares a |+> ancilla, and encoder_tableau folds it into the
tableau's initial rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


class CircuitError(ValueError):
    """Invalid circuit structure (bad qubit count or gate)."""


class CircuitParseError(CircuitError):
    """Malformed circuit file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Circuit:
    """An ordered CNOT circuit: gates[i] is the (control, target) pair at
    layer i, with 0-based qubit indices."""

    n_qubits: int
    gates: tuple[tuple[int, int], ...]
    name: str = ""

    def __post_init__(self):
        n = self.n_qubits
        # type() rather than isinstance(): True and False are not qubits
        if type(n) is not int or n < 1:
            raise CircuitError(
                f"n_qubits must be a positive integer, got {n!r}")
        if not isinstance(self.name, str):
            raise CircuitError(f"name must be a string, got {self.name!r}")
        gates = []
        for i, gate in enumerate(self.gates):
            try:
                c, t = gate
                ok = (type(c) is int and type(t) is int and c != t
                      and 0 <= c < n and 0 <= t < n)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise CircuitError(f"gate {i} is not a pair of distinct "
                                   f"integer qubits below {n}: {gate!r}")
            gates.append((c, t))
        object.__setattr__(self, "gates", tuple(gates))

    @classmethod
    def from_pairs(
        cls, n_qubits: int, pairs: list[tuple[int, int]] | tuple, name: str = ""
    ) -> Circuit:
        """Build a circuit from (control, target) pairs."""
        return cls(n_qubits=n_qubits, gates=pairs, name=name)

    @property
    def cx_count(self) -> int:
        return len(self.gates)

    def pairs(self) -> list[tuple[int, int]]:
        return list(self.gates)


def parse_decimal(field: str) -> int:
    """An ASCII decimal field as an int.  int() alone would also take
    underscores, a sign and non-ASCII digits."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"not an ASCII decimal: {field!r}")
    return int(field)


def parse_circuit(text: str | bytes, name: str = "") -> Circuit:
    """Parse the line format: the i-th gate line is gate i.

    Raises CircuitParseError with the 1-based line number on malformed lines,
    out-of-range qubit indices, or control == target.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n_qubits = None
    pairs: list[tuple[int, int]] = []
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
                n_qubits = parse_decimal(fields[1])
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
            c, t = parse_decimal(fields[1]), parse_decimal(fields[2])
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
        pairs.append((c, t))
    if n_qubits is None:
        raise CircuitParseError("missing 'qubits <N>' header", None)
    return Circuit(n_qubits, pairs, name=name)


def serialize_circuit(c: Circuit) -> str:
    """Line-format serialization; parse_circuit inverts it (name aside,
    which the line format does not carry)."""
    lines = [f"qubits {c.n_qubits}"]
    lines.extend(f"cx {control} {target}" for control, target in c.gates)
    return "\n".join(lines) + "\n"


def parse_circuit_json(text: str | bytes, name: str = "") -> Circuit:
    """Parse the JSON form; an embedded "name" wins over the argument.
    Circuit rejects a name that is not a JSON string and a qubit count or
    index that is not a JSON integer."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitParseError(f"invalid JSON: {exc}", exc.lineno) from None
    try:
        return Circuit(obj["qubits"], obj["gates"],
                       name=obj.get("name", name))
    except (KeyError, TypeError) as exc:
        raise CircuitParseError(f"bad circuit JSON structure: {exc!r}") from None
    except CircuitError as exc:
        raise CircuitParseError(str(exc)) from None


def serialize_circuit_json(c: Circuit) -> str:
    return json.dumps(
        {"name": c.name, "qubits": c.n_qubits, "gates": c.gates}
    )


def load_circuit(path: str | Path) -> Circuit:
    """Load a UTF-8 circuit file, dispatching on the .json extension.  A
    file that does not decode or parse raises CircuitParseError with the
    path prefixed: this is the one place a read error gets its file name
    (an OSError names the file itself)."""
    path = Path(path)
    parse = (parse_circuit_json if path.suffix.lower() == ".json"
             else parse_circuit)
    try:
        return parse(path.read_text(encoding="utf-8"), name=path.stem)
    except UnicodeDecodeError as exc:
        raise CircuitParseError(f"{path}: {exc}") from None
    except CircuitParseError as exc:
        raise CircuitParseError(f"{path}: {exc}", exc.line) from None


def save_circuit(c: Circuit, path: str | Path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(serialize_circuit_json(c) + "\n", encoding="utf-8")
    else:
        path.write_text(serialize_circuit(c), encoding="utf-8")
