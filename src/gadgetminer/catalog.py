"""Reference catalog of composite CNOT gadgets.

Three families, each parametrized by generation g >= 1 and acting on
m = 2g qubits arranged in a ring:

  DCX: m back-to-back CNOT pairs on consecutive ring qubits, orientation
       alternating around the ring (generation 1 is the single pair);
  PL:  one CNOT per ring edge, all pointing the same way around;
  O:   a forward CNOT ladder followed by its mirrored return ladder.

Generation 1 of every family degenerates to the same 2-qubit pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .circuit import Circuit

FAMILIES = ("DCX", "PL", "O")
GENERATIONS = (1, 2, 3)


class CatalogError(ValueError):
    """Raised for unknown gadgets or invalid planting arguments."""


@dataclass(frozen=True)
class GadgetSpec:
    family: str
    generation: int
    name: str
    qubits_touched: int
    gates: tuple[tuple[int, int], ...]

    @property
    def cx_count(self) -> int:
        return len(self.gates)

    def as_circuit(self) -> Circuit:
        return Circuit.from_pairs(self.qubits_touched, self.gates,
                                  name=self.name)


def _family_gates(family: str, generation: int) -> tuple[tuple[int, int], ...]:
    m = 2 * generation
    if family == "DCX":
        if generation == 1:
            return ((0, 1), (1, 0))
        gates = []
        for i in range(m):
            j = (i + 1) % m
            if i % 2 == 0:
                gates.extend([(i, j), (j, i)])
            else:
                gates.extend([(j, i), (i, j)])
        return tuple(gates)
    if family == "PL":
        return tuple((i, (i + 1) % m) for i in range(m))
    if family == "O":
        forward = [(i, i + 1) for i in range(m - 1)]
        back = [(i + 1, i) for i in range(m - 2, -1, -1)]
        return tuple(forward + back)
    raise CatalogError(f"unknown family {family!r}")


@cache
def build_gadget(family: str, generation: int) -> GadgetSpec:
    """Construct one catalog gadget; repeated calls return the same spec."""
    gates = _family_gates(family, generation)  # rejects an unknown family
    if generation < 1:
        raise CatalogError(f"generation {generation} must be >= 1")
    return GadgetSpec(
        family=family,
        generation=generation,
        name=f"{family}{2 * generation}",
        qubits_touched=2 * generation,
        gates=gates,
    )


def all_gadgets() -> tuple[GadgetSpec, ...]:
    return tuple(build_gadget(f, g) for f in FAMILIES for g in GENERATIONS)


def plant(host: Circuit, spec: GadgetSpec, qubit_map,
          layer_offset: int) -> Circuit:
    """Insert the gadget's gates into the host's gate sequence.

    qubit_map[i] is the host qubit playing the gadget's local qubit i;
    layer_offset is the gate position the block is spliced in at (0 puts
    it first, host.cx_count appends), and the host's later gates move up
    by the gadget's gate count."""
    qubit_map = tuple(qubit_map)
    if len(qubit_map) != spec.qubits_touched:
        raise CatalogError(
            f"qubit map has {len(qubit_map)} entries, "
            f"gadget touches {spec.qubits_touched}")
    if len(set(qubit_map)) != len(qubit_map):
        raise CatalogError("qubit map collision")
    for q in qubit_map:
        if not 0 <= q < host.n_qubits:
            raise CatalogError(
                f"qubit map entry {q} outside host with {host.n_qubits} qubits")
    if not 0 <= layer_offset <= host.cx_count:
        raise CatalogError(
            f"layer offset {layer_offset} outside 0..{host.cx_count}")
    mapped = [(qubit_map[c], qubit_map[t]) for c, t in spec.gates]
    pairs = host.pairs()
    pairs[layer_offset:layer_offset] = mapped
    return Circuit.from_pairs(host.n_qubits, pairs, name=host.name)
