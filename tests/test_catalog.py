"""Catalog gadget construction, naming, self-checks, planting."""

from __future__ import annotations

import random

import pytest

from gadgetminer.canon import certificate
from gadgetminer.catalog import (
    FAMILIES,
    GENERATIONS,
    CatalogError,
    all_gadgets,
    build_gadget,
    gadget_names,
    get_gadget,
    plant,
)
from gadgetminer.circuit import Circuit
from gadgetminer.graph import circuit_to_graph
from gadgetminer.mining import mine_circuit

from conftest import random_circuit

# pinned (family, generation) -> gate count; catalog changes must be loud
EXPECTED_CX = {
    ("DCX", 1): 2, ("DCX", 2): 8, ("DCX", 3): 12,
    ("PL", 1): 2, ("PL", 2): 4, ("PL", 3): 6,
    ("O", 1): 2, ("O", 2): 6, ("O", 3): 10,
}


def test_catalog_roster():
    assert gadget_names() == (
        "DCX2", "DCX4", "DCX6", "PL2", "PL4", "PL6", "O2", "O4", "O6")
    for spec in all_gadgets():
        assert spec.qubits_touched == 2 * spec.generation
        assert spec.cx_count == EXPECTED_CX[(spec.family, spec.generation)]
        circ = spec.as_circuit()
        assert circ.n_qubits == spec.qubits_touched
        assert set(q for g in circ.gates for q in (g.control, g.target)) == \
            set(range(spec.qubits_touched))


def test_generation_one_families_coincide():
    base = build_gadget("DCX", 1)
    for family in FAMILIES:
        assert build_gadget(family, 1).gates == base.gates


def test_get_gadget_parsing():
    assert get_gadget("PL4") is build_gadget("PL", 2)
    assert get_gadget("DCX6").cx_count == 12
    for bad in ("PL", "PL3", "PL0", "Q4", "pl4", "DCX-2"):
        with pytest.raises(CatalogError):
            get_gadget(bad)
    with pytest.raises(CatalogError):
        build_gadget("DCX", 0)
    with pytest.raises(CatalogError):
        build_gadget("XX", 1)


def test_self_check_keeps_exactly_one():
    """Mining a gadget's own circuit with its full gate set keeps exactly
    one candidate: every gadget is connected, closed, untainted and
    stationary."""
    for family in FAMILIES:
        for generation in range(1, 7):
            spec = build_gadget(family, generation)
            res = mine_circuit(spec.as_circuit(), spec.cx_count)
            assert len(res.candidates) == 1, spec.name


def test_certificates_distinguish_catalog():
    """Beyond the shared generation-1 gadget, every catalog entry is its
    own isomorphism class."""
    certs = {}
    for spec in all_gadgets():
        g = circuit_to_graph(spec.as_circuit())
        certs[spec.name] = certificate(g)
    assert certs["DCX2"] == certs["PL2"] == certs["O2"]
    distinct = {certs[n] for n in gadget_names() if n not in ("PL2", "O2")}
    assert len(distinct) == 7


def test_plant_splices_gates():
    host = Circuit.from_pairs(6, [(0, 1), (2, 3)], name="host")
    spec = build_gadget("PL", 2)
    planted = plant(host, spec, qubit_map=(5, 4, 3, 2), layer_offset=1)
    assert planted.cx_count == 2 + 4
    assert planted.name == "host"
    assert planted.pairs() == [
        (0, 1), (5, 4), (4, 3), (3, 2), (2, 5), (2, 3)]
    assert [g.layer for g in planted.gates] == list(range(6))


def test_plant_offsets_and_errors():
    host = Circuit.from_pairs(4, [(0, 1)], name="h")
    spec = build_gadget("DCX", 1)
    first = plant(host, spec, (2, 3), 0)
    assert first.pairs()[:2] == [(2, 3), (3, 2)]
    last = plant(host, spec, (2, 3), host.cx_count)
    assert last.pairs()[-2:] == [(2, 3), (3, 2)]
    with pytest.raises(CatalogError):
        plant(host, spec, (2,), 0)  # wrong arity
    with pytest.raises(CatalogError):
        plant(host, spec, (2, 2), 0)  # collision
    with pytest.raises(CatalogError):
        plant(host, spec, (2, 9), 0)  # out of range
    with pytest.raises(CatalogError):
        plant(host, spec, (2, 3), 5)  # bad offset


def test_planted_gadget_is_recovered():
    """Planting into a disjoint-qubit host must leave the planted block as
    a mined candidate whose certificate matches the gadget's own."""
    rng = random.Random(12)
    for name in ("DCX4", "PL4", "O4"):
        spec = get_gadget(name)
        m = spec.qubits_touched
        host = random_circuit(rng, 3, 6, name="bed")
        wide = Circuit(host.n_qubits + m, host.gates, name=host.name)
        qubit_map = tuple(range(3, 3 + m))
        offset = rng.randrange(wide.cx_count + 1)
        planted = plant(wide, spec, qubit_map, offset)
        res = mine_circuit(planted, spec.cx_count)
        want = certificate(circuit_to_graph(spec.as_circuit()))
        hits = [cand for cand in res.candidates
                if certificate(cand.graph) == want]
        assert len(hits) == 1
        assert hits[0].layers == tuple(range(offset, offset + spec.cx_count))
