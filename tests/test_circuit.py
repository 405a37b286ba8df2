"""Circuit model, text/JSON formats, commutation rule."""

from __future__ import annotations

import random

import pytest

from gadgetminer.circuit import (
    Circuit,
    CircuitError,
    CircuitParseError,
    CnotGate,
    load_circuit,
    parse_circuit,
    parse_circuit_json,
    save_circuit,
    serialize_circuit,
    serialize_circuit_json,
)

from conftest import cnots_commute, random_circuit


def test_gate_validation():
    CnotGate(0, 1, 0)
    with pytest.raises(CircuitError):
        CnotGate(2, 2, 0)
    with pytest.raises(CircuitError):
        CnotGate(-1, 2, 0)
    with pytest.raises(CircuitError):
        CnotGate(0, 1, -1)


def test_circuit_validation():
    Circuit(2, (CnotGate(0, 1, 0), CnotGate(1, 0, 1)))
    with pytest.raises(CircuitError):
        Circuit(2, (CnotGate(0, 1, 0), CnotGate(1, 0, 0)))  # layer collision
    with pytest.raises(CircuitError):
        Circuit(2, (CnotGate(0, 1, 1), CnotGate(1, 0, 0)))  # out of order
    with pytest.raises(CircuitError):
        Circuit(2, (CnotGate(0, 2, 0),))  # target out of range
    with pytest.raises(CircuitError):
        Circuit(0, ())


def test_from_pairs_layers():
    c = Circuit.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert [g.layer for g in c.gates] == [0, 1, 2]
    assert c.cx_count == 3
    assert c.pairs() == [(0, 1), (1, 2), (2, 0)]


def test_commutation_rule():
    # sharing only control-control or target-target qubits commutes
    assert cnots_commute(CnotGate(0, 1, 0), CnotGate(0, 2, 1))
    assert cnots_commute(CnotGate(1, 0, 0), CnotGate(2, 0, 1))
    assert cnots_commute(CnotGate(0, 1, 0), CnotGate(2, 3, 1))
    # control of one hitting target of the other does not
    assert not cnots_commute(CnotGate(0, 1, 0), CnotGate(1, 2, 1))
    assert not cnots_commute(CnotGate(0, 1, 0), CnotGate(2, 0, 1))
    assert not cnots_commute(CnotGate(0, 1, 0), CnotGate(1, 0, 1))


def test_parse_round_trip():
    text = "qubits 3\ncx 0 1\ncx 1 2\n"
    c = parse_circuit(text, name="t")
    assert c.n_qubits == 3
    assert c.pairs() == [(0, 1), (1, 2)]
    assert serialize_circuit(c) == text


def test_parse_comments_and_blanks():
    c = parse_circuit("# header\n\nqubits 2\n# mid\ncx 0 1\n\n")
    assert c.cx_count == 1


@pytest.mark.parametrize("text,fragment", [
    ("cx 0 1\n", "qubits"),
    ("qubits 2\ncx 0 0\n", "line 2"),
    ("qubits 2\ncx 0 5\n", "line 2"),
    ("qubits 2\nh 0\n", "line 2"),
    ("qubits 0\n", "qubit count"),
    ("qubits 2\nqubits 2\n", "line 2"),
    ("qubits 2\ncx 0\n", "line 2"),
])
def test_parse_errors_carry_line(text, fragment):
    with pytest.raises(CircuitParseError) as exc_info:
        parse_circuit(text)
    assert fragment in str(exc_info.value)


def test_control_equals_target_message():
    with pytest.raises(CircuitParseError) as exc_info:
        parse_circuit("qubits 3\ncx 1 1\n")
    msg = str(exc_info.value)
    assert "control equals target" in msg and "line 2" in msg


def test_json_round_trip():
    c = Circuit.from_pairs(4, [(0, 1), (2, 3), (1, 2)], name="j")
    s = serialize_circuit_json(c)
    back = parse_circuit_json(s)
    assert back == c
    assert back.name == "j"


def test_file_round_trip(tmp_path):
    c = Circuit.from_pairs(3, [(0, 1), (1, 2)], name="circ")
    for suffix in (".txt", ".json"):
        p = tmp_path / f"circ{suffix}"
        save_circuit(c, p)
        back = load_circuit(p)
        assert back.pairs() == c.pairs()
        assert back.n_qubits == c.n_qubits
        assert back.name == "circ"


def test_random_round_trips():
    rng = random.Random(20240813)
    for i in range(50):
        c = random_circuit(rng, rng.randrange(2, 9), rng.randrange(0, 20),
                           name=f"r{i}")
        assert parse_circuit(serialize_circuit(c), name=c.name) == c
        assert parse_circuit_json(serialize_circuit_json(c)) == c
