"""Circuit model, text/JSON formats, commutation rule."""

from __future__ import annotations

import random

import pytest

from gadgetminer.circuit import (
    Circuit,
    CircuitError,
    CircuitParseError,
    load_circuit,
    parse_circuit,
    parse_circuit_json,
    save_circuit,
    serialize_circuit,
    serialize_circuit_json,
)

import reference
from conftest import random_circuit


def test_gate_validation():
    """Each gate is a pair of distinct in-range integer qubits; the error
    names the offending gate's index."""
    for gate in ((2, 2), (-1, 2), (0, 3), (0,), (0, 1, 2), 5, (0, 1.0),
                 (True, 0), ("0", 1)):
        with pytest.raises(CircuitError, match="gate 1 "):
            Circuit(3, ((0, 1), gate))


def test_circuit_validation():
    Circuit(2, ((0, 1), (1, 0)))
    with pytest.raises(CircuitError):
        Circuit(2, ((0, 2),))  # target out of range
    for n_qubits in (0, 2.0, True, "2"):
        with pytest.raises(CircuitError):
            Circuit(n_qubits, ())


def test_from_pairs_layers():
    c = Circuit.from_pairs(3, [(0, 1), (1, 2), [2, 0]])
    assert c.gates == ((0, 1), (1, 2), (2, 0))
    assert c.cx_count == 3
    assert c.pairs() == [(0, 1), (1, 2), (2, 0)]
    assert c == Circuit(3, c.pairs())


def test_commutation_rule():
    # sharing only control-control or target-target qubits commutes
    assert reference.cnots_commute((0, 1), (0, 2))
    assert reference.cnots_commute((1, 0), (2, 0))
    assert reference.cnots_commute((0, 1), (2, 3))
    # control of one hitting target of the other does not
    assert not reference.cnots_commute((0, 1), (1, 2))
    assert not reference.cnots_commute((0, 1), (2, 0))
    assert not reference.cnots_commute((0, 1), (1, 0))


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
    ("# a comment\n", "missing 'qubits <N>' header"),
])
def test_parse_errors_carry_line(text, fragment):
    with pytest.raises(CircuitParseError) as exc_info:
        parse_circuit(text)
    assert fragment in str(exc_info.value)


@pytest.mark.parametrize("text,fragment", [
    ("qubits 1_2\n", "malformed qubit count at line 1"),
    ("qubits +2\n", "malformed qubit count at line 1"),
    ("qubits -0\n", "malformed qubit count at line 1"),
    ("qubits \u0663\n", "malformed qubit count at line 1"),
    ("qubits 12\ncx 1_0 2\n", "malformed qubit index at line 2"),
    ("qubits 3\ncx 0 +2\n", "malformed qubit index at line 2"),
    ("qubits 3\ncx -0 1\n", "malformed qubit index at line 2"),
    ("qubits 4\ncx \u0663 0\n", "malformed qubit index at line 2"),
], ids=["count-underscore", "count-plus", "count-minus", "count-arabic",
        "index-underscore", "index-plus", "index-minus", "index-arabic"])
def test_parse_accepts_ascii_decimals_only(text, fragment):
    with pytest.raises(CircuitParseError) as exc_info:
        parse_circuit(text)
    assert fragment in str(exc_info.value)


def test_control_equals_target_message():
    with pytest.raises(CircuitParseError) as exc_info:
        parse_circuit("qubits 3\ncx 1 1\n")
    msg = str(exc_info.value)
    assert "control equals target" in msg and "line 2" in msg


@pytest.mark.parametrize("text", [
    '{"qubits": 2.9, "gates": [[0, 1]]}',
    '{"qubits": true, "gates": []}',
    '{"qubits": "2", "gates": [[0, 1]]}',
    '{"qubits": 2, "gates": [[1.7, 0]]}',
    '{"qubits": 2, "gates": [[true, false]]}',
    '{"qubits": 2, "gates": [[1, "0"]]}',
    '{"qubits": 2, "gates": [1]}',
    '{"qubits": 2, "gates": [[0, 1, 0]]}',
    '[2]',
    '"c"',
    'null',
    '{"name": null, "qubits": 2, "gates": [[0, 1]]}',
    '{"name": ["x"], "qubits": 2, "gates": [[0, 1]]}',
    '{"name": 3, "qubits": 2, "gates": [[0, 1]]}',
], ids=["float-qubits", "bool-qubits", "string-qubits", "float-gate",
        "bool-gate", "string-gate", "int-gate", "triple-gate", "not-object",
        "string-not-object", "null-not-object", "null-name", "list-name",
        "int-name"])
def test_json_rejects_non_integers(text):
    """Only JSON integers are qubit counts and qubit indices, and only a
    JSON string is a name: nothing is coerced ("name": null is not
    "None")."""
    with pytest.raises(CircuitParseError):
        parse_circuit_json(text)


def test_json_name_is_a_string_or_the_stem(tmp_path):
    """An absent name falls back to the file stem; a name that is not a
    string is an error that names the file."""
    p = tmp_path / "stem.json"
    p.write_text('{"qubits": 2, "gates": [[0, 1]]}')
    assert load_circuit(p).name == "stem"
    assert parse_circuit_json('{"name": "", "qubits": 2, "gates": []}',
                              name="arg").name == ""
    p.write_text('{"name": null, "qubits": 2, "gates": [[0, 1]]}')
    with pytest.raises(CircuitParseError) as exc_info:
        load_circuit(p)
    assert str(exc_info.value) == f"{p}: name must be a string, got None"
    with pytest.raises(CircuitError):
        Circuit(2, (), name=None)


def test_json_file_that_is_not_json_names_the_file(tmp_path):
    p = tmp_path / "line.json"
    p.write_text("qubits 2\ncx 0 1\n")
    with pytest.raises(CircuitParseError) as exc_info:
        load_circuit(p)
    assert str(exc_info.value).startswith(f"{p}: invalid JSON: ")


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
