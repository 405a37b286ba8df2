"""Acceptance gate: one test per release criterion, A1 through A8.

Each test states its criterion in the docstring and fails loudly when the
property or its runtime bound is violated.  The oracles are the
brute-force references of reference.py (exhaustive mining, backtracking
isomorphism search, recompute-from-scratch peeling, direct commutation
checks, a full Pauli scan for distance), written from scratch so they
share no shortcuts with the library.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time

import pytest

from gadgetminer.canon import certificate
from gadgetminer.catalog import all_gadgets, build_gadget, plant
from gadgetminer.circuit import Circuit, save_circuit
from gadgetminer.cli import main
from gadgetminer.graph import circuit_to_graph
from gadgetminer.mining import (
    extract_candidate,
    mine_circuit,
    ordered_cnot_edges,
    passes_closure_filter,
    passes_stationarity_filter,
)
from gadgetminer.kernels import canonical_rows, min_logical_weight
from gadgetminer.tableau import CliffordTableau, encoder_tableau

import reference
from conftest import (
    FIVE_QUBIT_ROWS,
    graph_from_json_dict,
    random_circuit,
    random_labeled_graph,
    symplectic_ok,
)

# the committed seed for the end-to-end discovery run (A7)
DISCOVERY_SEED = 7
DISCOVERY_N = 7
DISCOVERY_D = 3
DISCOVERY_ATTEMPTS = 200
DISCOVERY_COUNT = 20

PLANT_GADGETS = ("DCX2", "DCX4", "PL4", "PL6", "O4", "O6")
GADGETS = {spec.name: spec for spec in all_gadgets()}


# ---------------------------------------------------------------------------
# Planted corpus shared by A3 and A8
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_hosts():
    """For each catalog gadget under test: three distinct host circuits,
    each carrying one taint-free planting on dedicated qubits."""
    rng = random.Random(20260813)
    out: dict[str, list[Circuit]] = {}
    for name in PLANT_GADGETS:
        spec = GADGETS[name]
        m = spec.qubits_touched
        hosts = []
        for i in range(3):
            base = random_circuit(rng, 2 + i, 3 + i, name=f"{name.lower()}_h{i}")
            wide = Circuit(base.n_qubits + m, base.gates, name=base.name)
            qubit_map = tuple(range(base.n_qubits, base.n_qubits + m))
            offset = rng.randrange(wide.cx_count + 1)
            hosts.append(plant(wide, spec, qubit_map, offset))
        assert len({tuple(h.pairs()) for h in hosts}) == 3
        out[name] = hosts
    return out


# ---------------------------------------------------------------------------
# A1 .. A8
# ---------------------------------------------------------------------------


def test_a1_catalog_gate_counts():
    """A1: DCX4 has exactly 8 CNOTs, PL4 exactly 4, DCX2 exactly 2."""
    assert build_gadget("DCX", 2).cx_count == 8
    assert build_gadget("PL", 2).cx_count == 4
    assert build_gadget("DCX", 1).cx_count == 2


def test_a2_enumeration_completeness():
    """A2: the search space is exactly binomial(C_T, C_g) subsets of the
    layer-ordered cnot edges for every C_g <= C_T over 20 random
    circuits, and mining reports that size, in under 10 seconds."""
    started = time.monotonic()
    rng = random.Random(2)
    for trial in range(20):
        n_gates = rng.randrange(1, 13)
        circuit = random_circuit(rng, rng.randrange(2, 7), n_gates,
                                 name=f"e{trial}")
        edges = ordered_cnot_edges(circuit_to_graph(circuit))
        for c_g in range(1, n_gates + 1):
            count = sum(1 for _ in itertools.combinations(edges, c_g))
            assert count == math.comb(n_gates, c_g), (trial, c_g)
            assert mine_circuit(circuit, c_g).subsets_total == count, (
                trial, c_g)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"enumeration took {elapsed:.1f}s"


def test_a3_planted_gadget_recovery(planted_hosts, tmp_path):
    """A3: each planted gadget is recovered as exactly one certificate-equal
    class with N_r >= 3, and the report's class list matches a brute-force
    oracle exactly (no false classes), in under 60 seconds."""
    started = time.monotonic()
    for name in PLANT_GADGETS:
        spec = GADGETS[name]
        hosts = planted_hosts[name]
        c_g = spec.cx_count
        host_dir = tmp_path / f"hosts_{name}"
        host_dir.mkdir()
        for h in hosts:
            save_circuit(h, host_dir / f"{h.name}.txt")
        out_dir = tmp_path / f"out_{name}"
        rc = main(["mine", "--input", str(host_dir),
                   "--gadget-cnots", str(c_g), "--min-repeats", "2",
                   "--output", str(out_dir)])
        assert rc == 0, name
        report = json.loads((out_dir / "report.json").read_text())

        # brute-force oracle over the same three hosts, cutoff N_r > 2
        oracle_kept = [reference.candidate_graph(h, chosen) for h in hosts
                       for chosen in reference.mine(h, c_g)]
        oracle_classes = [(rep, count)
                          for rep, count in reference.classes(oracle_kept)
                          if count > 2]

        assert len(report) == len(oracle_classes), name
        matched = set()
        for cls in report:
            rep = graph_from_json_dict(cls["representative_graph"])
            hits = [i for i, (orep, ocount) in enumerate(oracle_classes)
                    if i not in matched
                    and reference.isomorphic(rep, orep)
                    and cls["n_r"] == ocount]
            assert hits, f"{name}: unmatched mined class"
            matched.add(hits[0])
        assert len(matched) == len(oracle_classes), name

        want = certificate(circuit_to_graph(spec.as_circuit())).hex()
        cert_hits = [cls for cls in report if cls["certificate"] == want]
        assert len(cert_hits) == 1, f"{name}: planted class not unique"
        assert cert_hits[0]["n_r"] >= 3, name
        assert cert_hits[0]["c_g"] == c_g, name
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"planted recovery took {elapsed:.1f}s"


def test_a4_certificate_matches_permutation_oracle():
    """A4: certificate equality agrees with the backtracking isomorphism
    search of reference.isomorphic on 1000 graph pairs (<= 8 nodes, half
    forced isomorphic by reference.relabeled), 0 mismatches, < 30 s."""
    started = time.monotonic()
    rng = random.Random(44)
    mismatches = 0
    checked = 0
    for trial in range(1000):
        n = rng.randrange(1, 9)
        a = random_labeled_graph(rng, n, 6)
        if trial % 2 == 0:
            b = reference.relabeled(a, rng)
        else:
            b = random_labeled_graph(rng, n, 6)
        same_cert = certificate(a) == certificate(b)
        truth = reference.isomorphic(a, b)
        if trial % 2 == 0:
            assert truth, "construction must yield isomorphic pairs"
        if same_cert != truth:
            mismatches += 1
        checked += 1
    assert checked == 1000
    assert mismatches == 0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def test_a5_filter_soundness_fuzz():
    """A5: of 10^4 randomly drawn candidates, mine_circuit keeps exactly
    those that reference.keeps finds connected, closed, untainted and
    stationary, and so do extract_candidate and the passes_* filters;
    0 disagreements in either direction."""
    rng = random.Random(55)
    total = 0
    kept = 0
    disagreements = 0
    while total < 10_000:
        circuit = random_circuit(rng, rng.randrange(2, 5),
                                 rng.randrange(2, 10), name=f"f{total}")
        graph = circuit_to_graph(circuit)
        edges = ordered_cnot_edges(graph)
        mined: dict[int, set] = {}
        for _ in range(min(40, 10_000 - total)):
            c_g = rng.randrange(1, min(5, len(edges)) + 1)
            chosen = tuple(sorted(rng.sample(range(len(edges)), c_g)))
            subset = tuple(edges[i] for i in chosen)
            cand = extract_candidate(graph, subset)
            total += 1
            if c_g not in mined:
                mined[c_g] = {x.layers for x in
                              mine_circuit(circuit, c_g).candidates}
            want = reference.keeps(circuit, chosen)
            filters = (not cand.tainted and passes_closure_filter(cand)
                       and passes_stationarity_filter(cand))
            kept += want
            disagreements += (chosen in mined[c_g]) != want
            disagreements += filters != want
    assert total == 10_000
    assert kept > 100, "fuzz corpus kept too few candidates to be meaningful"
    assert disagreements == 0


def test_a6_tableau_correctness():
    """A6: commuting-swap variants share one canonical tableau (100 pairs,
    0 misses); the five-qubit code's distance, by the kernel gen calls, is
    3 and matches the Pauli oracle; the symplectic invariant survives 10^4
    random CNOTs."""
    rng = random.Random(66)
    misses = 0
    built = 0
    while built < 100:
        n = rng.randrange(3, 7)
        prefix = random_circuit(rng, n, rng.randrange(0, 6)).pairs()
        # a commuting pair: shared control, shared target, or disjoint
        qubits = rng.sample(range(n), min(n, 4))
        style = rng.randrange(3)
        if style == 0 and len(qubits) >= 3:
            g1, g2 = (qubits[0], qubits[1]), (qubits[0], qubits[2])
        elif style == 1 and len(qubits) >= 3:
            g1, g2 = (qubits[0], qubits[2]), (qubits[1], qubits[2])
        elif len(qubits) >= 4:
            g1, g2 = (qubits[0], qubits[1]), (qubits[2], qubits[3])
        else:
            continue
        assert reference.cnots_commute(g1, g2)
        suffix = random_circuit(rng, n, rng.randrange(0, 6)).pairs()
        v1 = Circuit.from_pairs(n, prefix + [g1, g2] + suffix)
        v2 = Circuit.from_pairs(n, prefix + [g2, g1] + suffix)
        t1 = encoder_tableau(v1)
        t2 = encoder_tableau(v2)
        if t1.digest() != t2.digest():
            misses += 1
        elif canonical_rows(t1.rows[n:]) != canonical_rows(t2.rows[n:]):
            misses += 1
        built += 1
    assert built == 100 and misses == 0

    assert min_logical_weight(list(FIVE_QUBIT_ROWS), 5, 5) == 3
    assert reference.distance(FIVE_QUBIT_ROWS, 5) == 3

    t = CliffordTableau(8)
    for step in range(10_000):
        a = rng.randrange(8)
        b = (a + rng.randrange(1, 8)) % 8
        t.cnot(a, b)
        if step % 500 == 0:
            assert symplectic_ok(t), f"symplectic broken at step {step}"
    assert symplectic_ok(t)


def test_a7_end_to_end_discovery(tmp_path):
    """A7: the committed seed yields >= 20 deduplicated distance-3 encoders,
    mining them at C_g=2 reports a repeated class, the corpus is
    deterministic, all in under 5 minutes single-threaded."""
    started = time.monotonic()
    gen_args = ["gen", "--n", str(DISCOVERY_N), "--k", "1",
                "--d", str(DISCOVERY_D), "--seed", str(DISCOVERY_SEED),
                "--attempts", str(DISCOVERY_ATTEMPTS),
                "--count", str(DISCOVERY_COUNT), "--method", "hillclimb"]
    corpus_a = tmp_path / "corpus_a"
    corpus_b = tmp_path / "corpus_b"
    assert main(gen_args + ["--output", str(corpus_a)]) == 0
    assert main(gen_args + ["--output", str(corpus_b)]) == 0

    manifest = json.loads((corpus_a / "manifest.json").read_text())
    entries = manifest["entries"]
    assert len(entries) >= 20
    digests = {e["digest"] for e in entries}
    assert len(digests) == len(entries)  # deduplicated
    for e in entries:
        assert e["n"] == DISCOVERY_N and e["k"] == 1
        assert e["distance"] == DISCOVERY_D

    # byte-identical regeneration: deterministic for the committed seed
    assert (corpus_a / "manifest.json").read_bytes() == \
        (corpus_b / "manifest.json").read_bytes()
    for e in entries:
        assert (corpus_a / e["file"]).read_bytes() == \
            (corpus_b / e["file"]).read_bytes()

    mined = tmp_path / "mined"
    rc = main(["mine", "--input", str(corpus_a), "--gadget-cnots", "2",
               "--jobs", "1", "--output", str(mined)])
    assert rc == 0
    report = json.loads((mined / "report.json").read_text())
    assert any(cls["n_r"] > 1 for cls in report)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"discovery took {elapsed:.1f}s"


def test_a8_parallel_reports_byte_identical(planted_hosts, tmp_path):
    """A8: mining the planted corpus with --jobs 1 and --jobs 8 produces
    byte-identical reports."""
    corpus_dir = tmp_path / "planted"
    corpus_dir.mkdir()
    for hosts in planted_hosts.values():
        for h in hosts:
            save_circuit(h, corpus_dir / f"{h.name}.txt")
    outs = {}
    for jobs in (1, 8):
        out_dir = tmp_path / f"jobs{jobs}"
        rc = main(["mine", "--input", str(corpus_dir), "--gadget-cnots", "2",
                   "--jobs", str(jobs), "--output", str(out_dir)])
        assert rc == 0
        outs[jobs] = out_dir
    for name in ("report.json", "summary.csv"):
        assert (outs[1] / name).read_bytes() == (outs[8] / name).read_bytes()
    report = json.loads((outs[1] / "report.json").read_text())
    assert report, "planted corpus must yield at least one repeated class"
