"""Certificates, the isomorphism oracle cross-check, class grouping."""

from __future__ import annotations

import json
import random
import time

import pytest

from gadgetminer import canon, kernels
from gadgetminer.canon import (
    CERT_VERSION,
    CSV_HEADER,
    CertificateShapeError,
    CertificateSizeError,
    certificate,
    certificate_digest,
    classes_to_csv,
    classes_to_json_obj,
    group_candidates,
    identify_gadgets,
)
from gadgetminer.catalog import FAMILIES, all_gadgets, build_gadget, plant
from gadgetminer.circuit import Circuit
from gadgetminer.graph import (
    CircuitGraph,
    GraphEdge,
    GraphNode,
    circuit_to_graph,
    gate_tuples,
    gates_graph,
)
from gadgetminer.mining import MinedCandidate, mine_circuit

import reference
from conftest import (
    brickwork_ring,
    ordered_graph_key,
    random_circuit,
    random_labeled_graph,
)


def test_certificate_header():
    g = circuit_to_graph(Circuit.from_pairs(2, [(0, 1), (1, 0)]))
    cert = certificate(g)
    assert cert.startswith(CERT_VERSION)
    assert cert[len(CERT_VERSION)] == 4  # node count byte


def test_certificate_invariant_under_relabeling():
    rng = random.Random(2024)
    for _ in range(40):
        c = random_circuit(rng, rng.randrange(2, 5), rng.randrange(2, 8))
        g = circuit_to_graph(c)
        assert certificate(reference.relabeled(g, rng)) == certificate(g)


def test_certificate_separates_directions():
    a = circuit_to_graph(Circuit.from_pairs(2, [(0, 1)]))
    b = circuit_to_graph(Circuit.from_pairs(2, [(1, 0)]))
    # control/target labels break the mirror symmetry ...
    assert certificate(a) == certificate(b)
    # ... so the single-gate graphs above are genuinely isomorphic
    assert reference.isomorphic(a, b)
    # an asymmetric composite is not
    c = circuit_to_graph(Circuit.from_pairs(3, [(0, 1), (0, 2)]))
    d = circuit_to_graph(Circuit.from_pairs(3, [(0, 1), (2, 1)]))
    assert certificate(c) != certificate(d)
    assert not reference.isomorphic(c, d)


def test_certificate_matches_oracle_on_random_pairs():
    """Certificate equality must coincide with brute-force isomorphism, on
    random pairs and on a c/t pair whose cnot self-loop is on the control
    in one graph and on the target in the other."""
    rng = random.Random(77)
    pairs = []
    for trial in range(300):
        n = rng.randrange(1, 7)
        a = random_labeled_graph(rng, n, 8)
        if trial % 2 == 0:
            b = reference.relabeled(a, rng)  # forced isomorphic
        else:
            b = random_labeled_graph(rng, n, 8)
        pairs.append((a, b))
    ct = [GraphNode(0, 0, 0, "c"), GraphNode(1, 1, 0, "t")]
    pairs.append((CircuitGraph(ct, [GraphEdge(0, 0, "cnot")]),
                  CircuitGraph(ct, [GraphEdge(1, 1, "cnot")])))
    for a, b in pairs:
        same_cert = certificate(a) == certificate(b)
        assert same_cert == reference.isomorphic(a, b)
    assert len(pairs) == 301


def test_certificate_size_bound():
    n = 70
    nodes = [GraphNode(i, 0, i, "c") for i in range(n)]
    edges = [GraphEdge(i, (i + 1) % n, "time") for i in range(n)]
    g = CircuitGraph(nodes, edges)
    with pytest.raises(CertificateSizeError):
        certificate(g)
    # the same ring at the largest size the bound allows
    ring = CircuitGraph(nodes[:64], [GraphEdge(i, (i + 1) % 64, "time")
                                     for i in range(64)])
    assert certificate(ring)


def test_certificate_rejects_two_edges_in_one_slot():
    nodes = [GraphNode(i, i, 0, "c") for i in range(3)]
    for edges in ([GraphEdge(0, 1, "cnot"), GraphEdge(0, 2, "cnot")],
                  [GraphEdge(0, 2, "time"), GraphEdge(1, 2, "time")]):
        with pytest.raises(CertificateShapeError):
            certificate(CircuitGraph(nodes, edges))


def test_certificate_of_symmetric_ring_is_fast():
    """Two rounds of a 16-qubit brickwork ring (even bonds, then odd
    bonds) have 64 nodes and many automorphisms; the certificate and that
    of a scrambled copy agree and take well under a second."""
    ring = circuit_to_graph(brickwork_ring(16))
    assert len(ring) == 64
    scrambled = reference.relabeled(ring, random.Random(16))
    started = time.monotonic()
    assert certificate(ring) == certificate(scrambled)
    assert time.monotonic() - started < 1.0


def test_certificate_matches_oracle_on_mined_candidates():
    """Certificate equality agrees with the oracle on every pair of
    candidates mined from planted hosts at C_g 3 and 4."""
    rng = random.Random(34)
    hosts = []
    for i in range(3):
        host = Circuit(5, (), name=f"host{i}")
        for _ in range(6):
            spec = build_gadget(rng.choice(FAMILIES), rng.choice((1, 2)))
            qubits = rng.sample(range(5), spec.qubits_touched)
            host = plant(host, spec, qubits, host.cx_count)
        hosts.append(host)
    cands = [cand for c_g in (3, 4) for host in hosts
             for cand in mine_circuit(host, c_g).candidates]
    graphs = [cand.graph for cand in cands]
    certs = [certificate(g) for g in graphs]
    assert len(graphs) == 28 and len(set(certs)) == 9
    assert [certificate(cand.gates) for cand in cands] == certs
    for i, a in enumerate(graphs):
        for j in range(i):
            assert (certs[i] == certs[j]) == reference.isomorphic(
                a, graphs[j])


def test_certificate_cache_is_exact():
    """The cached certificate equals the uncached computation on a key
    built here, cold and warm, for catalog gadgets, random graphs and
    their relabelings."""
    rng = random.Random(4242)
    graphs = [circuit_to_graph(spec.as_circuit()) for spec in all_gadgets()]
    for _ in range(150):
        g = random_labeled_graph(rng, rng.randrange(1, 7), 8)
        graphs += [g, reference.relabeled(g, rng),
                   reference.relabeled(g, rng)]
    uncached = [canon._certificate(*ordered_graph_key(g)) for g in graphs]
    cache: dict = {}
    cold = [certificate(g, cache) for g in graphs]
    assert len(cache) < len(graphs)
    warm = [certificate(g, cache) for g in graphs]
    assert cold == uncached
    assert warm == uncached
    assert [certificate(g) for g in graphs] == uncached


def test_each_grouping_has_its_own_certificate_cache(monkeypatch):
    """Two groupings in a row each search every distinct ordered graph
    once: no certificate outlives the grouping that computed it."""
    candidates = mine_circuit(brickwork_ring(8), 8).candidates
    distinct = {ordered_graph_key(c.graph) for c in candidates}
    searched = []
    search = kernels.canonical_encoding
    monkeypatch.setattr(kernels, "canonical_encoding",
                        lambda *a: searched.append(a) or search(*a))
    first = group_candidates(candidates)
    assert len(searched) == len(distinct) < len(candidates)
    second = group_candidates(candidates)
    assert len(searched) == 2 * len(distinct)
    assert [cls.certificate for cls in first] == \
        [cls.certificate for cls in second]


def test_gate_list_certificate_matches_its_graph():
    """A gate list is certified from the slot table its graph has, so the
    certificate is the graph's, byte for byte."""
    rng = random.Random(17)
    circuits = [spec.as_circuit() for spec in all_gadgets()]
    circuits += [random_circuit(rng, rng.randrange(2, 7), rng.randrange(1, 20))
                 for _ in range(60)]
    for c in circuits:
        gates = gate_tuples(c)
        for chosen in (gates, gates[::2], gates[1::3]):
            assert certificate(chosen) == certificate(
                gates_graph(c.name, chosen))


def test_certificate_digest_prefixes_differ():
    a = certificate(circuit_to_graph(Circuit.from_pairs(2, [(0, 1), (1, 0)])))
    b = certificate(circuit_to_graph(
        Circuit.from_pairs(3, [(0, 1), (1, 2), (2, 0)])))
    # raw headers collide on the first bytes; digests must not
    assert certificate_digest(a)[:12] != certificate_digest(b)[:12]
    assert len(certificate_digest(a)) == 64


def test_group_candidates_reference(ref_circuit):
    res = mine_circuit(ref_circuit, 2)
    classes = group_candidates(res.candidates)
    assert len(classes) == 1
    cls = classes[0]
    assert cls.n_r == 3
    assert cls.c_g == 2
    assert cls.n_qubits_touched == 2
    assert cls.representative is res.candidates[0]
    assert [occ.layers for occ in cls.occurrences] == [(0, 1), (2, 3), (4, 5)]


def test_group_candidates_sorting_and_cutoff():
    # host: three copies of a 2-cycle pair and two of a 3-cycle triple
    pairs = [(0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0),
             (2, 3), (3, 4), (4, 2), (2, 3), (3, 4), (4, 2)]
    c = Circuit.from_pairs(5, pairs, name="mix")
    res = mine_circuit(c, 2)
    classes = group_candidates(res.candidates)
    assert classes[0].n_r >= classes[-1].n_r
    kept = identify_gadgets(classes, n_c=1)
    assert all(cls.n_r > 1 for cls in kept)
    singles = identify_gadgets(classes, n_c=max(cls.n_r for cls in classes))
    assert singles == []
    with pytest.raises(ValueError):
        identify_gadgets(classes, n_c=0)


def test_group_candidates_size_error_carries_provenance():
    # 33 gates have 66 nodes, two above the bound
    cand = MinedCandidate("bighost",
                          tuple((i, i % 2, 1 - i % 2) for i in range(33)))
    with pytest.raises(CertificateSizeError) as exc_info:
        group_candidates([cand])
    msg = str(exc_info.value)
    assert "66 nodes" in msg
    assert "bighost" in msg and "[0, 1, 2," in msg


def test_json_and_csv_output(ref_circuit):
    classes = group_candidates(mine_circuit(ref_circuit, 2).candidates)
    obj = classes_to_json_obj(classes)
    text = json.dumps(obj)  # must be JSON-serializable
    back = json.loads(text)
    assert back[0]["n_r"] == 3 and back[0]["c_g"] == 2
    assert bytes.fromhex(back[0]["certificate"]) == classes[0].certificate
    assert back[0]["occurrences"][0] == {"circuit": "ref3q6", "layers": [0, 1]}
    assert len(back[0]["representative_graph"]["nodes"]) == 4

    csv_text = classes_to_csv(classes)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    prefix = certificate_digest(classes[0].certificate)[:12]
    assert lines[1] == f"{prefix},2,3,2"
