"""Certificates, the isomorphism oracle cross-check, class grouping."""

from __future__ import annotations

import json
import random
import time

import pytest

from gadgetminer import canon
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
)
from gadgetminer.mining import mine_circuit

from conftest import (
    graph_isomorphic_oracle,
    ordered_graph_key,
    random_circuit,
    random_labeled_graph,
)


def relabeled(graph: CircuitGraph, rng: random.Random) -> CircuitGraph:
    """Isomorphic copy under a random id permutation (qubit/layer metadata
    is scrambled too; certificates must not depend on either)."""
    ids = [nd.id for nd in graph.nodes]
    new_ids = list(range(100, 100 + len(ids)))
    rng.shuffle(new_ids)
    remap = dict(zip(ids, new_ids))
    nodes = [GraphNode(remap[nd.id], rng.randrange(50), rng.randrange(50),
                       nd.label) for nd in graph.nodes]
    edges = [GraphEdge(remap[e.src], remap[e.dst], e.kind)
             for e in graph.edges]
    return CircuitGraph(nodes, edges)


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
        assert certificate(relabeled(g, rng)) == certificate(g)


def test_certificate_separates_directions():
    a = circuit_to_graph(Circuit.from_pairs(2, [(0, 1)]))
    b = circuit_to_graph(Circuit.from_pairs(2, [(1, 0)]))
    # control/target labels break the mirror symmetry ...
    assert certificate(a) == certificate(b)
    # ... so the single-gate graphs above are genuinely isomorphic
    assert graph_isomorphic_oracle(a, b)
    # an asymmetric composite is not
    c = circuit_to_graph(Circuit.from_pairs(3, [(0, 1), (0, 2)]))
    d = circuit_to_graph(Circuit.from_pairs(3, [(0, 1), (2, 1)]))
    assert certificate(c) != certificate(d)
    assert not graph_isomorphic_oracle(c, d)


def test_certificate_matches_oracle_on_random_pairs():
    """Certificate equality must coincide with brute-force isomorphism."""
    rng = random.Random(77)
    agree = 0
    for trial in range(300):
        n = rng.randrange(1, 7)
        a = random_labeled_graph(rng, n, 8)
        if trial % 2 == 0:
            b = relabeled(a, rng)  # forced isomorphic
        else:
            b = random_labeled_graph(rng, n, 8)
        same_cert = certificate(a) == certificate(b)
        assert same_cert == graph_isomorphic_oracle(a, b)
        agree += 1
    assert agree == 300


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
    bonds = [(q, (q + 1) % 16) for q in range(16)]
    ring = circuit_to_graph(
        Circuit.from_pairs(16, (bonds[0::2] + bonds[1::2]) * 2))
    assert len(ring) == 64
    scrambled = relabeled(ring, random.Random(16))
    canon._certificate.cache_clear()
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
    graphs = [cand.graph for c_g in (3, 4) for host in hosts
              for cand in mine_circuit(host, c_g).candidates]
    certs = [certificate(g) for g in graphs]
    assert len(graphs) == 28 and len(set(certs)) == 9
    for i, a in enumerate(graphs):
        for j in range(i):
            assert (certs[i] == certs[j]) == graph_isomorphic_oracle(
                a, graphs[j])


def test_certificate_cache_is_exact():
    """The cached certificate equals the uncached computation on a key
    built here, cold and warm, for catalog gadgets, random graphs and
    their relabelings."""
    rng = random.Random(4242)
    graphs = [circuit_to_graph(spec.as_circuit()) for spec in all_gadgets()]
    for _ in range(150):
        g = random_labeled_graph(rng, rng.randrange(1, 7), 8)
        graphs += [g, relabeled(g, rng), relabeled(g, rng)]
    uncached = [canon._certificate.__wrapped__(*ordered_graph_key(g))
                for g in graphs]
    canon._certificate.cache_clear()
    cold = [certificate(g) for g in graphs]
    assert canon._certificate.cache_info().hits > 0
    warm = [certificate(g) for g in graphs]
    assert cold == uncached
    assert warm == uncached


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
    n = 66
    nodes = [GraphNode(i, 0, i, "c") for i in range(n)]
    edges = [GraphEdge(i, (i + 1) % n, "time") for i in range(n)]
    from gadgetminer.mining import SubgraphCandidate

    cand = SubgraphCandidate("bighost", (1, 2), CircuitGraph(nodes, edges),
                             False)
    with pytest.raises(CertificateSizeError) as exc_info:
        group_candidates([cand])
    msg = str(exc_info.value)
    assert "bighost" in msg and "[1, 2]" in msg


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
