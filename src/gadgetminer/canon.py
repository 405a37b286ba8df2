"""Canonical certificates and isomorphism-class grouping.

Two candidate graphs are the same gadget exactly when their certificates
are equal.  The certificate is built in two stages: iterated color
refinement over the four directed relations (cnot out/in, time out/in)
partitions the nodes into order-invariant classes, then a backtracking
search over within-class orderings picks the lexicographically minimal
adjacency encoding.  The header pins the node count and per-position
labels, so equal certificates reconstruct identical ordered graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache

from . import kernels
from .graph import CircuitGraph, graph_to_json_dict
from .mining import SubgraphCandidate

CERT_VERSION = b"GM1"
MAX_CERT_NODES = 64
CSV_HEADER = "certificate_prefix,C_g,N_r,n_qubits_touched"
_LABEL_CODE = {"c": 0, "t": 1, "n": 2}


class CertificateSizeError(ValueError):
    """Raised when a graph exceeds the certificate node bound."""


def _refine_colors(n: int, init: list[int], rels) -> list[int]:
    """Iterated partition refinement: a node's new color ranks the tuple of
    its old color and the sorted neighbor-color multiset under each
    relation (rel[v] has bit u set when u is a neighbor of v).  Stops at
    the fixpoint; ranks are stable across isomorphic graphs because they
    depend only on structure."""
    colors = init
    while True:
        sigs = [
            (colors[v],)
            + tuple(tuple(sorted(colors[u] for u in range(n)
                                 if rel[v] >> u & 1)) for rel in rels)
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def certificate(graph: CircuitGraph, max_nodes: int = MAX_CERT_NODES) -> bytes:
    """Canonical byte string; equal certificates iff isomorphic graphs
    (matching labels and all edge kinds/directions)."""
    n = len(graph)
    if n > max_nodes:
        raise CertificateSizeError(
            f"graph has {n} nodes, certificate bound is {max_nodes}")
    nodes = graph.nodes
    index = {nd.id: i for i, nd in enumerate(nodes)}
    out_c = [0] * n
    out_t = [0] * n
    for e in graph.cnot_edges:
        out_c[index[e.src]] |= 1 << index[e.dst]
    for e in graph.time_edges:
        out_t[index[e.src]] |= 1 << index[e.dst]
    return _certificate(tuple(nd.label for nd in nodes), tuple(out_c),
                        tuple(out_t))


@cache
def _certificate(labels: tuple[str, ...], out_c: tuple[int, ...],
                 out_t: tuple[int, ...]) -> bytes:
    """The certificate of the graph whose node i has labels[i] and whose
    cnot/time edges out of node i are the bits of out_c[i]/out_t[i].
    Graphs have no duplicate edges, so these three tuples are the whole
    ordered labelled graph and the cache is exact; mined candidates
    mostly repeat a few shapes, so most calls are cache hits."""
    n = len(labels)
    in_c = [sum((out_c[a] >> b & 1) << a for a in range(n)) for b in range(n)]
    in_t = [sum((out_t[a] >> b & 1) << a for a in range(n)) for b in range(n)]
    label_rank = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    init = [label_rank[lab] for lab in labels]
    colors = _refine_colors(n, init, (out_c, in_c, out_t, in_t))
    by_color: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        by_color.setdefault(c, []).append(i)
    members = [by_color[c] for c in sorted(by_color)]
    body = kernels.canonical_encoding(members, out_c, in_c, out_t, in_t)
    header = bytearray(CERT_VERSION)
    header.append(n)
    header.extend(_LABEL_CODE[labels[u]] for cls in members for u in cls)
    return bytes(header) + body


def certificate_digest(cert: bytes) -> str:
    """Hex digest of a certificate.  Raw certificates share a long common
    header (version, size, labels), so short display prefixes come from
    the digest, which differs in its first characters."""
    return hashlib.sha256(cert).hexdigest()


@dataclass
class GadgetClass:
    """All mined occurrences of one isomorphism class."""

    certificate: bytes
    representative: SubgraphCandidate
    occurrences: list[SubgraphCandidate]

    @property
    def n_r(self) -> int:
        return len(self.occurrences)

    @property
    def c_g(self) -> int:
        return len(self.representative.graph.cnot_edges)

    @property
    def n_qubits_touched(self) -> int:
        return len(self.representative.graph.qubits_touched)


def group_candidates(
    candidates, max_nodes: int = MAX_CERT_NODES
) -> list[GadgetClass]:
    """Group candidates by certificate.  The representative is the first
    occurrence in input order; classes are sorted by descending N_r with
    certificate bytes breaking ties, so the output is deterministic for a
    deterministic input order."""
    by_cert: dict[bytes, GadgetClass] = {}
    order: list[bytes] = []
    for cand in candidates:
        try:
            cert = certificate(cand.graph, max_nodes=max_nodes)
        except CertificateSizeError as exc:
            raise CertificateSizeError(
                f"{exc} (candidate from {cand.source_circuit!r} "
                f"layers {list(cand.layers)})") from exc
        cls = by_cert.get(cert)
        if cls is None:
            by_cert[cert] = GadgetClass(cert, cand, [cand])
            order.append(cert)
        else:
            cls.occurrences.append(cand)
    classes = [by_cert[c] for c in order]
    classes.sort(key=lambda cls: (-cls.n_r, cls.certificate))
    return classes


def identify_gadgets(classes, n_c: int = 1) -> list[GadgetClass]:
    """Keep classes repeated more often than the cutoff: N_r > n_c."""
    if n_c < 1:
        raise ValueError(f"repetition cutoff {n_c} must be >= 1")
    return [cls for cls in classes if cls.n_r > n_c]


def classes_to_json_obj(classes) -> list[dict]:
    return [
        {
            "certificate": cls.certificate.hex(),
            "n_r": cls.n_r,
            "c_g": cls.c_g,
            "representative_graph": graph_to_json_dict(
                cls.representative.graph),
            "occurrences": [
                {"circuit": occ.source_circuit, "layers": list(occ.layers)}
                for occ in cls.occurrences
            ],
        }
        for cls in classes
    ]


def classes_to_csv(classes) -> str:
    lines = [CSV_HEADER]
    for cls in classes:
        lines.append(
            f"{certificate_digest(cls.certificate)[:12]},{cls.c_g},{cls.n_r},"
            f"{cls.n_qubits_touched}")
    return "\n".join(lines) + "\n"
