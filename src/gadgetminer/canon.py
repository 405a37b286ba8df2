"""Canonical certificates and isomorphism-class grouping.

Two candidate graphs are the same gadget exactly when their certificates
are equal.  The certificate's domain is graphs with at most one edge per
(kind, direction) at each node, which every circuit conversion and mined
candidate satisfies: each node then has four slots (cnot out/in, time
out/in) holding at most one neighbour each, and kernels.canonical_encoding
walks them from every start node.  A certificate is CERT_VERSION, the
node count and that encoding, which determines the labelled graph up to
isomorphism.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache

from . import kernels
from .graph import CircuitGraph, graph_to_json_dict
from .mining import SubgraphCandidate

CERT_VERSION = b"GM2"
# the node count and walk positions are stored one byte each
MAX_CERT_NODES = 64
CSV_HEADER = "certificate_prefix,C_g,N_r,n_qubits_touched"
_LABEL_CODE = {"c": 0, "t": 1}
_SLOT_NAMES = ("cnot-out", "cnot-in", "time-out", "time-in")


class CertificateSizeError(ValueError):
    """Raised when a graph exceeds the certificate node bound."""


class CertificateShapeError(ValueError):
    """Raised when a node has two edges of one kind and direction."""


def certificate(graph: CircuitGraph) -> bytes:
    """Canonical byte string; equal certificates iff isomorphic graphs
    (matching labels and all edge kinds/directions).  A node with two
    edges of one kind and direction raises CertificateShapeError."""
    n = len(graph)
    if n > MAX_CERT_NODES:
        raise CertificateSizeError(
            f"graph has {n} nodes, certificate bound is {MAX_CERT_NODES}")
    # slots[4*i + k]: node i's neighbour in slot k (_SLOT_NAMES), or -1
    slots = [-1] * (4 * n)
    first = {nd.id: 4 * i for i, nd in enumerate(graph.nodes)}
    for k, edges in ((0, graph.cnot_edges), (2, graph.time_edges)):
        for e in edges:
            out, into = first[e.src] + k, first[e.dst] + k + 1
            if slots[out] >= 0 or slots[into] >= 0:
                i = out if slots[out] >= 0 else into
                raise CertificateShapeError(
                    f"node at position {i // 4} has two "
                    f"{_SLOT_NAMES[i % 4]} edges")
            slots[out], slots[into] = into // 4, out // 4
    return _certificate(tuple(nd.label for nd in graph.nodes), tuple(slots))


@cache
def _certificate(labels: tuple[str, ...], slots: tuple[int, ...]) -> bytes:
    """The certificate of the graph whose node i has labels[i] and the
    slots slots[4*i:4*i + 4].  Labels and slots are the whole ordered
    labelled graph, so the cache is exact; mined candidates mostly repeat
    a few shapes, so most calls are cache hits."""
    body = kernels.canonical_encoding([_LABEL_CODE[lab] for lab in labels],
                                      slots)
    return CERT_VERSION + bytes([len(labels)]) + body


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


def group_candidates(candidates) -> list[GadgetClass]:
    """Group candidates by certificate.  The representative is the first
    occurrence in input order; classes are sorted by descending N_r with
    certificate bytes breaking ties, so the output is deterministic for a
    deterministic input order."""
    by_cert: dict[bytes, GadgetClass] = {}
    order: list[bytes] = []
    for cand in candidates:
        try:
            cert = certificate(cand.graph)
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
