"""Canonical certificates and isomorphism-class grouping.

Two candidate graphs are the same gadget exactly when their certificates
are equal.  The certificate's domain is graphs with at most one edge per
(kind, direction) at each node, which every circuit conversion and mined
candidate satisfies: each node then has four slots (cnot out/in, time
out/in) holding at most one neighbour each, and kernels.canonical_encoding
walks them from every start node.  A certificate is CERT_VERSION, the
node count and that encoding, which determines the labelled graph up to
isomorphism.  A CircuitGraph and a gate list (through graph.gate_edges)
both reach the slot table as node labels and edges by position, so
grouping mined candidates builds no graph.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from time import monotonic

from . import kernels
from .graph import CircuitGraph, gate_edges, graph_to_json_dict
from .mining import DEADLINE_STRIDE, MinedCandidate

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


def certificate(graph, cache: dict | None = None) -> bytes:
    """Canonical byte string of a CircuitGraph, or of the graph
    (graph.gate_edges) of (index, control, target) gates in ascending
    index order; equal certificates iff isomorphic graphs (matching
    labels and all edge kinds/directions).  A node with two edges of one
    kind and direction raises CertificateShapeError.  A cache dict, if
    given, is read and filled by ordered labelled graph (labels and slot
    table), which is exact."""
    if isinstance(graph, CircuitGraph):
        labels = tuple(nd.label for nd in graph.nodes)
        pos = {nd.id: i for i, nd in enumerate(graph.nodes)}
        edges = [(pos[e.src], pos[e.dst], e.kind) for e in graph.edges]
    else:
        labels = ("c", "t") * len(graph)
        edges = gate_edges(graph)
    n = len(labels)
    if n > MAX_CERT_NODES:
        raise CertificateSizeError(
            f"graph has {n} nodes, certificate bound is {MAX_CERT_NODES}")
    # slots[4*i + k]: node i's neighbour in slot k (_SLOT_NAMES), or -1
    slots = [-1] * (4 * n)
    for src, dst, kind in edges:
        k = 0 if kind == "cnot" else 2
        out, into = 4 * src + k, 4 * dst + k + 1
        if slots[out] >= 0 or slots[into] >= 0:
            i = out if slots[out] >= 0 else into
            raise CertificateShapeError(
                f"node at position {i // 4} has two "
                f"{_SLOT_NAMES[i % 4]} edges")
        slots[out], slots[into] = dst, src
    cache = {} if cache is None else cache
    key = (labels, tuple(slots))
    if key not in cache:
        cache[key] = _certificate(*key)
    return cache[key]


def _certificate(labels: tuple[str, ...], slots: tuple[int, ...]) -> bytes:
    """The certificate of the graph whose node i has labels[i] and the
    slots slots[4*i:4*i + 4]: the canonical search and the header."""
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
    occurrences: list[MinedCandidate]

    @property
    def representative(self) -> MinedCandidate:
        """The first occurrence in input order."""
        return self.occurrences[0]

    @property
    def n_r(self) -> int:
        return len(self.occurrences)

    @property
    def c_g(self) -> int:
        return len(self.representative.gates)

    @property
    def n_qubits_touched(self) -> int:
        return len(self.representative.qubits_touched)


def group_candidates(candidates,
                     deadline: float = math.inf) -> list[GadgetClass]:
    """Group mined candidates by the certificate of their gates.  The
    representative is the first occurrence in input order; classes are
    sorted by descending N_r with certificate bytes breaking ties, so the
    output is deterministic for a deterministic input order.

    The clock is read after every DEADLINE_STRIDE candidates; once past
    the deadline (a time.monotonic value, math.inf for none), grouping
    stops, and the classes hold only a prefix of the candidates (a total
    N_r below len(candidates)).  Mined candidates mostly repeat a few
    shapes; a cache that lives for the call searches each once."""
    by_cert: dict[bytes, GadgetClass] = {}
    cache: dict = {}
    for i, cand in enumerate(candidates):
        if i and i % DEADLINE_STRIDE == 0 and monotonic() >= deadline:
            break
        try:
            cert = certificate(cand.gates, cache)
        except CertificateSizeError as exc:
            raise CertificateSizeError(
                f"{exc} (candidate from {cand.source_circuit!r} "
                f"layers {list(cand.layers)})") from exc
        if cert in by_cert:
            by_cert[cert].occurrences.append(cand)
        else:
            by_cert[cert] = GadgetClass(cert, [cand])
    classes = list(by_cert.values())
    classes.sort(key=lambda cls: (-cls.n_r, cls.certificate))
    return classes


def identify_gadgets(classes, n_c: int) -> list[GadgetClass]:
    """Keep classes repeated more often than the cutoff: N_r > n_c."""
    if n_c < 1:
        raise ValueError(f"repetition cutoff {n_c} must be >= 1")
    return [cls for cls in classes if cls.n_r > n_c]


def classes_to_json_obj(classes) -> list[dict]:
    """The report object; builds one graph per class, its
    representative's."""
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
