"""Checks on the program's outputs that hold for every seed.

Nothing here compares against digests pinned for one seed.  A check
returns nothing when the output is right and raises ``OutputError`` (or
whatever parsing the damaged output raises) when it is not; the runner
counts either as a failed command.

Code distances are recomputed by this module's own Pauli scan, which
shares no code with ``gadgetminer.kernels`` or ``gadgetminer.tableau``.
Mine outputs are compared with the complete output this module finds by
its own walk over every gate subset (``expected_mine``).
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, product
from pathlib import Path

from gadgetminer.canon import CSV_HEADER, certificate
from gadgetminer.corpus import MANIFEST_NAME, load_corpus
from gadgetminer.graph import circuit_to_graph, graph_to_json_dict
from gadgetminer.mining import (
    contract_timelines,
    extract_candidate,
    ordered_cnot_edges,
    passes_closure_filter,
    passes_stationarity_filter,
)

# mine manifest fields that legitimately differ between runs of one input
MINE_MANIFEST_VOLATILE = ("wall_time_s",)


class OutputError(Exception):
    """An output file is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _mine_manifest(path: Path, ignore_jobs: bool) -> dict:
    manifest = json.loads(path.read_text())
    for key in MINE_MANIFEST_VOLATILE:
        manifest.pop(key, None)
    if ignore_jobs:
        manifest["parameters"].pop("jobs", None)
    return manifest


def check_same_output(ref: Path, out: Path, mine: bool,
                      ignore_jobs: bool = False) -> None:
    """Every output file equals the reference run's byte for byte.  A mine
    manifest records its wall time (and its --jobs value), so manifests
    are compared with those fields left out."""
    a, b = _tree(ref), _tree(out)
    require(sorted(a) == sorted(b),
            f"output files differ: {sorted(a)} vs {sorted(b)}")
    for name in a:
        if mine and name == "manifest.json":
            require(_mine_manifest(ref / name, ignore_jobs)
                    == _mine_manifest(out / name, ignore_jobs),
                    "manifest.json differs from the reference run")
        else:
            require(a[name] == b[name],
                    f"{name} differs from the reference run")


# ---------------------------------------------------------------------------
# gen: corpus reload and brute-force distance
# ---------------------------------------------------------------------------


def encoder_generators(n: int, k: int, x_ancillas, pairs):
    """(x, z) masks of the encoded state's stabilizers: Z_j (X_j for |+>
    ancillas) for every ancilla j >= k, conjugated through the CNOTs."""
    gens = []
    for j in range(k, n):
        x, z = (1 << j, 0) if j in x_ancillas else (0, 1 << j)
        for c, t in pairs:
            if (x >> c) & 1:
                x ^= 1 << t
            if (z >> t) & 1:
                z ^= 1 << c
        gens.append((x, z))
    return gens


def _in_span(v: int, vectors) -> bool:
    basis: list[int] = []
    for w in vectors:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    for b in basis:
        v = min(v, v ^ b)
    return v == 0


def brute_force_distance(n: int, gens, max_weight: int) -> int:
    """Smallest weight <= max_weight of a Pauli that commutes with every
    generator and lies outside their span; 0 if there is none."""
    span = [(x << n) | z for x, z in gens]
    for w in range(1, max_weight + 1):
        for support in combinations(range(n), w):
            for letters in product(((1, 0), (1, 1), (0, 1)), repeat=w):
                px = pz = 0
                for q, (xb, zb) in zip(support, letters):
                    px |= xb << q
                    pz |= zb << q
                if any(((px & gz).bit_count() + (pz & gx).bit_count()) & 1
                       for gx, gz in gens):
                    continue
                if not _in_span((px << n) | pz, span):
                    return w
    return 0


def check_gen(out: Path, n: int, k: int, d: int, attempts: int,
              seed: int) -> None:
    """A gen output reloads through the program's loader (which re-checks
    every entry digest), has distinct digests, and every entry is an
    [[n, k, d]] encoder by this module's own distance scan."""
    corpus = load_corpus(out)
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    cfg = manifest["config"]
    require((cfg["n"], cfg["k"], cfg["target_d"], cfg["attempts"],
             cfg["seed"]) == (n, k, d, attempts, seed),
            f"manifest config {cfg} does not match the command")
    require(len(corpus.entries) >= 1, "empty corpus")
    require(len(manifest["entries"]) == len(corpus.entries),
            "manifest and corpus disagree on the entry count")
    digests = [e.digest for e in corpus.entries]
    require(len(set(digests)) == len(digests), "duplicate digests")
    listed = sorted(p.name for p in out.iterdir())
    expected = [MANIFEST_NAME] + [f"{e.name}.txt" for e in corpus.entries]
    require(listed == sorted(expected),
            f"unexpected files in the corpus: {listed}")
    for e in corpus.entries:
        c = e.circuit
        require(c.n_qubits == n and e.k == k and e.distance == d,
                f"{e.name}: recorded [[{c.n_qubits},{e.k},{e.distance}]]")
        require(set(e.x_ancillas) <= set(range(k, n)),
                f"{e.name}: bad x_ancillas {e.x_ancillas}")
        gens = encoder_generators(n, k, set(e.x_ancillas), c.pairs())
        got = brute_force_distance(n, gens, d)
        require(got == d, f"{e.name}: brute-force distance "
                          f"{got or f'above {d}'} != {d}")


# ---------------------------------------------------------------------------
# mine: the complete expected report, and the output against it
# ---------------------------------------------------------------------------

MIN_REPEATS = 1  # the CLI's default --min-repeats: classes with n_r > 1


def _may_keep(subset, gates) -> bool:
    """False for a gate subset that must be rejected: its chosen endpoints
    on some qubit are not consecutive there (an unchosen gate in between
    taints it), or its gates do not hang together through shared qubits
    (the candidate graph is disconnected).  ``gates`` holds per gate its
    (qubit, position among that qubit's endpoints) pairs."""
    chosen: dict[int, list[int]] = {}
    for i in subset:
        for q, p in gates[i]:
            chosen.setdefault(q, []).append(p)
    if any(max(ps) - min(ps) + 1 != len(ps) for ps in chosen.values()):
        return False
    reached = {q for q, _ in gates[subset[0]]}
    left = list(subset[1:])
    grew = True
    while left and grew:
        grew = False
        for i in list(left):
            (a, _), (b, _) = gates[i]
            if a in reached or b in reached:
                reached.update((a, b))
                left.remove(i)
                grew = True
    return not left


def expected_mine(circuits, c_g: int) -> dict:
    """What a complete mine of the circuits (in input order) must write,
    found by walking every size-c_g gate subset of every circuit here:
    the number of kept candidates and of classes, the report object and
    summary.csv.  Subsets that ``_may_keep`` rejects cannot pass the
    program's filters; the rest are extracted and filtered with the
    program's own functions, so a mine that skips subsets or drops kept
    candidates cannot match."""
    by_cert: dict[bytes, list] = {}
    for circuit in circuits:
        graph = circuit_to_graph(circuit)
        edges = ordered_cnot_edges(graph)
        on_qubit: dict[int, list] = {}
        for i, e in enumerate(edges):
            for nid in (e.src, e.dst):
                nd = graph.node(nid)
                on_qubit.setdefault(nd.qubit, []).append((nd.layer, i))
        gates: list[list] = [[] for _ in edges]
        for q, seq in on_qubit.items():
            for p, (_, i) in enumerate(sorted(seq)):
                gates[i].append((q, p))
        for subset in combinations(range(len(edges)), c_g):
            if not _may_keep(subset, gates):
                continue
            cand = extract_candidate(graph, [edges[i] for i in subset])
            if (cand.tainted or not passes_closure_filter(cand)
                    or not passes_stationarity_filter(cand)):
                continue
            cand = contract_timelines(cand)
            by_cert.setdefault(certificate(cand.graph), []).append(cand)
    report, csv = [], [CSV_HEADER]
    for cert, occ in sorted(by_cert.items(),
                            key=lambda kv: (-len(kv[1]), kv[0])):
        if len(occ) <= MIN_REPEATS:
            continue
        report.append({
            "certificate": cert.hex(), "n_r": len(occ), "c_g": c_g,
            "representative_graph": graph_to_json_dict(occ[0].graph),
            "occurrences": [{"circuit": o.source_circuit,
                             "layers": list(o.layers)} for o in occ]})
        csv.append(f"{hashlib.sha256(cert).hexdigest()[:12]},{c_g},"
                   f"{len(occ)},{len(occ[0].graph.qubits_touched)}")
    return {"candidates": sum(len(occ) for occ in by_cert.values()),
            "classes": len(by_cert), "report": report,
            "summary": "\n".join(csv) + "\n"}


def check_mine(out: Path, expected: dict, n_circuits: int) -> list:
    """A mine output is exactly the expected one: report.json in the
    program's canonical JSON with every class of n_r > 1 and every
    occurrence, summary.csv, and a manifest with the expected candidate
    and class counts (backend python, nothing truncated).  Returns the
    report."""
    text = (out / "report.json").read_text()
    report = json.loads(text)
    require(json.dumps(report, indent=2, sort_keys=True) + "\n" == text,
            "report.json is not in canonical form")
    want = expected["report"]
    require(len(report) == len(want),
            f"report.json has {len(report)} classes, expected {len(want)}")
    for i, (got, cls) in enumerate(zip(report, want)):
        require(got == cls, f"class {i} (expected {cls['certificate'][:16]}"
                            f"..., n_r {cls['n_r']}) differs in report.json")
    require((out / "summary.csv").read_text() == expected["summary"],
            "summary.csv does not match the expected classes")
    manifest = json.loads((out / "manifest.json").read_text())
    require(manifest["kernel_backend"] == "python",
            f"kernel backend {manifest['kernel_backend']!r}")
    require(not manifest["truncated"] and manifest["circuits_skipped"] == 0,
            "truncated run")
    require(manifest["circuits"] == n_circuits,
            f"manifest circuits {manifest['circuits']} != {n_circuits}")
    require(manifest["gadgets"] == len(want),
            "manifest gadgets != expected classes of n_r > 1")
    for key in ("candidates", "classes"):
        require(manifest[key] == expected[key],
                f"manifest {key} {manifest[key]} != {expected[key]} found "
                "by the harness")
    return report


def check_planted(report: list, planted: dict[str, int]) -> None:
    """Every gadget planted more often than the report's cutoff is
    reported, under its certificate (hex), with n_r at least its
    planting count."""
    n_r = {cls["certificate"]: cls["n_r"] for cls in report}
    for cert, count in planted.items():
        require(count <= MIN_REPEATS or n_r.get(cert, 0) >= count,
                f"planted gadget {cert[:16]}... reported {n_r.get(cert, 0)}"
                f" times, planted {count}")
