"""Command line interface.

Subcommands: mine (gadget discovery over circuits/corpora), gen (seeded
encoder corpus generation), catalog (reference gadgets), stats (corpus
statistics), canon (tableau digest of a circuit).

Exit codes: 0 success, 2 truncated mining run, 1 error.  GADGETMINER_OUTPUT
sets the default output directory.  All randomness flows through --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__, kernels
from .canon import (
    CertificateSizeError,
    certificate,
    certificate_digest,
    classes_to_csv,
    classes_to_json_obj,
    group_candidates,
    identify_gadgets,
)
from .catalog import FAMILIES, CatalogError, all_gadgets, build_gadget
from .circuit import Circuit, load_circuit, serialize_circuit
from .corpus import (
    MANIFEST_NAME,
    CorpusError,
    GenerationError,
    GeneratorConfig,
    connectivity_pairs,
    corpus_stats,
    generate_encoders,
    ingest,
    load_corpus,
    save_corpus,
)
from .graph import circuit_to_graph
from .mining import MiningLimits, mine_circuit
from .tableau import canonical_tableau, circuit_to_tableau

OUTPUT_ENV = "GADGETMINER_OUTPUT"
FORMAT_VERSION = 1


def _default_output() -> str:
    return os.environ.get(OUTPUT_ENV, "gadgetminer_out")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _collect_circuits(paths) -> tuple[list[Circuit], list[Path]]:
    """Circuits from files, corpus directories, or plain directories of
    circuit files, in input order, with unique names.  Plain files and
    directories are read literally (no dedup: mining counts repeats)."""
    circuits: list[Circuit] = []
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            if (p / MANIFEST_NAME).is_file():
                corp = load_corpus(p)
                files.append(p / MANIFEST_NAME)
                files.extend(p / obj for obj in sorted(
                    f"{e.name}.txt" for e in corp.entries))
                circuits.extend(corp.circuits())
            else:
                members = sorted(
                    f for f in p.iterdir()
                    if f.is_file() and f.suffix in (".txt", ".json"))
                if not members:
                    raise CorpusError(f"{p}: no circuit files")
                for f in members:
                    circuits.append(load_circuit(f))
                    files.append(f)
        elif p.is_file():
            circuits.append(load_circuit(p))
            files.append(p)
        else:
            raise CorpusError(f"{p}: no such file or directory")
    named = []
    names: set[str] = set()
    for i, c in enumerate(circuits):
        name = c.name or f"circuit_{i:04d}"
        base, j = name, 1
        while name in names:
            name = f"{base}_{j}"
            j += 1
        names.add(name)
        named.append(Circuit(c.n_qubits, c.gates, name=name))
    return named, files


def _mine_one(payload):
    """Mine one circuit with the time left before the run's deadline, or
    return None when the deadline has already passed."""
    circuit, c_g, deadline, max_candidates, early_reject = payload
    budget = None
    if deadline is not None:
        budget = deadline - time.monotonic()
        if budget <= 0:
            return None
    limits = MiningLimits(max_candidates=max_candidates, time_budget=budget)
    return mine_circuit(
        circuit_to_graph(circuit), c_g, limits=limits,
        early_reject=early_reject)


def cmd_mine(args) -> int:
    started = time.monotonic()
    if args.max_candidates is not None and args.max_candidates < 0:
        raise ValueError("--max-candidates must be >= 0")
    circuits, files = _collect_circuits(args.input)
    # one absolute deadline for the whole run; the monotonic clock is
    # system-wide, so pool workers compare against the same clock
    deadline = None
    if args.time_budget is not None:
        deadline = started + args.time_budget
    # each circuit keeps at most cap + 1 candidates: that many prove the
    # run is over the cap, and the cut below keeps the first cap in input
    # order, which every circuit's own prefix of cap + 1 still contains
    per_circuit_cap = None
    if args.max_candidates is not None:
        per_circuit_cap = args.max_candidates + 1
    payloads = [(c, args.gadget_cnots, deadline, per_circuit_cap,
                 not args.no_early_reject) for c in circuits]
    if args.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_mine_one, payloads))
    else:
        results = [_mine_one(p) for p in payloads]
    skipped = sum(res is None for res in results)
    results = [res for res in results if res is not None]
    candidates = []
    for res in results:
        candidates.extend(res.candidates)
    reasons: list[str] = []
    if skipped or any(res.reason == "time_budget" for res in results):
        reasons.append("time_budget")
    if args.max_candidates is not None and len(candidates) > args.max_candidates:
        candidates = candidates[: args.max_candidates]
        reasons.append("max_candidates")
    truncated = bool(reasons)
    classes = group_candidates(candidates)
    gadgets = identify_gadgets(classes, args.min_repeats)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    report = json.dumps(classes_to_json_obj(gadgets), indent=2,
                        sort_keys=True) + "\n"
    (outdir / "report.json").write_text(report)
    (outdir / "summary.csv").write_text(classes_to_csv(gadgets))
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": "mine",
        "inputs": [{"path": str(f), "sha256": _sha256(f)} for f in files],
        "parameters": {
            "gadget_cnots": args.gadget_cnots,
            "min_repeats": args.min_repeats,
            "max_candidates": args.max_candidates,
            "time_budget": args.time_budget,
            "jobs": args.jobs,
            "seed": args.seed,
            "early_reject": not args.no_early_reject,
        },
        "kernel_backend": kernels.BACKEND,
        "circuits": len(circuits),
        "circuits_skipped": skipped,
        "subsets_examined": sum(r.subsets_examined for r in results),
        "candidates": len(candidates),
        "classes": len(classes),
        "gadgets": len(gadgets),
        "truncated": truncated,
        "truncation_reasons": reasons,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"mined {len(circuits)} circuits: {len(candidates)} candidates, "
          f"{len(classes)} classes, {len(gadgets)} gadgets "
          f"(report in {outdir})")
    for cls in gadgets:
        print(f"  {certificate_digest(cls.certificate)[:12]}  C_g={cls.c_g}  "
              f"N_r={cls.n_r}  qubits={cls.n_qubits_touched}")
    return 2 if truncated else 0


def cmd_gen(args) -> int:
    pairs = connectivity_pairs(args.connectivity, args.n,
                               path=args.connectivity_file)
    cfg = GeneratorConfig(
        n=args.n,
        k=args.k,
        target_d=args.d,
        connectivity=pairs,
        connectivity_name=args.connectivity,
        max_gates=args.max_gates,
        attempts=args.attempts,
        seed=args.seed,
        method=args.method,
        count=args.count,
    )
    corpus = generate_encoders(cfg)
    outdir = save_corpus(corpus, args.output)
    for w in corpus.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(corpus)} encoders to {outdir}")
    return 0


def cmd_catalog(args) -> int:
    if args.family is not None and args.generation is not None:
        spec = build_gadget(args.family.upper(), args.generation)
        sys.stdout.write(serialize_circuit(spec.as_circuit()))
        return 0
    if (args.family is None) != (args.generation is None):
        raise CatalogError("give both --family and --generation, or neither")
    for spec in all_gadgets():
        cert = certificate(circuit_to_graph(spec.as_circuit()))
        print(f"{spec.name:6s} qubits={spec.qubits_touched}  "
              f"cx={spec.cx_count:2d}  certificate={certificate_digest(cert)[:12]}")
    return 0


def cmd_stats(args) -> int:
    p = Path(args.corpus)
    if (p / MANIFEST_NAME).is_file():
        corp = load_corpus(p)
    else:
        corp = ingest([p])
    for w in corp.warnings:
        print(f"warning: {w}", file=sys.stderr)
    stats = corpus_stats(corp)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def cmd_canon(args) -> int:
    circuit = load_circuit(args.circuit)
    t = circuit_to_tableau(circuit)
    print(t.digest())
    if args.rows:
        print(canonical_tableau(t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gadgetminer",
        description="Mine repeated composite CNOT blocks from circuit corpora.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="discover repeated gadgets")
    p.add_argument("--input", nargs="+", required=True,
                   help="circuit files, corpus directories, or directories "
                        "of circuit files")
    p.add_argument("--gadget-cnots", type=int, required=True, metavar="C_G",
                   help="number of CNOTs per candidate block")
    p.add_argument("--min-repeats", type=int, default=1, metavar="N_C",
                   help="report classes repeated more than N_C times "
                        "(default 1)")
    p.add_argument("--max-candidates", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None,
                   help="seconds before the run is truncated")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers over circuits (same output for "
                        "any value)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest; mining itself draws no "
                        "randomness")
    p.add_argument("--no-early-reject", action="store_true",
                   help="disable the qubit-sharing connectivity pre-filter "
                        "(same output, slower)")
    p.add_argument("--output", default=_default_output(),
                   help=f"report directory (default ${OUTPUT_ENV} or "
                        "gadgetminer_out)")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("gen", help="generate an encoder corpus")
    p.add_argument("--n", type=int, required=True, help="total qubits")
    p.add_argument("--k", type=int, default=1, help="logical qubits")
    p.add_argument("--d", type=int, default=3, help="target code distance")
    p.add_argument("--connectivity", default="all",
                   choices=["all", "nn", "nnn", "file"])
    p.add_argument("--connectivity-file", default=None,
                   help="pair-per-line file for --connectivity file")
    p.add_argument("--method", default="hillclimb",
                   choices=["random", "hillclimb"])
    p.add_argument("--attempts", type=int, default=2000)
    p.add_argument("--max-gates", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20,
                   help="encoders to collect")
    p.add_argument("--output", default=_default_output())
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("catalog", help="reference gadget circuits")
    p.add_argument("--family", default=None,
                   help="one of " + "/".join(f.lower() for f in FAMILIES))
    p.add_argument("--generation", type=int, default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("corpus", help="corpus directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("canon", help="canonical tableau digest of a circuit")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("--rows", action="store_true",
                   help="also print the canonical stabilizer rows")
    p.set_defaults(func=cmd_canon)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, GenerationError, CatalogError,
            CertificateSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
