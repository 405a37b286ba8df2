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
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, kernels
from .canon import (
    MAX_CERT_NODES,
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
    circuit_files,
    connectivity_pairs,
    corpus_stats,
    generate_encoders,
    ingest,
    load_corpus,
    save_corpus,
    unique_name,
)
from .graph import gate_tuples
from .mining import mine_circuit
from .tableau import encoder_tableau

OUTPUT_ENV = "GADGETMINER_OUTPUT"
FORMAT_VERSION = 1


def _default_output() -> str:
    return os.environ.get(OUTPUT_ENV, "gadgetminer_out")


def _collect_circuits(paths) -> tuple[list[Circuit], list[dict]]:
    """Circuits from files, corpus directories, or plain directories of
    circuit files, in input order, with unique names, and the path and
    sha256 of every file read, hashed before any output is written.
    Plain files and directories are read literally (no dedup: mining
    counts repeats)."""
    circuits: list[Circuit] = []
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if (p / MANIFEST_NAME).is_file():
            corp = load_corpus(p)
            if not corp.entries:
                raise CorpusError(f"{p}: no corpus entries")
            files.extend(corp.files)
            circuits.extend(corp.circuits())
        elif p.exists():
            members = circuit_files(p)
            if not members:
                raise CorpusError(f"{p}: no circuit files")
            files.extend(members)
            circuits.extend(load_circuit(f) for f in members)
        else:
            raise CorpusError(f"{p}: no such file or directory")
    inputs = [{"path": str(f),
               "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}
              for f in files]
    names: set[str] = set()
    named = [Circuit(c.n_qubits, c.gates,
                     name=unique_name(c.name or f"circuit_{i:04d}", names))
             for i, c in enumerate(circuits)]
    return named, inputs


class WorkerError(RuntimeError):
    """A forked mining worker ended without returning its share."""


def _mine_one(payload):
    """Mine one (circuit, c_g, cap, deadline) payload against the run's
    deadline, or return None when the deadline has already passed."""
    circuit, c_g, cap, deadline = payload
    if deadline is not None and time.monotonic() >= deadline:
        return None
    return mine_circuit(circuit, c_g, cap, deadline)


def _run_share(fn, items, start: int, step: int, fd: int):
    """Body of a forked worker: fn over items[start::step], pickled into
    fd as (None, results), or as (index, exception) at the first item
    that raises.  Never returns; a worker that cannot write exits 1."""
    import pickle

    status = 1
    try:
        results = []
        try:
            for i in range(start, len(items), step):
                results.append(fn(items[i]))
            message = (None, results)
        except Exception as exc:
            message = (i, exc)
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(message, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fork_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items] in forked workers: worker w maps
    items[w::workers] and pickles the results into a pipe, and the parent
    puts them back in input order.  A worker's exception is re-raised
    (the one at the earliest item, as a serial run would raise it); a
    worker that ends without a result raises WorkerError.  Every child
    is reaped, and on an early exit killed first.  Forking, unlike a
    fresh interpreter per worker, pays no import; the CLI starts no
    threads, so a fork copies no held lock."""
    # imported here, as only --jobs > 1 needs them
    import pickle
    import signal

    children = []  # (pid, read end of its pipe)
    statuses: dict[int, int] = {}
    try:
        for w in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_share(fn, items, w, workers, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        messages = [fh.read() for _, fh in children]
        for pid, _ in children:
            statuses[pid] = os.waitpid(pid, 0)[1]
    finally:
        for pid, fh in children:
            fh.close()
            if pid not in statuses:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = [None] * len(items)
    failures = []
    for w, ((pid, _), message) in enumerate(zip(children, messages)):
        code = os.waitstatus_to_exitcode(statuses[pid])
        if code or not message:
            how = (f"was killed by signal {-code}" if code < 0
                   else f"exited with status {code}")
            raise WorkerError(f"mining worker {w} (pid {pid}) {how} "
                              "without a result")
        index, out = pickle.loads(message)
        if index is None:
            results[w::workers] = out
        else:
            failures.append((index, out))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def cmd_mine(args) -> int:
    started = time.monotonic()
    if args.max_candidates is not None and args.max_candidates < 0:
        raise ValueError("--max-candidates must be >= 0")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.min_repeats < 1:
        raise ValueError("--min-repeats must be >= 1")
    if args.gadget_cnots < 1:
        raise ValueError("--gadget-cnots must be >= 1")
    # a candidate has two nodes per gate, and certificates are bounded
    if args.gadget_cnots > MAX_CERT_NODES // 2:
        raise ValueError(
            f"--gadget-cnots must be <= {MAX_CERT_NODES // 2}")
    # NaN fails every comparison, so it is rejected here too
    if args.time_budget is not None and not 0 <= args.time_budget < math.inf:
        raise ValueError("--time-budget must be a finite number >= 0")
    circuits, inputs = _collect_circuits(args.input)
    # a report beside an input would replace a corpus's manifest, or turn
    # a circuit directory into a corpus that fails to load
    outdir = Path(args.output)
    read_dirs = {Path(i["path"]).parent for i in inputs}
    if outdir.resolve() in {d.resolve() for d in read_dirs}:
        raise ValueError(f"--output {outdir} holds input files")
    # each circuit keeps at most cap = --max-candidates + 1 candidates:
    # that many prove the run is over, and the cut below keeps the first
    # --max-candidates in input order, which every circuit's prefix holds
    cap = None if args.max_candidates is None else args.max_candidates + 1
    # one absolute deadline for the whole run; the monotonic clock is
    # system-wide, so forked workers compare against the same clock
    deadline = (None if args.time_budget is None
                else started + args.time_budget)
    payloads = [(c, args.gadget_cnots, cap, deadline) for c in circuits]
    workers = min(args.jobs, len(payloads))
    if workers > 1 and hasattr(os, "fork"):
        results = _fork_map(_mine_one, payloads, workers)
    else:
        results = [_mine_one(p) for p in payloads]
    skipped = sum(res is None for res in results)
    results = [res for res in results if res is not None]
    candidates = []
    for res in results:
        candidates.extend(res.candidates)
    reasons: list[str] = []
    if args.max_candidates is not None and len(candidates) > args.max_candidates:
        candidates = candidates[: args.max_candidates]
        reasons.append("max_candidates")
    classes = group_candidates(candidates, deadline)
    # grouping stops certifying at the deadline; the rest go unreported
    certified = sum(cls.n_r for cls in classes)
    if (skipped or certified < len(candidates)
            or any(res.reason == "time_budget" for res in results)):
        reasons.insert(0, "time_budget")
    del candidates[certified:]
    truncated = bool(reasons)
    gadgets = identify_gadgets(classes, args.min_repeats)
    outdir.mkdir(parents=True, exist_ok=True)
    report = json.dumps(classes_to_json_obj(gadgets), indent=2,
                        sort_keys=True) + "\n"
    (outdir / "report.json").write_text(report)
    (outdir / "summary.csv").write_text(classes_to_csv(gadgets))
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": "mine",
        "inputs": inputs,
        "parameters": {
            "gadget_cnots": args.gadget_cnots,
            "min_repeats": args.min_repeats,
            "max_candidates": args.max_candidates,
            "time_budget": args.time_budget,
            "jobs": args.jobs,
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
        cert = certificate(gate_tuples(spec.as_circuit()))
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
    print(encoder_tableau(load_circuit(args.circuit)).digest())
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other error: 2 means a
    truncated mining run.  Subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gadgetminer",
        description="Mine repeated composite CNOT blocks from circuit corpora.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="discover repeated gadgets")
    p.add_argument("--input", nargs="+", required=True,
                   help="circuit files, corpus directories, or directories "
                        "of circuit files")
    p.add_argument("--gadget-cnots", type=int, required=True, metavar="C_G",
                   help="number of CNOTs per candidate block (at most 32)")
    p.add_argument("--min-repeats", type=int, default=1, metavar="N_C",
                   help="report classes repeated more than N_C times "
                        "(default 1)")
    p.add_argument("--max-candidates", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None,
                   help="seconds before the run is truncated")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers over circuits (same output for "
                        "any value)")
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
    p.set_defaults(func=cmd_canon)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, GenerationError, CatalogError,
            CertificateSizeError, WorkerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
