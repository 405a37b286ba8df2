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
    certificate,
    certificate_digest,
    classes_to_csv,
    classes_to_json_obj,
    group_candidates,
    identify_gadgets,
)
from .catalog import FAMILIES, CatalogError, all_gadgets, build_gadget
from .circuit import load_circuit, serialize_circuit
from .corpus import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    GenerationError,
    GeneratorConfig,
    check_output,
    connectivity_pairs,
    corpus_stats,
    distinct,
    encoder_name,
    generate_encoders,
    read_inputs,
    save_corpus,
)
from .graph import gate_tuples
from .mining import mine_circuit
from .tableau import encoder_tableau

OUTPUT_ENV = "GADGETMINER_OUTPUT"
# the files mine writes beside its manifest
REPORT_FILES = ("report.json", "summary.csv")


def _default_output() -> str:
    return os.environ.get(OUTPUT_ENV, "gadgetminer_out")


class WorkerError(RuntimeError):
    """A forked mining worker ended without returning its share."""


def _mine_one(payload):
    """mine_circuit over one (circuit, c_g, cap, deadline) payload."""
    return mine_circuit(*payload)


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
    corpus = read_inputs(args.input)
    outdir = Path(args.output)
    check_output(outdir, REPORT_FILES, corpus.files, kind="report")
    # hashed before any output is written
    inputs = [{"path": str(f),
               "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}
              for f in corpus.files]
    circuits = corpus.circuits()
    # no limit is math.inf.  Each circuit keeps at most cap + 1 candidates:
    # that many prove the run is over, and the cut below keeps the first
    # cap in input order, which every circuit's prefix holds
    cap = math.inf if args.max_candidates is None else args.max_candidates
    # one absolute deadline for the whole run; the monotonic clock is
    # system-wide, so forked workers compare against the same clock
    deadline = (math.inf if args.time_budget is None
                else started + args.time_budget)
    payloads = [(c, args.gadget_cnots, cap + 1, deadline) for c in circuits]
    workers = min(args.jobs, len(payloads))
    if workers > 1 and hasattr(os, "fork"):
        results = _fork_map(_mine_one, payloads, workers)
    else:
        results = [_mine_one(p) for p in payloads]
    # a circuit skipped for time tested no set before the deadline
    skipped = sum(res.reason == "time_budget" and not res.subsets_examined
                  for res in results)
    candidates = []
    for res in results:
        candidates.extend(res.candidates)
    reasons: list[str] = []
    if len(candidates) > cap:
        del candidates[cap:]
        reasons.append("max_candidates")
    classes = group_candidates(candidates, deadline)
    # grouping stops certifying at the deadline; the rest go unreported
    certified = sum(cls.n_r for cls in classes)
    if (certified < len(candidates)
            or any(res.reason == "time_budget" for res in results)):
        reasons.insert(0, "time_budget")
    del candidates[certified:]
    truncated = bool(reasons)
    gadgets = identify_gadgets(classes, args.min_repeats)
    outdir.mkdir(parents=True, exist_ok=True)
    report = json.dumps(classes_to_json_obj(gadgets), indent=2,
                        sort_keys=True) + "\n"
    for name, text in zip(REPORT_FILES, (report, classes_to_csv(gadgets))):
        (outdir / name).write_text(text)
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
    (outdir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"mined {len(circuits)} circuits: {len(candidates)} candidates, "
          f"{len(classes)} classes, {len(gadgets)} gadgets "
          f"(report in {outdir})")
    for cls in gadgets:
        print(f"  {certificate_digest(cls.certificate)[:12]}  C_g={cls.c_g}  "
              f"N_r={cls.n_r}  qubits={cls.n_qubits_touched}")
    return 2 if truncated else 0


def cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        n=args.n,
        k=args.k,
        target_d=args.d,
        # built only for a request that passes the cheaper checks
        connectivity=lambda n: connectivity_pairs(
            args.connectivity, n, path=args.connectivity_file),
        connectivity_name=args.connectivity,
        max_gates=args.max_gates,
        attempts=args.attempts,
        seed=args.seed,
        method=args.method,
        count=args.count,
    )
    # refused before the search: the run writes the manifest and, as an
    # attempt keeps at most one encoder, the first min(count, attempts)
    check_output(args.output, (f"{encoder_name(i)}.txt"
                               for i in range(min(cfg.count, cfg.attempts))))
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
    corp = distinct(read_inputs([args.corpus]))
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
    p.add_argument("--method", default=GeneratorConfig.method,
                   choices=["random", "hillclimb"])
    p.add_argument("--attempts", type=int, default=GeneratorConfig.attempts)
    p.add_argument("--max-gates", type=int, default=GeneratorConfig.max_gates)
    p.add_argument("--seed", type=int, default=GeneratorConfig.seed)
    p.add_argument("--count", type=int, default=GeneratorConfig.count,
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
    except (GenerationError, WorkerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
