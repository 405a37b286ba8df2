"""Command line interface.

Subcommands: mine (gadget discovery over circuits/corpora), gen (seeded
encoder corpus generation), catalog (reference gadgets), stats (corpus
statistics), canon (tableau digest of a circuit).

Exit codes: 0 success, 2 truncated mining run, 1 error.  GADGETMINER_OUTPUT
sets the default output directory.  All randomness flows through --seed.
mine reads its inputs through corpus.read_inputs alone, each file once.

mine mines circuits[w::N] in share w of N = min(--jobs, circuits), share 0
in this process and the rest in forked workers.  The walk, the share and
the reader all stop after the root that lifts a kept count past
--max-candidates; the reader, which takes the results root by root in
input order, makes the one cut, so outputs do not depend on --jobs.
"""

from __future__ import annotations

import argparse
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


def _mine_one(circuit, c_g, cap, deadline):
    """mine_circuit on one circuit of a share."""
    return mine_circuit(circuit, c_g, cap, deadline)


def _mine_share(circuits, c_g, cap, deadline) -> tuple[list, Exception | None]:
    """_mine_one over circuits in order, each walk bounded by cap less the
    share's kept count, so the share stops after the root that lifts that
    count past cap, or after the root the deadline cut.  Returns the
    results and the exception raised by the circuit after them, or None."""
    results = []
    kept = 0
    try:
        for circuit in circuits:
            results.append(_mine_one(circuit, c_g, cap - kept, deadline))
            kept += len(results[-1].candidates)
            if kept > cap or results[-1].timed_out:
                break
    except Exception as exc:
        return results, exc
    return results, None


def _mine_shares(circuits, shares: int, *args) -> list:
    """_mine_share(circuits[w::shares], *args) for w below shares: this
    process mines share 0 while forked workers mine the others and
    pickle theirs into a pipe (a worker that cannot write exits 1).  A
    worker that ends without a result raises WorkerError.  Every child
    is reaped, and on an early exit killed first.  Forking, unlike a
    fresh interpreter per worker, pays no import; the CLI starts no
    threads, so a fork copies no held lock."""
    if shares == 1:
        return [_mine_share(circuits, *args)]
    # imported here, as only forked shares need them
    import pickle
    import signal

    children = []  # (pid, read end of its pipe)
    statuses: dict[int, int] = {}
    try:
        for w in range(1, shares):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    message = _mine_share(circuits[w::shares], *args)
                    with os.fdopen(write, "wb") as fh:
                        pickle.dump(message, fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        out = [_mine_share(circuits[::shares], *args)]
        messages = [fh.read() for _, fh in children]
        for pid, _ in children:
            statuses[pid] = os.waitpid(pid, 0)[1]
    finally:
        for pid, fh in children:
            fh.close()
            if pid not in statuses:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for w, ((pid, _), message) in enumerate(zip(children, messages), 1):
        code = os.waitstatus_to_exitcode(statuses[pid])
        if code or not message:
            how = (f"was killed by signal {-code}" if code < 0
                   else f"exited with status {code}")
            raise WorkerError(f"mining worker {w} (pid {pid}) {how} "
                              "without a result")
        out.append(pickle.loads(message))
    return out


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
    check_output(outdir, REPORT_FILES, [f for f, _ in corpus.files],
                 kind="report")
    inputs = [{"path": str(f), "sha256": sha} for f, sha in corpus.files]
    circuits = corpus.circuits()
    # no limit is math.inf
    cap = math.inf if args.max_candidates is None else args.max_candidates
    # one absolute deadline for the whole run; the monotonic clock is
    # system-wide, so forked workers compare against the same clock
    deadline = (math.inf if args.time_budget is None
                else started + args.time_budget)
    n = min(args.jobs, len(circuits)) if hasattr(os, "fork") else 1
    shares = _mine_shares(circuits, n, args.gadget_cnots, cap, deadline)
    # the results in input order, root by root: the run stops after the
    # first root that lifts its kept count past the cap or that the
    # deadline cut.  Before each of its circuits a share has kept no more
    # than the run has, so no walk stops before that root, and a share's
    # results run out only where it raised
    candidates: list = []
    examined = skipped = 0
    capped = timed_out = False
    for i in range(len(circuits)):
        results, error = shares[i % n]
        if i // n == len(results):
            raise error
        res = results[i // n]
        roots = len(res.tested_by_root)
        candidates += res.candidates
        if len(candidates) > cap:
            # the root of the candidate past the cap is the last one read
            roots = candidates[cap].gates[0][0] + 1
            del candidates[cap:]
            capped = True
        examined += sum(res.tested_by_root[:roots])
        if res.timed_out and roots == len(res.tested_by_root):
            # the circuits after the cut go unmined, and so does this one
            # if the deadline came before its first set
            skipped = len(circuits) - i - 1 + (res.subsets_examined == 0)
            timed_out = True
        if capped or timed_out:
            break
    classes = group_candidates(candidates, deadline)
    # grouping stops certifying at the deadline; the rest go unreported
    certified = sum(cls.n_r for cls in classes)
    timed_out = timed_out or certified < len(candidates)
    del candidates[certified:]
    reasons = [r for r, hit in (("time_budget", timed_out),
                                ("max_candidates", capped)) if hit]
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
        "subsets_examined": examined,
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
    p.add_argument("--input", nargs="+", action="extend", required=True,
                   help="circuit files, corpus directories, or directories "
                        "of circuit files; a repeated --input appends")
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
