"""Span tracing of one gadgetminer command, from outside the program.

Run as a script, it wraps public functions of the program's modules in
spans, runs one CLI command in-process and writes the spans when the
command returns:

    PYTHONPATH=src python perfbench/tracer.py SPANS_FILE mine --input ...

A span is (name, start, end, parent).  Spans live in flat arrays while
the command runs, so millions of them stay cheap.  ``layer_metrics``
turns a spans file into the per-layer metrics: call counts, summed
durations, and self time (a span's duration minus what its child spans
cover).  Counts the wrapped functions return (subsets, kept candidates,
classes, accepted encoders) are added up at the same boundaries.
"""

from __future__ import annotations

import array
import importlib
import pickle
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# (module, attribute) of every wrapped function; "Class.method" wraps a
# method on the class.  Span names are "<module>.<attribute>".
TARGETS = (
    ("cli", "main"),
    ("cli", "_mine_one"),
    ("kernels", "pauli_weight_profile"),
    ("kernels", "min_logical_weight"),
    ("kernels", "canonical_encoding"),
    ("tableau", "CliffordTableau.cnot"),
    ("tableau", "CliffordTableau.copy"),
    ("tableau", "CliffordTableau.row_pauli"),
    ("tableau", "CliffordTableau.to_bytes"),
    ("tableau", "encoder_tableau"),
    ("tableau", "encoder_code"),
    ("tableau", "code_distance"),
    ("corpus", "generate_encoders"),
    ("corpus", "_propose_hillclimb"),
    ("corpus", "save_corpus"),
    ("corpus", "load_corpus"),
    ("mining", "mine_circuit"),
    ("mining", "passes_closure_filter"),
    ("mining", "passes_stationarity_filter"),
    ("graph", "CircuitGraph.__init__"),
    ("canon", "certificate"),
    ("canon", "group_candidates"),
    ("canon", "classes_to_json_obj"),
    ("canon", "classes_to_csv"),
)


class Recorder:
    """Spans of one single-threaded process, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.mined: list = []

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        names, parents = self.name, self.parent
        stack, start, end = self.stack, self.start, self.end

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def dump(self, path) -> None:
        # the pickled size of each MiningResult is what a process pool
        # ships back to the parent for that circuit
        self.counters["cli.result_bytes"] = sum(
            len(pickle.dumps(r)) for r in self.mined)
        with open(path, "wb") as fh:
            pickle.dump({"names": self.names, "name": self.name,
                         "parent": self.parent, "start": self.start,
                         "end": self.end, "counters": dict(self.counters)},
                        fh)


def _on_return(rec: Recorder, name: str):
    c = rec.counters

    def mined(res):
        c["mining.subsets_total"] += res.subsets_total
        c["mining.subsets_examined"] += res.subsets_examined
        c["mining.kept"] += len(res.candidates)

    def generated(corpus):
        c["corpus.accepted"] += len(corpus.entries)

    def grouped(classes):
        c["canon.classes"] += len(classes)

    return {
        "cli._mine_one": rec.mined.append,
        "mining.mine_circuit": mined,
        "corpus.generate_encoders": generated,
        "canon.group_candidates": grouped,
    }.get(name)


def install(rec: Recorder) -> None:
    """Wrap every target.  A module-level function is replaced wherever a
    gadgetminer module holds a reference to it, so ``from x import f``
    call sites are traced too."""
    import gadgetminer.cli  # noqa: F401  (loads every module)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "gadgetminer" or n.startswith("gadgetminer.")]
    for modname, attr in TARGETS:
        mod = importlib.import_module(f"gadgetminer.{modname}")
        name = f"{modname}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(name, getattr(cls, meth),
                                        _on_return(rec, name)))
            continue
        orig = getattr(mod, attr)
        traced = rec.wrap(name, orig, _on_return(rec, name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_FILE <gadgetminer arguments>",
              file=sys.stderr)
        return 1
    rec = Recorder()
    install(rec)
    from gadgetminer import cli

    rc = cli.main(argv[1:])
    rec.dump(argv[0])
    return rc


# ---------------------------------------------------------------------------
# Harness side: spans file -> per-layer metrics
# ---------------------------------------------------------------------------

# unit of every per-layer metric, in report order
LAYER_METRICS = {
    "kernels.profile_calls": "count",
    "kernels.profile_s": "s",
    "kernels.min_weight_calls": "count",
    "kernels.min_weight_s": "s",
    "kernels.canonical_encoding_calls": "count",
    "kernels.canonical_encoding_s": "s",
    "tableau.cnot_calls": "count",
    "tableau.copy_calls": "count",
    "tableau.row_pauli_calls": "count",
    "tableau.self_s": "s",
    "tableau.code_distance_s": "s",
    "corpus.attempts": "count",
    "corpus.accepted": "count",
    "corpus.accept_ratio": "ratio",
    "corpus.generate_self_s": "s",
    "corpus.save_s": "s",
    "corpus.load_s": "s",
    "mining.subsets_total": "count",
    "mining.subsets_examined": "count",
    "mining.kept": "count",
    "mining.keep_ratio": "ratio",
    "mining.self_s": "s",
    "mining.closure_calls": "count",
    "mining.stationarity_calls": "count",
    "mining.filter_s": "s",
    "graph.builds": "count",
    "graph.build_s": "s",
    "graph.builds_per_kept": "ratio",
    "canon.certificates": "count",
    "canon.certificate_self_s": "s",
    "canon.group_s": "s",
    "canon.classes": "count",
    "canon.report_s": "s",
    "cli.self_s": "s",
    "cli.result_bytes": "B",
    "trace.overhead_s": "s",
}

# metrics that count work; they must repeat exactly across traced runs
COUNT_METRICS = tuple(k for k, unit in LAYER_METRICS.items()
                      if unit in ("count", "B"))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics of one traced command (trace.overhead_s aside,
    which needs an untraced run)."""
    with open(path, "rb") as fh:
        data = pickle.load(fh)  # written by main() above
    names, name, parent = data["names"], data["name"], data["parent"]
    dur = [e - s for s, e in zip(data["start"], data["end"])]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] += 1
        total[key] += dur[i]
        self_s[key] += own[i]
    c = data["counters"]

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    attempts = calls["corpus._propose_hillclimb"]
    m = {
        "kernels.profile_calls": calls["kernels.pauli_weight_profile"],
        "kernels.profile_s": total["kernels.pauli_weight_profile"],
        "kernels.min_weight_calls": calls["kernels.min_logical_weight"],
        "kernels.min_weight_s": total["kernels.min_logical_weight"],
        "kernels.canonical_encoding_calls": calls["kernels.canonical_encoding"],
        "kernels.canonical_encoding_s": total["kernels.canonical_encoding"],
        "tableau.cnot_calls": calls["tableau.CliffordTableau.cnot"],
        "tableau.copy_calls": calls["tableau.CliffordTableau.copy"],
        "tableau.row_pauli_calls": calls["tableau.CliffordTableau.row_pauli"],
        "tableau.self_s": layer_self("tableau."),
        "tableau.code_distance_s": total["tableau.code_distance"],
        "corpus.attempts": attempts,
        "corpus.accepted": c.get("corpus.accepted", 0),
        "corpus.accept_ratio": _ratio(c.get("corpus.accepted", 0), attempts),
        "corpus.generate_self_s": (self_s["corpus.generate_encoders"]
                                   + self_s["corpus._propose_hillclimb"]),
        "corpus.save_s": total["corpus.save_corpus"],
        "corpus.load_s": total["corpus.load_corpus"],
        "mining.subsets_total": c.get("mining.subsets_total", 0),
        "mining.subsets_examined": c.get("mining.subsets_examined", 0),
        "mining.kept": c.get("mining.kept", 0),
        "mining.keep_ratio": _ratio(c.get("mining.kept", 0),
                                    c.get("mining.subsets_examined", 0)),
        "mining.self_s": layer_self("mining."),
        "mining.closure_calls": calls["mining.passes_closure_filter"],
        "mining.stationarity_calls": calls["mining.passes_stationarity_filter"],
        "mining.filter_s": (total["mining.passes_closure_filter"]
                            + total["mining.passes_stationarity_filter"]),
        "graph.builds": calls["graph.CircuitGraph.__init__"],
        "graph.build_s": total["graph.CircuitGraph.__init__"],
        "graph.builds_per_kept": _ratio(calls["graph.CircuitGraph.__init__"],
                                        c.get("mining.kept", 0)),
        "canon.certificates": calls["canon.certificate"],
        "canon.certificate_self_s": self_s["canon.certificate"],
        "canon.group_s": total["canon.group_candidates"],
        "canon.classes": c.get("canon.classes", 0),
        "canon.report_s": (total["canon.classes_to_json_obj"]
                           + total["canon.classes_to_csv"]),
        "cli.self_s": layer_self("cli."),
        "cli.result_bytes": c.get("cli.result_bytes", 0),
    }
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
