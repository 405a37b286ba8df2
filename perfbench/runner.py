"""One benchmark run: set-up probes, then timed or traced commands.

Imported by run.py once gadgetminer resolves to the checkout's source.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from statistics import median

from common import SRC, WORK, run_child

import checks
import tracer

MIN_REPEATS = 3  # timed commands per run, whatever --seconds says
MIN_TRACED = 2  # traced commands per run, so counts can be compared
SETUP_REPEATS = 7  # set-up probes per run, after one warm-up

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Tally:
    """Attempted and failed program runs of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def judge(self, proc, check=None) -> bool:
        """Count one run; it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        reason = None
        if proc.rc != 0:
            reason = f"exit {proc.rc}: {proc.log_tail()}"
        elif check is not None:
            try:
                check()
            except Exception as exc:  # any damage in an output is a failure
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{' '.join(proc.argv[1:4])}...: {reason}")
        return reason is None


def _check_probe(proc, expected: int) -> None:
    info = json.loads(proc.log.read_text().strip().splitlines()[-1])
    checks.require(info["backend"] == "python",
                   f"kernel backend {info['backend']!r}, not python")
    checks.require(Path(info["module"]).resolve().parent
                   == SRC / "gadgetminer",
                   f"gadgetminer imported from {info['module']}")
    checks.require(info["loaded"] == expected,
                   f"probe read {info['loaded']} circuits, not {expected}")


def measure_setup(wl, inputs, run_dir: Path, tally: Tally) -> float | None:
    """Median time for a fresh interpreter to import the CLI and read the
    inputs, after one warm-up that fills the bytecode cache; None when no
    probe succeeded."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = run_child(wl.probe(inputs), run_dir / f"probe{i}.log")
        if tally.judge(proc, lambda: _check_probe(proc, len(inputs.circuits))):
            times.append(proc.wall_s)
    return median(times[1:] or times) if times else None


def timed_run(wl, inputs, run_dir: Path, seconds: float, tally: Tally) -> dict:
    """Repeat the command for the given time.  The first good output gets
    the full check; every later one must equal it byte for byte.
    Times are medians over the good repeats; the fastest and slowest
    repeat (the tail) are printed beside them."""
    ref = None
    good, every = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_REPEATS or time.perf_counter() < deadline:
        out = run_dir / f"out{i}"
        proc = run_child(wl.command(inputs, out), run_dir / f"out{i}.log")
        every.append(proc)
        if ref is None:
            ok = tally.judge(proc, lambda: wl.check(inputs, out))
            ref = out if ok else None
        else:
            ok = tally.judge(proc, lambda: checks.check_same_output(
                ref, out, wl.mine))
            shutil.rmtree(out, ignore_errors=True)
        if ok:
            good.append(proc)
        i += 1
    sample = good or every
    walls = [p.wall_s for p in sample]
    print(f"{len(sample)} timed commands: wall fastest {min(walls):.4f} s, "
          f"median {median(walls):.4f} s, slowest {max(walls):.4f} s")
    return {
        "wall_s": median(walls),
        "cpu_s": median(p.cpu_s for p in sample),
        "peak_rss_mb": median(p.peak_rss_mb for p in sample),
    }


def traced_run(wl, inputs, run_dir: Path, seconds: float,
               tally: Tally) -> dict:
    """The timed command once (the reference output, fully checked), then
    untraced and traced --jobs 1 runs in turn for the given time (at least
    MIN_TRACED traced).  Every
    output must equal the reference byte for byte, counts must repeat
    exactly across traced runs and agree with the inputs and manifests."""
    ref = run_dir / "ref"
    proc = run_child(wl.command(inputs, ref), run_dir / "ref.log")
    if not tally.judge(proc, lambda: wl.check(inputs, ref)):
        return {}
    untraced = [proc.wall_s] if wl.jobs == 1 else []
    traced, layers = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_TRACED or time.perf_counter() < deadline:
        out = run_dir / f"plain{i}"
        proc = run_child(wl.command(inputs, out, jobs=1),
                         run_dir / f"plain{i}.log")
        if tally.judge(proc, lambda: checks.check_same_output(
                ref, out, wl.mine, ignore_jobs=True)):
            untraced.append(proc.wall_s)
        shutil.rmtree(out, ignore_errors=True)

        out = run_dir / f"traced{i}"
        spans = run_dir / f"traced{i}.spans"
        proc = run_child(wl.command(inputs, out, jobs=1, spans=spans),
                         run_dir / f"traced{i}.log")
        layer = {}

        def check_traced():
            checks.check_same_output(ref, out, wl.mine, ignore_jobs=True)
            layer.update(tracer.layer_metrics(spans))
            wl.check_counters(inputs, out, layer)
            if layers:
                changed = [k for k in tracer.COUNT_METRICS
                           if layer[k] != layers[0][k]]
                checks.require(not changed,
                               f"counts differ between traced runs: {changed}")

        if tally.judge(proc, check_traced):
            traced.append(proc.wall_s)
            layers.append(layer)
        shutil.rmtree(out, ignore_errors=True)
        spans.unlink(missing_ok=True)
        i += 1
    if not layers:
        return {}
    metrics = {k: (layers[0][k] if k in tracer.COUNT_METRICS
                   else median(m[k] for m in layers))
               for k in layers[0]}
    if untraced:
        metrics["trace.overhead_s"] = median(traced) - median(untraced)
    return metrics


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints a readable summary and returns the result
    object (correct, attempted, failed, metrics)."""
    started = time.perf_counter()
    inputs = wl.prepare(seed)
    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}  "
          f"inputs made in {time.perf_counter() - started:.2f} s")
    run_dir = WORK / "runs" / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    # the probes also confirm the pure-Python backend, which gen's output
    # does not record
    setup_s = measure_setup(wl, inputs, run_dir, tally)
    if trace:
        found = traced_run(wl, inputs, run_dir, seconds, tally)
        units = tracer.LAYER_METRICS
    else:
        found = timed_run(wl, inputs, run_dir, seconds, tally)
        if setup_s is not None:
            found["setup_s"] = setup_s
        units = END_TO_END
        print(f"setup_s is the median of {SETUP_REPEATS} probes")
    shutil.rmtree(run_dir, ignore_errors=True)
    # a run with no good output has nothing to measure; it reads 0
    metrics = {k: {"value": found.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    for k, m in metrics.items():
        print(f"  {k:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"error_rate {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.4g}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    return {"correct": tally.failed == 0 and all(k in found for k in units),
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}
