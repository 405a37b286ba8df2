"""Self-test of the benchmark's output checks: a damaged output must be
counted as a failed run, never pass.

    python3 -m pytest -q perfbench/test_checks.py

Each test runs the real CLI on a small input, shows the untouched output
passes, then damages it the way a broken program could and shows the
run is counted in error_rate.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

from common import run_child, use_checkout_source

use_checkout_source()

import checks  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from gadgetminer.circuit import Circuit, save_circuit  # noqa: E402
from gadgetminer.corpus import entry_digest  # noqa: E402

STEANE_PAIRS = ((0, 1), (0, 2), (6, 0), (6, 1), (6, 3),
                (5, 0), (5, 2), (5, 3), (4, 1), (4, 2), (4, 3))
GEN_SEED = 5
GEN_ATTEMPTS = 6


def _flip(path, pos: int) -> None:
    data = bytearray(path.read_bytes())
    data[pos] ^= 0x01
    path.write_bytes(bytes(data))


def _failure(proc, check) -> str:
    """The reason the run is counted as failed ("" if it passed)."""
    tally = runner.Tally()
    ok = tally.judge(proc, check)
    assert tally.attempted == 1 and tally.failed == (0 if ok else 1)
    return "" if ok else tally.reasons[0]


def test_brute_force_distance_of_steane_encoder():
    gens = checks.encoder_generators(7, 1, {4, 5, 6}, STEANE_PAIRS)
    assert checks.brute_force_distance(7, gens, 3) == 3
    # without its last CNOT the encoder no longer reaches distance 3
    gens = checks.encoder_generators(7, 1, {4, 5, 6}, STEANE_PAIRS[:-1])
    assert checks.brute_force_distance(7, gens, 3) in (1, 2)


def _rewrite(bad, report, summary_lines, **manifest_delta):
    """Write a consistent mine output: report, summary and manifest."""
    (bad / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    (bad / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    manifest = json.loads((bad / "manifest.json").read_text())
    for key, delta in manifest_delta.items():
        manifest[key] += delta
    (bad / "manifest.json").write_text(json.dumps(manifest))


def test_damaged_mine_report_counts_as_failure(tmp_path):
    wl = workloads.WORKLOADS["mine-planted"]
    hosts, counts = workloads.planted_hosts(3, target=6000)
    workloads.save_hosts(hosts, tmp_path / "in")
    circuits = workloads.load_hosts(tmp_path / "in")
    inputs = workloads.Inputs(
        3, [tmp_path / "in"], circuits,
        workloads.planted_certificates(counts, workloads.PLANT_SPECS,
                                       wl.c_g),
        checks.expected_mine(circuits, wl.c_g))
    out = tmp_path / "out"
    proc = run_child(wl.command(inputs, out), tmp_path / "mine.log")
    assert not _failure(proc, lambda: wl.check(inputs, out))
    assert inputs.planted and len(inputs.expected["report"]) >= 2

    report = out / "report.json"
    size = report.stat().st_size
    positions = random.Random(0).sample(range(size), 40) + [0, size - 1]
    bad = tmp_path / "bad"

    def fresh():
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        return (json.loads((bad / "report.json").read_text()),
                (bad / "summary.csv").read_text().splitlines())

    for pos in positions:
        fresh()
        _flip(bad / "report.json", pos)
        assert _failure(proc, lambda: wl.check(inputs, bad)), pos
        assert _failure(
            proc, lambda: checks.check_same_output(out, bad, True)), pos

    for name, old, new, why in (
            ("summary.csv", ",", ";", "summary.csv does not match"),
            ("manifest.json", '"python"', '"compiled"', "kernel backend")):
        fresh()
        text = (bad / name).read_text()
        (bad / name).write_text(text.replace(old, new, 1))
        assert why in _failure(proc, lambda: wl.check(inputs, bad))

    # an incomplete mine that is consistent with itself: the last class
    # dropped, or one occurrence of the first class dropped
    classes, summary = fresh()
    last = classes.pop()
    _rewrite(bad, classes, summary[:-1], gadgets=-1, classes=-1,
             candidates=-last["n_r"])
    assert "classes, expected" in _failure(proc, lambda: wl.check(inputs, bad))

    classes, summary = fresh()
    first = classes[0]
    first["occurrences"].pop()
    first["n_r"] -= 1
    cells = summary[1].split(",")
    cells[2] = str(first["n_r"])
    summary[1] = ",".join(cells)
    _rewrite(bad, classes, summary, candidates=-1)
    assert "class 0" in _failure(proc, lambda: wl.check(inputs, bad))

    # kept candidates of classes below the report's cutoff dropped
    _rewrite(bad, *fresh(), candidates=-1)
    assert "manifest candidates" in _failure(
        proc, lambda: wl.check(inputs, bad))


def test_tampered_corpus_entry_counts_as_failure(tmp_path):
    out = tmp_path / "corpus"
    argv = [sys.executable, "-m", "gadgetminer", "gen", "--n", "7",
            "--k", "1", "--d", "3", "--seed", str(GEN_SEED),
            "--attempts", str(GEN_ATTEMPTS), "--count", str(GEN_ATTEMPTS),
            "--output", str(out)]
    proc = run_child(argv, tmp_path / "gen.log")

    def check(path):
        return lambda: checks.check_gen(path, 7, 1, 3, GEN_ATTEMPTS, GEN_SEED)

    assert not _failure(proc, check(out))

    def damaged(edit):
        bad = tmp_path / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        edit(bad)
        return bad

    def swap_gate(bad):
        entry = bad / "enc_0000.txt"
        lines = entry.read_text().splitlines()
        lines[1] = "cx " + " ".join(reversed(lines[1].split()[1:]))
        entry.write_text("\n".join(lines) + "\n")

    def shorten_with_valid_digest(bad):
        # a low-distance circuit whose digest is made consistent, so only
        # the brute-force distance scan can catch it
        manifest = json.loads((bad / "manifest.json").read_text())
        e = manifest["entries"][0]
        short = Circuit.from_pairs(7, [(0, 1), (1, 2)])
        save_circuit(short, bad / e["file"])
        e["digest"] = entry_digest(short, e["x_ancillas"])
        (bad / "manifest.json").write_text(json.dumps(manifest))

    def claim_distance_four(bad):
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["entries"][0]["distance"] = 4
        (bad / "manifest.json").write_text(json.dumps(manifest))

    for edit, why in ((swap_gate, "digest mismatch"),
                      (shorten_with_valid_digest, "brute-force distance"),
                      (claim_distance_four, "recorded [[7,1,4]]")):
        bad = damaged(edit)
        assert why in _failure(proc, check(bad)), edit.__name__
        assert _failure(
            proc, lambda: checks.check_same_output(out, bad, False))
