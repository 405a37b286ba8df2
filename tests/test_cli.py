"""End-to-end command line tests, including golden-file comparisons."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gadgetminer.canon import (
    MAX_CERT_NODES,
    certificate,
    certificate_digest,
    classes_to_csv,
    classes_to_json_obj,
    group_candidates,
    identify_gadgets,
)
from gadgetminer import canon, cli, mining
from gadgetminer import corpus as corpus_module
from gadgetminer.catalog import all_gadgets
from gadgetminer.cli import main
from gadgetminer.circuit import (
    Circuit,
    load_circuit,
    save_circuit,
)
from gadgetminer.corpus import Corpus, save_corpus
from gadgetminer.graph import circuit_to_graph
from gadgetminer.mining import mine_circuit
from gadgetminer.tableau import encoder_tableau

from conftest import (
    REF_3Q6_PAIRS,
    brickwork_ring,
    random_circuit,
    save_ref_repeats,
)

FIXTURES = Path(__file__).parent / "fixtures"
HOSTS = FIXTURES / "hosts"


def run_cli(argv) -> int:
    return main([str(a) for a in argv])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["--version"])
    assert exc_info.value.code == 0
    from gadgetminer import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "gadgetminer", "--version"],
        capture_output=True, text=True)
    assert out.returncode == 0


def test_cli_import_does_not_load_numpy():
    import gadgetminer

    src = str(Path(gadgetminer.__file__).resolve().parents[1])
    code = "import sys, gadgetminer.cli; assert 'numpy' not in sys.modules"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr


def test_package_import_loads_no_submodule():
    """The top level holds only __version__: importing the package loads
    none of its modules, so a command pays only for what it imports."""
    import gadgetminer

    src = str(Path(gadgetminer.__file__).resolve().parents[1])
    code = ("import json, sys, gadgetminer; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True).stdout
    loaded = json.loads(out)
    assert "gadgetminer" in loaded
    assert [m for m in loaded if m.startswith("gadgetminer.")] == []


def test_mine_matches_golden(tmp_path, capsys):
    rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                  "--output", tmp_path / "out"])
    assert rc == 0
    report = (tmp_path / "out" / "report.json").read_bytes()
    summary = (tmp_path / "out" / "summary.csv").read_bytes()
    assert report == (FIXTURES / "golden_report.json").read_bytes()
    assert summary == (FIXTURES / "golden_summary.csv").read_bytes()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["circuits"] == 3
    assert manifest["candidates"] == 3
    assert manifest["gadgets"] == 1
    assert not manifest["truncated"]
    assert manifest["kernel_backend"] == "python"
    assert len(manifest["inputs"]) == 3
    for item in manifest["inputs"]:
        assert len(item["sha256"]) == 64
    out = capsys.readouterr().out
    assert "3 candidates, 1 classes, 1 gadgets" in out
    assert "C_g=2  N_r=3" in out


def test_mine_jobs_byte_identical(tmp_path):
    rc1 = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                   "--jobs", 1, "--output", tmp_path / "j1"])
    rc2 = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                   "--jobs", 4, "--output", tmp_path / "j4"])
    assert rc1 == rc2 == 0
    for name in ("report.json", "summary.csv"):
        assert (tmp_path / "j1" / name).read_bytes() == \
            (tmp_path / "j4" / name).read_bytes()
    assert _mine_manifest(tmp_path / "j1") == _mine_manifest(tmp_path / "j4")


def test_mine_single_file_and_oversize(tmp_path):
    rc = run_cli(["mine", "--input", HOSTS / "host_a.txt",
                  "--gadget-cnots", 9, "--output", tmp_path / "out"])
    assert rc == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text()) == []


def test_mine_truncation_exit_code(tmp_path):
    rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                  "--max-candidates", 1, "--output", tmp_path / "out"])
    assert rc == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["truncated"]
    assert "max_candidates" in manifest["truncation_reasons"]


def _mine_manifest(outdir: Path) -> dict:
    """manifest.json without the fields that differ across --jobs values."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    del manifest["wall_time_s"]
    del manifest["parameters"]["jobs"]
    return manifest


def test_mine_max_candidates_bounds_work(tmp_path):
    inputs = tmp_path / "in"
    save_ref_repeats(inputs)
    circuits = [load_circuit(f) for f in sorted(inputs.iterdir())]
    full = [cand for c in circuits
            for cand in mine_circuit(c, 2).candidates]
    assert len(full) == 18
    rc = run_cli(["mine", "--input", inputs, "--gadget-cnots", 2,
                  "--output", tmp_path / "uncapped"])
    assert rc == 0
    uncapped = _mine_manifest(tmp_path / "uncapped")
    for cap in (1, 5, 30):
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"cap{cap}_j{jobs}"
            rc = run_cli(["mine", "--input", inputs, "--gadget-cnots", 2,
                          "--max-candidates", cap, "--jobs", jobs,
                          "--output", out])
            assert rc == (2 if cap < len(full) else 0)
            outs.append(out)
        for name in ("report.json", "summary.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()
        manifest = _mine_manifest(outs[0])
        assert manifest == _mine_manifest(outs[1])
        gadgets = identify_gadgets(group_candidates(full[:cap]), 1)
        expected = json.dumps(classes_to_json_obj(gadgets), indent=2,
                              sort_keys=True) + "\n"
        assert (outs[0] / "report.json").read_text() == expected
        assert (outs[0] / "summary.csv").read_text() == \
            classes_to_csv(gadgets)
        assert manifest["candidates"] == min(cap, len(full))
        if cap < len(full):
            assert manifest["truncation_reasons"] == ["max_candidates"]
            assert manifest["subsets_examined"] < uncapped["subsets_examined"]
        else:
            assert manifest["truncation_reasons"] == []
            assert manifest["subsets_examined"] == uncapped["subsets_examined"]


def _gaining_clock(monkeypatch, step: float) -> None:
    """Mining reads time.monotonic() plus step for each earlier reading, so
    a walk spends a budget after a fixed number of readings on any host;
    cmd_mine's start and grouping keep the real clock."""
    readings = itertools.count()
    monkeypatch.setattr(mining, "monotonic",
                        lambda: time.monotonic() + step * next(readings))


def test_mine_time_budget_covers_whole_run(tmp_path, monkeypatch):
    """One deadline bounds the whole run, not each circuit.  Each circuit
    has thousands of sets at C_g = 6 and the walk reads the clock every
    DEADLINE_STRIDE sets, so the first circuit's sixth reading spends the
    0.5 s budget and the five circuits after it are skipped."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    rng = random.Random(5)
    for i in range(6):
        save_circuit(random_circuit(rng, 6, 60), inputs / f"c{i}.txt")
    _gaining_clock(monkeypatch, 0.1)
    started = time.monotonic()
    rc = run_cli(["mine", "--input", inputs, "--gadget-cnots", 6,
                  "--time-budget", 0.5, "--output", tmp_path / "out"])
    elapsed = time.monotonic() - started
    assert rc == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["circuits_skipped"] == 5
    assert 0 < manifest["subsets_examined"] <= 5 * mining.DEADLINE_STRIDE
    assert manifest["truncation_reasons"] == ["time_budget"]
    assert elapsed < 0.5 + 2.0


def test_mine_chunked_pool_matches_one_job(tmp_path):
    """24 circuits are split by stride across 2 and 3 forked workers;
    every output equals the --jobs 1 run's."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    rng = random.Random(24)
    for i in range(24):
        pairs = list(random_circuit(rng, 4, 6).pairs())
        pairs[i % 7:i % 7] = REF_3Q6_PAIRS[:2] * (1 + i % 3)
        save_circuit(Circuit.from_pairs(4, pairs), inputs / f"c{i:02d}.txt")
    for jobs in (1, 2, 3):
        rc = run_cli(["mine", "--input", inputs, "--gadget-cnots", 2,
                      "--jobs", jobs, "--output", tmp_path / f"j{jobs}"])
        assert rc == 0
    assert json.loads((tmp_path / "j1" / "report.json").read_text())
    for jobs in (2, 3):
        for name in ("report.json", "summary.csv"):
            assert (tmp_path / "j1" / name).read_bytes() == \
                (tmp_path / f"j{jobs}" / name).read_bytes()
        assert _mine_manifest(tmp_path / "j1") == \
            _mine_manifest(tmp_path / f"j{jobs}")


def test_mine_time_budget_with_chunked_pool(tmp_path, monkeypatch):
    """Each circuit a share mines still checks the deadline: 16 circuits
    go to 2 shares, each share's first circuit spends the 0.3 s budget at
    its fourth clock reading, and the run stops at the first cut root, in
    circuit 0, so the 15 circuits after it are skipped, circuit 1 (cut
    in the forked worker) included."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    rng = random.Random(6)
    for i in range(16):
        save_circuit(random_circuit(rng, 6, 60), inputs / f"c{i:02d}.txt")
    _gaining_clock(monkeypatch, 0.1)
    started = time.monotonic()
    rc = run_cli(["mine", "--input", inputs, "--gadget-cnots", 6,
                  "--time-budget", 0.3, "--jobs", 2,
                  "--output", tmp_path / "out"])
    elapsed = time.monotonic() - started
    assert rc == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["circuits_skipped"] == 15
    assert manifest["truncation_reasons"] == ["time_budget"]
    assert elapsed < 0.3 + 2.0


def test_mine_time_budget_skips_no_circuit_with_nothing_to_mine(tmp_path):
    """A one-gate circuit has no 2-gate set to test, so a spent budget
    skips nothing and truncates nothing."""
    save_circuit(Circuit.from_pairs(2, [(0, 1)]), tmp_path / "one.txt")
    rc = run_cli(["mine", "--input", tmp_path / "one.txt",
                  "--gadget-cnots", 2, "--time-budget", 0,
                  "--output", tmp_path / "out"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["circuits_skipped"] == 0
    assert manifest["truncation_reasons"] == []


def test_mine_time_budget_covers_grouping(tmp_path, monkeypatch):
    """Two rounds of a 12-qubit brickwork ring give 322 candidates at
    C_g = 12.  Mining fits in the budget, but the clock grouping reads is
    past it, so certification stops at the first check: the run is
    truncated and reports the candidates certified before it."""
    save_circuit(brickwork_ring(12), tmp_path / "ring.txt")
    certified = []
    cert = canon.certificate
    monkeypatch.setattr(canon, "certificate",
                        lambda g, *a: certified.append(g) or cert(g, *a))
    monkeypatch.setattr(canon, "monotonic", lambda: math.inf)
    rc = run_cli(["mine", "--input", tmp_path / "ring.txt",
                  "--gadget-cnots", 12, "--time-budget", 60,
                  "--output", tmp_path / "out"])
    assert rc == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["truncated"] is True
    assert manifest["truncation_reasons"] == ["time_budget"]
    assert manifest["circuits_skipped"] == 0
    assert manifest["candidates"] == len(certified) == canon.DEADLINE_STRIDE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sum(cls["n_r"] for cls in report) <= canon.DEADLINE_STRIDE


def test_mine_rejects_negative_max_candidates(tmp_path, capsys):
    rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                  "--max-candidates", -1, "--output", tmp_path / "out"])
    assert rc == 1
    assert "--max-candidates" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--jobs", 0), ("--jobs", -4), ("--min-repeats", 0),
    ("--gadget-cnots", 0), ("--gadget-cnots", -3), ("--gadget-cnots", 33),
    ("--time-budget", "nan"), ("--time-budget", "inf"),
    ("--time-budget", -5)])
def test_mine_rejects_bad_arguments_before_mining(tmp_path, capsys,
                                                 monkeypatch, flag, value):
    def no_mining(*args, **kwargs):
        raise AssertionError("mined before the arguments were checked")

    monkeypatch.setattr(cli, "mine_circuit", no_mining)
    rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                  flag, value, "--output", tmp_path / "out"])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["mine", "--gadget-cnots", 3],
    ["mine", "--input", HOSTS, "--gadget-cnots", "three"],
    ["mines", "--input", HOSTS]])
def test_usage_errors_exit_1(capsys, argv):
    """A usage error exits 1 like any other error; 2 means a truncated
    mining run."""
    with pytest.raises(SystemExit) as exc_info:
        run_cli(argv)
    assert exc_info.value.code == 1
    assert "usage:" in capsys.readouterr().err


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_mine_forks_no_more_workers_than_circuits(tmp_path, monkeypatch):
    """--jobs 8 over 3 circuits makes 3 shares: this process mines one
    and forks 2 workers, reaps them all, and writes what --jobs 1
    writes."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    for jobs in (1, 8):
        rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                      "--jobs", jobs, "--output", tmp_path / f"j{jobs}"])
        assert rc == 0
    assert len(forks) == 2
    _assert_no_child_left()
    for name in ("report.json", "summary.csv"):
        assert (tmp_path / "j1" / name).read_bytes() == \
            (tmp_path / "j8" / name).read_bytes()


def test_mine_worker_exception_is_the_serial_error(tmp_path, monkeypatch,
                                                   capsys):
    """A worker's exception reaches the parent as the error --jobs 1
    reports: the one of the earliest failing circuit, although another
    worker fails later in input order but sooner in its own share."""
    mine = cli.mine_circuit

    def failing(circuit, c_g, cap, deadline):
        if circuit.name in ("host_b", "host_c"):
            raise ValueError(f"cannot mine {circuit.name}")
        return mine(circuit, c_g, cap, deadline)

    monkeypatch.setattr(cli, "mine_circuit", failing)
    errors = []
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                      "--jobs", jobs, "--output", out])
        assert rc == 1
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: cannot mine host_b\n"
    _assert_no_child_left()


def test_mine_worker_error_past_the_cap_is_not_raised(tmp_path,
                                                     monkeypatch):
    """A circuit past the cap's cut is never read, so its exception is
    not raised at --jobs 2, as --jobs 1 never mines it: circuit c0 alone
    lifts the run past a cap of 1, and c1, which raises, goes to the
    forked worker."""
    inputs = tmp_path / "in"
    save_ref_repeats(inputs)
    mine = cli.mine_circuit

    def failing(circuit, c_g, cap, deadline):
        if circuit.name == "c1":
            raise ValueError("cannot mine c1")
        return mine(circuit, c_g, cap, deadline)

    monkeypatch.setattr(cli, "mine_circuit", failing)
    for jobs in (1, 2):
        rc = run_cli(["mine", "--input", inputs, "--gadget-cnots", 2,
                      "--max-candidates", 1, "--jobs", jobs,
                      "--output", tmp_path / f"j{jobs}"])
        assert rc == 2
    for name in ("report.json", "summary.csv"):
        assert (tmp_path / "j1" / name).read_bytes() == \
            (tmp_path / "j2" / name).read_bytes()
    assert _mine_manifest(tmp_path / "j1") == _mine_manifest(tmp_path / "j2")
    _assert_no_child_left()


def test_mine_worker_without_result_is_an_error(tmp_path, monkeypatch,
                                                capsys):
    """A worker that exits without writing its share is an explicit
    error naming its exit status, not a partial report.  Only forked
    workers die: this process mines share 0."""
    parent = os.getpid()
    mine = cli.mine_circuit

    def dying(circuit, c_g, cap, deadline):
        if os.getpid() != parent:
            os._exit(3)
        return mine(circuit, c_g, cap, deadline)

    monkeypatch.setattr(cli, "mine_circuit", dying)
    rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                  "--jobs", 2, "--output", tmp_path / "out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mining worker ")
    assert "exited with status 3 without a result" in err
    assert not (tmp_path / "out").exists()
    _assert_no_child_left()


def test_mine_rejects_gadget_cnots_beyond_certificate_bound(tmp_path,
                                                           capsys):
    """A candidate has two nodes per gate, so C_g above MAX_CERT_NODES / 2
    could never be certified: the run fails before mining, instead of
    writing an empty report or failing after mining everything."""
    c_g = MAX_CERT_NODES // 2
    long = Circuit.from_pairs(2, [(0, 1), (1, 0)] * 20, name="long")
    save_circuit(long, tmp_path / "long.txt")
    rc = run_cli(["mine", "--input", tmp_path / "long.txt", "--gadget-cnots",
                  c_g + 1, "--output", tmp_path / "over"])
    assert rc == 1
    assert "--gadget-cnots" in capsys.readouterr().err
    assert not (tmp_path / "over" / "report.json").exists()
    rc = run_cli(["mine", "--input", tmp_path / "long.txt", "--gadget-cnots",
                  c_g, "--output", tmp_path / "at"])
    assert rc == 0
    assert json.loads((tmp_path / "at" / "report.json").read_text())


def test_mine_missing_input(tmp_path, capsys):
    rc = run_cli(["mine", "--input", tmp_path / "nope",
                  "--gadget-cnots", 2, "--output", tmp_path / "out"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    (tmp_path / "empty").mkdir()
    rc = run_cli(["mine", "--input", tmp_path / "empty",
                  "--gadget-cnots", 2, "--output", tmp_path / "out"])
    assert rc == 1
    assert "no circuit files" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_mine_rejects_output_holding_its_inputs(tmp_path, capsys):
    """An --output directory that directly holds a file the run reads is
    rejected before anything is mined or written: a gen corpus keeps its
    manifest, a circuit directory gains no report, and the check sees
    through another spelling of the directory."""
    corpus_dir = tmp_path / "c2"
    assert run_cli(["gen", "--n", 4, "--k", 1, "--d", 2, "--count", 2,
                    "--attempts", 300, "--seed", 9,
                    "--output", corpus_dir]) == 0
    plain = tmp_path / "plain"
    plain.mkdir()
    for f in HOSTS.iterdir():
        (plain / f.name).write_bytes(f.read_bytes())
    before = {d: _snapshot(d) for d in (corpus_dir, plain)}
    capsys.readouterr()
    for inputs, out in (([corpus_dir], corpus_dir),
                        ([plain], plain),
                        ([plain], tmp_path / "x" / ".." / "plain"),
                        ([plain / "host_a.txt"], plain),
                        ([HOSTS, corpus_dir], corpus_dir)):
        assert run_cli(["mine", "--input", *inputs, "--gadget-cnots", 2,
                        "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --output {out} holds input files\n")
    assert {d: _snapshot(d) for d in (corpus_dir, plain)} == before
    assert run_cli(["stats", corpus_dir]) == 0


def test_mine_rejects_a_corpus_without_entries(tmp_path, capsys):
    """A mine output directory is not a corpus, and a corpus with no
    entries is rejected as a directory with no circuit files is."""
    mined = tmp_path / "mined"
    assert run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                    "--output", mined]) == 0
    capsys.readouterr()
    assert run_cli(["mine", "--input", mined, "--gadget-cnots", 2,
                    "--output", tmp_path / "again"]) == 1
    assert capsys.readouterr().err == (
        f"error: {mined / 'manifest.json'}: entries is missing or not a "
        "list\n")
    empty = tmp_path / "empty"
    save_corpus(Corpus(), empty)
    assert run_cli(["mine", "--input", empty, "--gadget-cnots", 2,
                    "--output", tmp_path / "again"]) == 1
    assert capsys.readouterr().err == f"error: {empty}: no corpus entries\n"
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("case", ["no-entries", "empty-dir", "missing"])
def test_stats_and_mine_print_the_same_input_error(tmp_path, capsys, case):
    """stats and mine read their inputs under the same corpus rules, so a
    corpus without entries, a directory without circuit files and a
    missing path give each command the same one-line error."""
    p = tmp_path / case
    if case == "no-entries":
        save_corpus(Corpus(), p)
        want = f"{p}: no corpus entries"
    elif case == "empty-dir":
        p.mkdir()
        want = f"{p}: no circuit files"
    else:
        want = f"{p}: no such file or directory"
    for argv in (["stats", p],
                 ["mine", "--input", p, "--gadget-cnots", 2,
                  "--output", tmp_path / "out"]):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
    assert not (tmp_path / "out").exists()


def test_gen_rejects_an_output_holding_other_files(tmp_path, capsys):
    """gen writes into a directory only if it holds nothing but this
    corpus's files: a new manifest would hide circuit files from mine,
    leave a larger corpus's entries behind unlisted, or sit beside a
    mine report.  Writing the same corpus again is allowed."""
    gen = ["gen", "--n", 4, "--k", 1, "--d", 2, "--attempts", 300,
           "--seed", 9]
    plain = tmp_path / "plain"
    plain.mkdir()
    for f in HOSTS.iterdir():
        (plain / f.name).write_bytes(f.read_bytes())
    stale = tmp_path / "stale"
    assert run_cli([*gen, "--count", 4, "--output", stale]) == 0
    mined = tmp_path / "mined"
    assert run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                    "--output", mined]) == 0
    dirs = (plain, stale, mined)
    before = {d: _snapshot(d) for d in dirs}
    assert len(before[stale]) == 5
    capsys.readouterr()
    for out, first in zip(dirs, ("host_a.txt", "enc_0002.txt",
                                 "report.json")):
        assert run_cli([*gen, "--count", 2, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: {first!r} is not a file of this corpus\n")
    assert {d: _snapshot(d) for d in dirs} == before
    assert run_cli([*gen, "--count", 4, "--output", stale]) == 0
    assert _snapshot(stale) == before[stale]


def test_mine_rejects_an_output_holding_other_files(tmp_path, capsys):
    """mine writes report.json, summary.csv and manifest.json into a
    directory only if it holds nothing else: a report beside a gen corpus
    would replace the corpus's manifest.  Mining again into a mine output
    directory is allowed and writes the same bytes."""
    corpus_dir = tmp_path / "enc"
    assert run_cli(["gen", "--n", 4, "--k", 1, "--d", 2, "--count", 2,
                    "--attempts", 300, "--seed", 9,
                    "--output", corpus_dir]) == 0
    stray = tmp_path / "stray"
    stray.mkdir()
    (stray / "notes.md").write_text("mine output goes here\n")
    dirs = (corpus_dir, stray)
    before = {d: _snapshot(d) for d in dirs}
    capsys.readouterr()
    for out, first in zip(dirs, ("enc_0000.txt", "notes.md")):
        assert run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                        "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: {first!r} is not a file of this report\n")
    assert {d: _snapshot(d) for d in dirs} == before
    assert run_cli(["stats", corpus_dir]) == 0
    mined = tmp_path / "mined"
    runs = []
    for _ in range(2):
        assert run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2,
                        "--output", mined]) == 0
        runs.append(_snapshot(mined))
        runs[-1]["manifest.json"] = _mine_manifest(mined)
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == ["manifest.json", "report.json", "summary.csv"]


def test_gen_rejects_its_output_before_the_search(tmp_path, capsys,
                                                  monkeypatch):
    """The files a gen run could write are known before its search (the
    manifest and the entry files below --count), so a directory holding
    anything else is refused without searching."""
    def no_search(cfg):
        raise AssertionError("generate_encoders was called")

    monkeypatch.setattr(cli, "generate_encoders", no_search)
    out = tmp_path / "h"
    out.mkdir()
    for f in HOSTS.iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    before = _snapshot(out)
    assert run_cli(["gen", "--n", 12, "--k", 1, "--d", 4, "--seed", 3,
                    "--attempts", 40, "--count", 40, "--output", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {out}: 'host_a.txt' is not a file of this corpus\n")
    assert _snapshot(out) == before


def _no_search(*args):
    raise AssertionError("the search ran")


@pytest.mark.parametrize("command", [
    ["gen", "--n", 12, "--k", 1, "--d", 4, "--seed", 3, "--attempts", 40,
     "--count", 40],
    ["mine", "--input", HOSTS, "--gadget-cnots", 2],
], ids=["gen", "mine"])
def test_an_output_at_or_under_a_file_is_refused_before_the_search(
        tmp_path, capsys, monkeypatch, command):
    """An --output that is a file, or lies under one, cannot be written,
    so it is refused before any search."""
    monkeypatch.setattr(cli, "generate_encoders", _no_search)
    monkeypatch.setattr(cli, "mine_circuit", _no_search)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub"):
        assert run_cli([*command, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --output {out} is not a directory\n")
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("text, error", [
    ("0 1\n0 5\n", "bad connectivity pair (0, 5) at line 2"),
    ("a b\n", "bad connectivity line 1: 'a b'"),
], ids=["pair", "line"])
def test_connectivity_errors_name_the_file(tmp_path, capsys, text, error):
    conn = tmp_path / "conn.txt"
    conn.write_text(text)
    assert run_cli(["gen", "--n", 3, "--connectivity", "file",
                    "--connectivity-file", conn,
                    "--output", tmp_path / "g"]) == 1
    assert capsys.readouterr().err == f"error: {conn}: {error}\n"
    assert conn.read_text() == text
    assert not (tmp_path / "g").exists()


def test_non_utf8_connectivity_and_manifest_name_their_file(tmp_path,
                                                            capsys):
    decode = "'utf-8' codec can't decode byte 0xff in position 0: " \
        "invalid start byte"
    conn = tmp_path / "conn.txt"
    conn.write_bytes(b"\xff0 1\n")
    assert run_cli(["gen", "--n", 2, "--k", 1, "--d", 1, "--connectivity",
                    "file", "--connectivity-file", conn,
                    "--output", tmp_path / "g"]) == 1
    assert capsys.readouterr().err == f"error: {conn}: {decode}\n"
    assert not (tmp_path / "g").exists()
    corpus_dir = tmp_path / "corpus"
    assert run_cli(["gen", "--n", 4, "--k", 1, "--d", 2, "--count", 2,
                    "--attempts", 300, "--seed", 9,
                    "--output", corpus_dir]) == 0
    manifest = corpus_dir / "manifest.json"
    manifest.write_bytes(b"\xff" + manifest.read_bytes())
    before = _snapshot(corpus_dir)
    capsys.readouterr()
    for argv in (["stats", corpus_dir],
                 ["mine", "--input", corpus_dir, "--gadget-cnots", 2,
                  "--output", tmp_path / "out"]):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {manifest}: {decode}\n"
    assert _snapshot(corpus_dir) == before
    assert not (tmp_path / "out").exists()


def test_mine_reads_upper_case_suffixes(tmp_path):
    (tmp_path / "d").mkdir()
    save_circuit(Circuit.from_pairs(3, REF_3Q6_PAIRS, name="h"),
                 tmp_path / "d" / "a.JSON")
    rc = run_cli(["mine", "--input", tmp_path / "d", "--gadget-cnots", 2,
                  "--output", tmp_path / "out"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [f["path"] for f in manifest["inputs"]] == [
        str(tmp_path / "d" / "a.JSON")]


def test_read_errors_name_the_file_once(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    bad = d / "bad.txt"
    bad.write_text("qubits 3\ncx 0 1\ncx 1 9\n")
    assert run_cli(["stats", d]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: qubit index out of range at line 3 "
        "(circuit has 3 qubits)\n")
    bad.write_bytes(b"\xffqubits 3\n")
    for argv in (["stats", d],
                 ["mine", "--input", d, "--gadget-cnots", 2,
                  "--output", tmp_path / "out"]):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: 'utf-8' codec can't decode byte 0xff in "
            "position 0: invalid start byte\n")
    assert not (tmp_path / "out").exists()


def test_mine_names_repeated_circuits_apart(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        save_circuit(Circuit.from_pairs(3, REF_3Q6_PAIRS, name="h"),
                     tmp_path / d / "h.txt")
    rc = run_cli(["mine", "--input", tmp_path / "a", tmp_path / "b",
                  "--gadget-cnots", 2, "--output", tmp_path / "out"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (cls,) = report
    assert [o["circuit"] for o in cls["occurrences"]] == ["h"] * 3 + ["h_1"] * 3


def test_output_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GADGETMINER_OUTPUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    rc = run_cli(["mine", "--input", HOSTS, "--gadget-cnots", 2])
    assert rc == 0
    assert (tmp_path / "envout" / "report.json").is_file()


def test_gen_stats_mine_pipeline(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    rc = run_cli(["gen", "--n", 4, "--k", 1, "--d", 2, "--count", 4,
                  "--attempts", 300, "--seed", 9, "--output", corpus_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 4 encoders" in out
    assert (corpus_dir / "manifest.json").is_file()
    assert len(list(corpus_dir.glob("enc_*.txt"))) == 4

    rc = run_cli(["stats", corpus_dir])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["size"] == 4
    assert set(stats["code_parameters"]) <= {
        "[[4,1,2]]", "[[4,1,3]]", "[[4,1,4]]"}

    rc = run_cli(["mine", "--input", corpus_dir, "--gadget-cnots", 2,
                  "--output", tmp_path / "mined"])
    assert rc in (0, 2)
    assert (tmp_path / "mined" / "report.json").is_file()


def test_stats_rejects_an_overstated_distance(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_cli(["gen", "--n", 4, "--k", 1, "--d", 2, "--count", 2,
                    "--attempts", 300, "--seed", 9,
                    "--output", corpus_dir]) == 0
    manifest_path = corpus_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["entries"][0]["distance"] = 99
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli(["stats", corpus_dir]) == 1
    assert "'enc_0000': distance 99 outside 1..4" in capsys.readouterr().err


def test_mine_corpus_hashes_the_files_its_manifest_names(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert run_cli(["gen", "--n", 4, "--k", 1, "--d", 2, "--count", 2,
                    "--attempts", 300, "--seed", 9,
                    "--output", corpus_dir]) == 0
    manifest_path = corpus_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["entries"][0]
    stale = corpus_dir / entry["file"]
    renamed = corpus_dir / "renamed.txt"
    stale.rename(renamed)
    entry["file"] = renamed.name
    manifest_path.write_text(json.dumps(manifest))
    # a file left under the entry's old name is not what the corpus reads
    stale.write_text("qubits 4\n")
    out = tmp_path / "mined"
    assert run_cli(["mine", "--input", corpus_dir, "--gadget-cnots", 2,
                    "--output", out]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    read = [manifest_path] + [corpus_dir / e["file"]
                              for e in manifest["entries"]]
    assert inputs == [
        {"path": str(f), "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}
        for f in read]
    assert str(renamed) in {item["path"] for item in inputs}
    assert str(stale) not in {item["path"] for item in inputs}


def test_gen_deterministic(tmp_path):
    args = ["gen", "--n", 4, "--k", 1, "--d", 2, "--count", 3,
            "--attempts", 300, "--seed", 21]
    assert run_cli(args + ["--output", tmp_path / "a"]) == 0
    assert run_cli(args + ["--output", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "manifest.json").read_bytes() == \
        (tmp_path / "b" / "manifest.json").read_bytes()


@pytest.mark.parametrize("argv, fixture", [
    (["--n", 6, "--k", 1, "--d", 2, "--seed", 7, "--attempts", 40,
      "--count", 8],
     "golden_gen_manifest.json"),
    # d = 3 makes the hill-climb score weight-2 Paulis too
    (["--n", 7, "--k", 1, "--d", 3, "--seed", 7, "--attempts", 24,
      "--count", 24],
     "golden_gen_manifest_d3.json"),
    # d = 4 scores weights 1-3 on 12 qubits
    (["--n", 12, "--k", 1, "--d", 4, "--seed", 3, "--attempts", 12,
      "--count", 2],
     "golden_gen_manifest_d4.json"),
    # two logical qubits on a line: 14 moves instead of 56
    (["--n", 8, "--k", 2, "--d", 2, "--connectivity", "nn", "--seed", 5,
      "--attempts", 30, "--count", 6],
     "golden_gen_manifest_nn_k2.json"),
], ids=["d2", "d3", "d4", "nn_k2"])
def test_gen_manifest_matches_golden(tmp_path, argv, fixture):
    rc = run_cli(["gen", *argv, "--output", tmp_path / "enc"])
    assert rc == 0
    manifest = (tmp_path / "enc" / "manifest.json").read_bytes()
    assert manifest == (FIXTURES / fixture).read_bytes()


def test_gen_single_qubit_both_methods(tmp_path):
    # one qubit has no pair to draw a gate from: both methods propose the
    # empty circuit, once per ancilla basis
    argv = ["gen", "--n", 1, "--k", 0, "--attempts", 20, "--seed", 1]
    entries = []
    for method in ("hillclimb", "random"):
        out = tmp_path / method
        assert run_cli([*argv, "--method", method, "--output", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entries.append(manifest["entries"])
        for entry in manifest["entries"]:
            assert load_circuit(out / entry["file"]).cx_count == 0
    assert entries[0] == entries[1]
    assert len(entries[0]) == 2


def test_gen_connectivity_file_needs_file_kind(tmp_path, capsys):
    conn = tmp_path / "conn.txt"
    conn.write_text("0 1\n1 2\n")
    rc = run_cli(["gen", "--n", 3, "--k", 1, "--d", 1, "--connectivity", "nn",
                  "--connectivity-file", conn, "--output", tmp_path / "c"])
    assert rc == 1
    assert "kind 'file', not 'nn'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_gen_refuses_too_many_qubits_before_building_pairs(
        tmp_path, capsys, monkeypatch):
    """All-to-all pairs on 3,000 qubits are 4.5 M; the bound refuses the
    request before any are built."""
    def no_pairs(*args, **kwargs):
        raise AssertionError("connectivity_pairs was called")

    monkeypatch.setattr(cli, "connectivity_pairs", no_pairs)
    rc = run_cli(["gen", "--n", 3000, "--k", 1, "--d", 3,
                  "--output", tmp_path / "c"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: generation needs brute-force distance checks, "
        "n=3000 > 15\n")
    assert not (tmp_path / "c").exists()


def test_gen_failure_exit_code(tmp_path, capsys):
    rc = run_cli(["gen", "--n", 3, "--k", 1, "--d", 3, "--attempts", 20,
                  "--output", tmp_path / "c"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "20 attempts" in err


@pytest.mark.parametrize("flag", ["--count", "--attempts", "--max-gates"])
def test_gen_rejects_a_zero_budget(tmp_path, capsys, flag):
    rc = run_cli(["gen", "--n", 5, "--k", 1, "--d", 2, flag, 0,
                  "--output", tmp_path / "c"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: max_gates, attempts and count must be >= 1\n")
    assert not (tmp_path / "c").exists()


def test_catalog_listing(capsys):
    assert run_cli(["catalog"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].startswith("DCX2")
    for line, spec in zip(lines, all_gadgets()):
        assert line.split()[0] == spec.name
        cert = certificate(circuit_to_graph(spec.as_circuit()))
        assert line.split("certificate=")[1] == certificate_digest(cert)[:12]


def test_catalog_circuit_output(tmp_path, capsys):
    assert run_cli(["catalog", "--family", "pl", "--generation", 2]) == 0
    text = capsys.readouterr().out
    assert text == "qubits 4\ncx 0 1\ncx 1 2\ncx 2 3\ncx 3 0\n"
    # round-trips through the parser
    p = tmp_path / "pl4.txt"
    p.write_text(text)
    assert load_circuit(p).cx_count == 4


def test_catalog_half_specified(capsys):
    assert run_cli(["catalog", "--family", "pl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_catalog_unknown_family(capsys):
    assert run_cli(["catalog", "--family", "xyz", "--generation", 1]) == 1
    assert capsys.readouterr().err == "error: unknown family 'XYZ'\n"


def test_canon_digest(capsys):
    path = HOSTS / "host_a.txt"
    assert run_cli(["canon", path]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == encoder_tableau(load_circuit(path)).digest()


# stdout of the commands below, pinned byte for byte
CANON_STDOUT = {
    "host_a.txt": "fffa870ae0eab12e51be3e7591776e6bd255adb6be46611cafb623b737d57b3a\n",
    "host_b.txt": "eee457ac8f98f95945bce9923e10fbc8611c143423c1c3f0d3a58bae2f376f72\n",
    "host_c.txt": "53b63c18fd10bb04df2058a0cdb8192030d3085cc3d257c0f2f5430c812096da\n",
}
STATS_HOSTS_STDOUT = """{
  "code_parameters": {
    "[[3,0,?]]": 1,
    "[[4,0,?]]": 1,
    "[[5,0,?]]": 1
  },
  "cx_count": {
    "max": 5,
    "mean": 4.0,
    "min": 3
  },
  "mean_generator_weight": 1.0,
  "size": 3
}
"""
STATS_GEN_STDOUT = """{
  "code_parameters": {
    "[[7,1,3]]": 20
  },
  "cx_count": {
    "max": 24,
    "mean": 14.8,
    "min": 10
  },
  "mean_generator_weight": 4.0,
  "size": 20
}
"""


@pytest.mark.parametrize("name", sorted(CANON_STDOUT))
def test_canon_stdout(capsys, name):
    assert run_cli(["canon", HOSTS / name]) == 0
    assert capsys.readouterr().out == CANON_STDOUT[name]


def test_stats_stdout(tmp_path, capsys):
    assert run_cli(["stats", HOSTS]) == 0
    assert capsys.readouterr().out == STATS_HOSTS_STDOUT
    assert run_cli(["gen", "--n", 7, "--k", 1, "--d", 3, "--seed", 7,
                    "--attempts", 200, "--count", 20,
                    "--output", tmp_path / "enc"]) == 0
    capsys.readouterr()
    assert run_cli(["stats", tmp_path / "enc"]) == 0
    assert capsys.readouterr().out == STATS_GEN_STDOUT


def test_stats_warns_of_a_duplicate_circuit(tmp_path, capsys):
    for name in ("a", "b"):
        save_circuit(Circuit.from_pairs(3, [(0, 1), (1, 2)]),
                     tmp_path / f"{name}.txt")
    assert run_cli(["stats", tmp_path]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: duplicate circuit 'b' matches entry 'a'\n"
    assert json.loads(captured.out)["size"] == 1


def test_stats_digests_each_corpus_entry_once(tmp_path, monkeypatch):
    """The digest load_corpus verifies is the one distinct compares."""
    assert run_cli(["gen", "--n", 5, "--k", 1, "--d", 2, "--seed", 3,
                    "--count", 5, "--output", tmp_path / "enc"]) == 0
    calls = []
    digest = corpus_module.entry_digest

    def counted(*args):
        calls.append(args)
        return digest(*args)

    monkeypatch.setattr(corpus_module, "entry_digest", counted)
    assert run_cli(["stats", tmp_path / "enc"]) == 0
    manifest = json.loads((tmp_path / "enc" / "manifest.json").read_text())
    assert len(calls) == len(manifest["entries"]) == 5


def test_canon_missing_file(tmp_path, capsys):
    assert run_cli(["canon", tmp_path / "none.txt"]) == 1
    assert "error:" in capsys.readouterr().err
