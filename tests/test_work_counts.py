"""Exact counts of the work that fixed inputs cost.

Counts of sets tested, kept sets, classes, canonical searches, slot
walks and forks do not move with the host or the interpreter, so they
show a change in the work that wall time on a noisy host cannot.  A
change that changes the work changes this table with it, and quotes
each count old -> new.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from gadgetminer import cli, kernels
from gadgetminer.canon import group_candidates
from gadgetminer.cli import main
from gadgetminer.mining import mine_circuit

from conftest import brickwork_ring, save_ref_repeats

HOSTS = Path(__file__).parent / "fixtures" / "hosts"

WORK_COUNTS = {
    # the two-round 12-qubit ring at C_g: (sets tested, kept, classes,
    # kernels.canonical_encoding calls, kernels._slot_walk calls)
    "ring": {8: (3_768, 0, 0, 0, 0),
             12: (70_762, 322, 46, 319, 7_656)},
    # mine at --jobs 1 over (inputs, C_g): the same five counts
    "corpus": {("gen", 6): (7_361, 1, 1, 1, 12),
               ("hosts", 2): (9, 3, 1, 1, 4)},
    # conftest.save_ref_repeats at C_g 2 under --max-candidates: the
    # manifest's subsets_examined, at every --jobs
    "capped": {1: 4, 5: 16, 30: 45},
    # (inputs, --max-candidates) at C_g 2: the sets all shares test, by
    # --jobs.  At --jobs 1 they are the manifest's subsets_examined; at
    # --jobs 2 and 8 the shares mine past the run's cut, which they do
    # not learn
    "shares": {("ref", 1): {1: 4, 2: 8, 8: 12},
               ("ref", 5): {1: 16, 2: 31, 8: 37},
               ("ref", 12): {1: 34, 2: 45, 8: 45},
               ("ref", 30): {1: 45, 2: 45, 8: 45},
               ("gen+hosts", 1): {1: 28, 2: 89, 8: 388}},
    # mine over tests/fixtures/hosts (3 circuits) at --jobs: processes
    # forked
    "forks": {2: 1, 8: 2},
    # mine --jobs 1 over gen+hosts (24 files: the gen manifest, its 20
    # entries and the 3 hosts): reads of input files
    "reads": 24,
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """The --input paths of each named input: conftest.save_ref_repeats,
    the 20 encoders of gen --n 7 --k 1 --d 3 --seed 7 --attempts 200
    --count 20, and tests/fixtures/hosts."""
    ref = tmp_path_factory.mktemp("inputs") / "ref"
    save_ref_repeats(ref)
    gen = ref.with_name("gen")
    assert main(["gen", "--n", "7", "--k", "1", "--d", "3", "--seed", "7",
                 "--attempts", "200", "--count", "20",
                 "--output", str(gen)]) == 0
    return {"ref": [str(ref)], "gen": [str(gen)], "hosts": [str(HOSTS)],
            "gen+hosts": [str(gen), str(HOSTS)]}


def _mine(paths, out, c_g, *options) -> dict:
    """Run mine over paths at c_g and return its manifest."""
    main(["mine", "--input", *paths, "--gadget-cnots", str(c_g), *options,
          "--output", str(out)])
    return json.loads((out / "manifest.json").read_text())


def _counting(monkeypatch, module, attr) -> list:
    calls = []
    fn = getattr(module, attr)
    monkeypatch.setattr(module, attr,
                        lambda *a: calls.append(None) or fn(*a))
    return calls


@pytest.mark.parametrize("c_g", sorted(WORK_COUNTS["ring"]))
def test_ring_work_counts(monkeypatch, c_g):
    searches = _counting(monkeypatch, kernels, "canonical_encoding")
    walks = _counting(monkeypatch, kernels, "_slot_walk")
    res = mine_circuit(brickwork_ring(12), c_g)
    classes = group_candidates(res.candidates)
    assert (res.subsets_examined, len(res.candidates), len(classes),
            len(searches), len(walks)) == WORK_COUNTS["ring"][c_g]


@pytest.mark.parametrize("name, c_g", sorted(WORK_COUNTS["corpus"]))
def test_corpus_work_counts(tmp_path, monkeypatch, inputs, name, c_g):
    searches = _counting(monkeypatch, kernels, "canonical_encoding")
    walks = _counting(monkeypatch, kernels, "_slot_walk")
    manifest = _mine(inputs[name], tmp_path, c_g)
    assert (manifest["subsets_examined"], manifest["candidates"],
            manifest["classes"], len(searches), len(walks)) == \
        WORK_COUNTS["corpus"][name, c_g]


@pytest.mark.parametrize("jobs", (1, 2, 8))
def test_capped_work_counts(tmp_path, inputs, jobs):
    for cap, examined in WORK_COUNTS["capped"].items():
        manifest = _mine(inputs["ref"], tmp_path / f"cap{cap}", 2,
                         "--max-candidates", str(cap), "--jobs", str(jobs))
        assert manifest["subsets_examined"] == examined


@pytest.mark.parametrize("jobs", (1, 2, 8))
def test_share_work_counts(tmp_path, monkeypatch, inputs, jobs):
    tested = []
    mine_shares = cli._mine_shares

    def summing(*args):
        shares = mine_shares(*args)
        tested.append(sum(res.subsets_examined
                          for results, _ in shares for res in results))
        return shares

    monkeypatch.setattr(cli, "_mine_shares", summing)
    for (name, cap), by_jobs in WORK_COUNTS["shares"].items():
        manifest = _mine(inputs[name], tmp_path / f"{name}{cap}", 2,
                         "--max-candidates", str(cap), "--jobs", str(jobs))
        assert tested[-1] == by_jobs[jobs]
        if jobs == 1:
            assert manifest["subsets_examined"] == tested[-1]


def test_read_work_counts(tmp_path, monkeypatch, inputs):
    """Each input file is read once, and the manifest's sha256 is that of
    its bytes."""
    dirs = {Path(p) for p in inputs["gen+hosts"]}
    reads = []
    with monkeypatch.context() as m:
        for name in ("read_bytes", "read_text"):
            def counting(self, *args, _read=getattr(Path, name), **kwargs):
                if self.parent in dirs:
                    reads.append(self)
                return _read(self, *args, **kwargs)

            m.setattr(Path, name, counting)
        manifest = _mine(inputs["gen+hosts"], tmp_path, 2)
    assert len(reads) == WORK_COUNTS["reads"]
    assert [item["path"] for item in manifest["inputs"]] == [
        str(f) for f in reads]
    for item in manifest["inputs"]:
        data = Path(item["path"]).read_bytes()
        assert item["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("jobs", sorted(WORK_COUNTS["forks"]))
def test_fork_work_counts(tmp_path, monkeypatch, jobs):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    assert main(["mine", "--input", str(HOSTS), "--gadget-cnots", "2",
                 "--jobs", str(jobs), "--output", str(tmp_path)]) == 0
    assert len(forks) == WORK_COUNTS["forks"][jobs]
