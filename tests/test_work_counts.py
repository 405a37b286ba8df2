"""Exact counts of the work that fixed inputs cost.

Counts of sets tested, kept sets, classes, canonical searches, slot
walks and forks do not move with the host or the interpreter, so they
show a change in the work that wall time on a noisy host cannot.  A
change that changes the work changes this table with it, and quotes
each count old -> new.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from gadgetminer import kernels
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
    # conftest.save_ref_repeats at C_g 2 under --max-candidates: the
    # manifest's subsets_examined, at every --jobs
    "capped": {1: 4, 5: 16, 30: 45},
    # mine over tests/fixtures/hosts (3 circuits) at --jobs: processes
    # forked
    "forks": {2: 1, 8: 2},
}


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


@pytest.mark.parametrize("jobs", (1, 2, 8))
def test_capped_work_counts(tmp_path, jobs):
    inputs = tmp_path / "in"
    save_ref_repeats(inputs)
    for cap, examined in WORK_COUNTS["capped"].items():
        out = tmp_path / f"cap{cap}"
        main(["mine", "--input", str(inputs), "--gadget-cnots", "2",
              "--max-candidates", str(cap), "--jobs", str(jobs),
              "--output", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subsets_examined"] == examined


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
