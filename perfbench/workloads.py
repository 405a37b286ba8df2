"""The benchmark's workloads: seeded inputs, commands and output checks.

Inputs are made in this process before any timing, from the workload
seed, and cached under ``.work/inputs`` by workload, sizing and seed.
The program under test only ever receives the files written here.

Input sizes are fixed in enumeration work, not in file count: hill-climb
encoders and planted hosts vary a lot in length, and mining cost grows
as C(gates, C_g), so each mine input is drawn until the sum of C(gates,
C_g) over its circuits reaches a fixed target.  That keeps the work of
one command nearly the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from common import BENCH, WORK

from gadgetminer.canon import certificate
from gadgetminer.catalog import FAMILIES, build_gadget, plant
from gadgetminer.circuit import Circuit, load_circuit, save_circuit
from gadgetminer.corpus import (
    MANIFEST_NAME,
    Corpus,
    GeneratorConfig,
    connectivity_pairs,
    generate_encoders,
    load_corpus,
    save_corpus,
)
from gadgetminer.graph import circuit_to_graph

import checks

PROBE = str(BENCH / "probe.py")
TRACER = str(BENCH / "tracer.py")

# code parameters of every generated encoder (the README baseline)
N, K, D = 7, 1, 3

# gen-hillclimb: --count equals --attempts, so every command makes
# exactly GEN_ATTEMPTS hill-climb proposals whatever the seed
GEN_ATTEMPTS = 24

# mine-encoders: hill-climb encoders are drawn ENC_BATCH at a time until
# some subset of them has a C(gates, 6) sum within ENC_TOLERANCE of
# ENC_SUBSETS (or ENC_BATCHES are spent); that subset is mined
ENC_CNOTS = 6
ENC_SUBSETS = 100_000
ENC_TOLERANCE = 0.02
ENC_BATCH = 3
ENC_BATCHES = 5
# hill-climb encoders almost never hold a kept 6-CNOT candidate, so an
# empty report would pass a mine that skipped its work.  A second input
# of witness hosts, each 2 of the 6-CNOT gadgets PL6 and O4 spliced like
# the mine-planted hosts, adds repeated classes for about 5% more subsets.
WITNESS_SPECS = (("PL", 3), ("O", 2))
WITNESS_GADGETS_PER_HOST = 2
WITNESS_SUBSETS = 5_000

# mine-planted: hosts of 3 catalog gadgets (generations 1-2) on random
# qubit maps, 0-1 random CNOTs between gadgets, drawn until the sum of
# C(gates, 4) over the hosts reaches PLANT_SUBSETS
PLANT_CNOTS = 4
PLANT_QUBITS = 8
PLANT_GADGETS_PER_HOST = 3
PLANT_SPECS = tuple((f, g) for f in FAMILIES for g in (1, 2))
PLANT_SUBSETS = 150_000
PLANT_JOBS = 2


@dataclass
class Inputs:
    """What one workload's commands read, plus what its checks expect."""

    seed: int
    paths: list = field(default_factory=list)  # mine --input
    circuits: list = field(default_factory=list)
    planted: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


def _cached(name: str, config: dict, seed: int, build) -> Path:
    """Directory holding this workload's inputs for the seed, built once."""
    key = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    root = WORK / "inputs" / f"{name}-{key.hexdigest()[:10]}-{seed}"
    if not (root / "done").is_file():
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        meta = build(root, seed)
        (root / "meta.json").write_text(json.dumps(meta, sort_keys=True))
        (root / "done").write_text("")
    return root


def closest_subset(weights: list[int], target: int) -> tuple[int, ...]:
    """Indices of a non-empty subset whose weight sum is closest to the
    target.  Subsets are grown in index order and the first one reaching
    each sum is kept, so the choice is deterministic."""
    first: dict[int, tuple[int, ...]] = {0: ()}
    for i, w in enumerate(weights):
        for total, idx in list(first.items()):
            first.setdefault(total + w, idx + (i,))
    del first[0]
    return min(first.items(), key=lambda kv: abs(kv[0] - target))[1]


def encoder_corpus(seed: int) -> Corpus:
    """Hill-climb encoders whose C(gates, 6) sum is close to ENC_SUBSETS,
    renamed enc_0000... in the order they were drawn."""
    pool = []
    for batch in range(ENC_BATCHES):
        pool += generate_encoders(GeneratorConfig(
            n=N, k=K, target_d=D, connectivity=connectivity_pairs("all", N),
            connectivity_name="all", attempts=200,
            seed=seed * ENC_BATCHES + batch, method="hillclimb",
            count=ENC_BATCH)).entries
        weights = [math.comb(e.circuit.cx_count, ENC_CNOTS) for e in pool]
        keep = closest_subset(weights, ENC_SUBSETS)
        total = sum(weights[i] for i in keep)
        if abs(total - ENC_SUBSETS) <= ENC_TOLERANCE * ENC_SUBSETS:
            break
    entries = []
    for i in keep:
        e = pool[i]
        name = f"enc_{len(entries):04d}"
        entries.append(replace(e, name=name, circuit=Circuit(
            e.circuit.n_qubits, e.circuit.gates, name=name)))
    return Corpus(entries)


def planted_hosts(seed: int, target: int, specs=PLANT_SPECS,
                  per_host: int = PLANT_GADGETS_PER_HOST,
                  c_g: int = PLANT_CNOTS, prefix: str = "host"):
    """Hosts of ``per_host`` catalog gadgets (drawn from ``specs``) on
    random qubit maps of a PLANT_QUBITS register, with 0-1 random CNOTs
    between gadgets, drawn until their C(gates, c_g) sum is the target (to
    within the smallest host's); and the planting count per gadget name."""
    rng = random.Random(seed)
    specs = [build_gadget(f, g) for f, g in specs]
    hosts: list[Circuit] = []
    counts: dict[str, int] = {}
    total = 0
    smallest = math.comb(per_host * min(s.cx_count for s in specs), c_g)
    while target - total >= smallest:
        host = Circuit.from_pairs(PLANT_QUBITS, ())
        chosen = []
        for i in range(per_host):
            if i and rng.random() < 0.5:
                pairs = host.pairs() + [tuple(rng.sample(range(PLANT_QUBITS), 2))]
                host = Circuit.from_pairs(PLANT_QUBITS, pairs)
            spec = rng.choice(specs)
            qubits = rng.sample(range(PLANT_QUBITS), spec.qubits_touched)
            host = plant(host, spec, qubits, host.cx_count)
            chosen.append(spec)
        weight = math.comb(host.cx_count, c_g)
        if total + weight > target:
            continue
        total += weight
        name = f"{prefix}_{len(hosts):04d}"
        hosts.append(Circuit(host.n_qubits, host.gates, name=name))
        for spec in chosen:
            counts[spec.name] = counts.get(spec.name, 0) + 1
    return hosts, counts


def planted_certificates(counts: dict[str, int], specs,
                         c_g: int) -> dict[str, int]:
    """Planting count per certificate (hex) of every planted gadget with
    exactly c_g CNOTs, the only ones that can be mined as one class."""
    specs = {s.name: s for s in (build_gadget(f, g) for f, g in specs)}
    found = {}
    for name, count in sorted(counts.items()):
        spec = specs[name]
        if spec.cx_count == c_g:
            found[certificate(circuit_to_graph(spec.as_circuit())).hex()] = count
    return found


def save_hosts(hosts, directory: Path) -> None:
    directory.mkdir(parents=True)
    for h in hosts:
        save_circuit(h, directory / f"{h.name}.txt")


def load_hosts(directory: Path) -> list:
    return [load_circuit(p) for p in sorted(directory.glob("*.txt"))]


class Workload:
    """One workload; BENCHMARK.json and README.md say why it was chosen."""

    name = ""
    jobs = 1  # --jobs of the timed command; traced commands use 1
    mine = True
    c_g = 0

    def prepare(self, seed: int) -> Inputs:
        raise NotImplementedError

    def command(self, inputs: Inputs, out: Path, jobs: int | None = None,
                spans: Path | None = None) -> list[str]:
        """argv of the command at --jobs (default: the timed value), run
        under the tracer, which writes to ``spans``, when that is given."""
        args = self.cli_args(inputs, out, self.jobs if jobs is None else jobs)
        if spans is not None:
            return [sys.executable, TRACER, str(spans)] + args
        return [sys.executable, "-m", "gadgetminer"] + args

    def cli_args(self, inputs: Inputs, out: Path, jobs: int) -> list[str]:
        raise NotImplementedError

    def probe(self, inputs: Inputs) -> list[str]:
        """argv of the set-up probe: import the CLI, load the inputs."""
        raise NotImplementedError

    def check(self, inputs: Inputs, out: Path) -> None:
        """Full check of one output; raises on a wrong output."""
        raise NotImplementedError

    def check_counters(self, inputs: Inputs, out: Path, layer: dict) -> None:
        """Traced counters against the inputs and the output manifest."""


class GenHillclimb(Workload):
    """The only input is the seed, which gen receives as --seed."""

    name = "gen-hillclimb"
    mine = False

    def prepare(self, seed: int) -> Inputs:
        return Inputs(seed)

    def cli_args(self, inputs, out, jobs):
        return ["gen", "--n", str(N), "--k", str(K), "--d", str(D),
                "--method", "hillclimb", "--connectivity", "all",
                "--seed", str(inputs.seed),
                "--attempts", str(GEN_ATTEMPTS), "--count", str(GEN_ATTEMPTS),
                "--output", str(out)]

    def probe(self, inputs):
        return [sys.executable, PROBE]

    def check(self, inputs, out):
        checks.check_gen(out, N, K, D, GEN_ATTEMPTS, inputs.seed)

    def check_counters(self, inputs, out, layer):
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        entries = len(manifest["entries"])
        checks.require(layer["corpus.attempts"] == GEN_ATTEMPTS,
                       f"corpus.attempts {layer['corpus.attempts']}")
        checks.require(layer["corpus.accepted"] == entries,
                       f"corpus.accepted {layer['corpus.accepted']} != "
                       f"{entries} entries")


class MineWorkload(Workload):
    """Mine inputs are made once per seed and cached with the output a
    complete mine of them must write (``checks.expected_mine``)."""

    config: dict = {}

    def make(self, root: Path, seed: int) -> dict[str, int]:
        """Write the input directories under root; returns the planting
        count per certificate (hex) of the gadgets the report must show."""
        raise NotImplementedError

    def read(self, root: Path) -> tuple[list[Path], list]:
        """The ``mine --input`` paths under root, and their circuits in
        the order the CLI reads them, through the program's loaders."""
        raise NotImplementedError

    def prepare(self, seed: int) -> Inputs:
        def build(root, s):
            planted = self.make(root, s)
            return {"planted": planted, "expected": checks.expected_mine(
                self.read(root)[1], self.c_g)}

        root = _cached(self.name, self.config, seed, build)
        meta = json.loads((root / "meta.json").read_text())
        paths, circuits = self.read(root)
        return Inputs(seed, paths, circuits, meta["planted"], meta["expected"])

    def probe(self, inputs):
        return [sys.executable, PROBE] + [str(p) for p in inputs.paths]

    def check(self, inputs, out):
        report = checks.check_mine(out, inputs.expected, len(inputs.circuits))
        checks.check_planted(report, inputs.planted)

    def check_counters(self, inputs, out, layer):
        total = sum(math.comb(c.cx_count, self.c_g) for c in inputs.circuits)
        checks.require(layer["mining.subsets_total"] == total,
                       f"mining.subsets_total {layer['mining.subsets_total']}"
                       f" != sum of C(C_T, c_g) {total}")
        want = inputs.expected
        for key, count in (("mining.kept", want["candidates"]),
                           ("canon.certificates", want["candidates"]),
                           ("canon.classes", want["classes"])):
            checks.require(layer[key] == count,
                           f"{key} {layer[key]} != {count} found by the "
                           "harness")

    def cli_args(self, inputs, out, jobs):
        return (["mine", "--input"] + [str(p) for p in inputs.paths]
                + ["--gadget-cnots", str(self.c_g), "--jobs", str(jobs),
                   "--output", str(out)])


class MineEncoders(MineWorkload):
    name = "mine-encoders"
    c_g = ENC_CNOTS
    config = {"code": [N, K, D], "c_g": ENC_CNOTS, "subsets": ENC_SUBSETS,
              "tolerance": ENC_TOLERANCE, "batch": ENC_BATCH,
              "batches": ENC_BATCHES, "witness": WITNESS_SPECS,
              "witness_per_host": WITNESS_GADGETS_PER_HOST,
              "witness_subsets": WITNESS_SUBSETS}

    def make(self, root, seed):
        save_corpus(encoder_corpus(seed), root / "corpus")
        hosts, counts = planted_hosts(seed, WITNESS_SUBSETS, WITNESS_SPECS,
                                      WITNESS_GADGETS_PER_HOST, ENC_CNOTS,
                                      "witness")
        save_hosts(hosts, root / "witness")
        return planted_certificates(counts, WITNESS_SPECS, ENC_CNOTS)

    def read(self, root):
        corpus, witness = root / "corpus", root / "witness"
        return ([corpus, witness],
                load_corpus(corpus).circuits() + load_hosts(witness))


class MinePlanted(MineWorkload):
    name = "mine-planted"
    c_g = PLANT_CNOTS
    jobs = PLANT_JOBS
    config = {"c_g": PLANT_CNOTS, "subsets": PLANT_SUBSETS,
              "qubits": PLANT_QUBITS, "per_host": PLANT_GADGETS_PER_HOST,
              "specs": PLANT_SPECS}

    def make(self, root, seed):
        hosts, counts = planted_hosts(seed, PLANT_SUBSETS)
        save_hosts(hosts, root / "hosts")
        return planted_certificates(counts, PLANT_SPECS, PLANT_CNOTS)

    def read(self, root):
        return [root / "hosts"], load_hosts(root / "hosts")


WORKLOADS = {w.name: w for w in (GenHillclimb(), MineEncoders(), MinePlanted())}
