"""Circuit corpora: input reading, encoder generation, statistics, disk format.

A corpus is an ordered list of entries.  An entry's digest, the tableau
digest of the encoding unitary (with basis-flip prefixes for |+>
ancillas), identifies exactly the circuits implementing the same
Clifford map; generation and distinct keep one entry per digest.  The
manifest also stores each entry's canonical digest, of the reduced row
echelon form of the stabilizer rows: it identifies the code the encoder
prepares, a coarser key than the tableau digest, as different encoders
can prepare the same code.

Corpus directory layout: one circuit text file per entry plus
manifest.json carrying digests, per-entry code data, the generator config
and seed, and FORMAT_VERSION, which mine manifests carry too.
read_inputs reads the inputs of mine and stats, and check_output holds
the rule for every output directory.

All generator randomness flows through random.Random (Mersenne Twister)
seeded with the config's 64-bit seed, so corpora are reproducible
byte-for-byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

from . import kernels
from .circuit import Circuit, load_circuit, parse_decimal, serialize_circuit
from .tableau import encoder_tableau, rows_digest

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1
CIRCUIT_SUFFIXES = (".txt", ".json")


class CorpusError(ValueError):
    """Raised for malformed or empty corpora and bad generator configs."""


class GenerationError(RuntimeError):
    """Raised when encoder search exhausts its attempt budget."""


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def connectivity_pairs(kind: str, n: int,
                       path: str | Path | None = None) -> tuple[tuple[int, int], ...]:
    """Undirected qubit pairs for a named pattern: all-to-all, nearest
    neighbor on a line, next-to-nearest neighbor, or one "a b" pair per
    line from a file (the path is given for that kind only)."""
    if path is not None and kind != "file":
        raise CorpusError(
            f"a connectivity file needs connectivity kind 'file', not {kind!r}")
    if kind == "all":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "nn":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "nnn":
        pairs = [(i, i + 1) for i in range(n - 1)]
        pairs += [(i, i + 2) for i in range(n - 2)]
    elif kind == "file":
        if path is None:
            raise CorpusError("connectivity kind 'file' needs a path")
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: {exc}") from None
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                a, b = map(parse_decimal, line.split())
            except ValueError:
                raise CorpusError(
                    f"{path}: bad connectivity line {lineno}: {raw!r}"
                ) from None
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise CorpusError(f"{path}: bad connectivity pair "
                                  f"({a}, {b}) at line {lineno}")
            pairs.append((min(a, b), max(a, b)))
    else:
        raise CorpusError(f"unknown connectivity kind {kind!r}")
    return tuple(sorted(set(pairs)))


def _pairs_connected(pairs, n: int) -> bool:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return n <= 1 or len({find(i) for i in range(n)}) == 1


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    k: int
    target_d: int
    connectivity: tuple[tuple[int, int], ...]
    max_gates: int = 25
    attempts: int = 2000
    seed: int = 0
    method: str = "hillclimb"
    count: int = 20
    connectivity_name: str = ""

    def __post_init__(self):
        for name in ("n", "k", "target_d", "max_gates", "attempts", "seed",
                     "count"):
            value = getattr(self, name)
            if type(value) is not int:
                raise CorpusError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.k < self.n:
            raise CorpusError(f"need 0 <= k < n, got k={self.k} n={self.n}")
        if self.target_d < 1:
            raise CorpusError(f"target distance {self.target_d} must be >= 1")
        if type(self.connectivity_name) is not str:
            raise CorpusError("connectivity_name must be a string, got "
                              f"{self.connectivity_name!r}")
        if self.method not in ("random", "hillclimb"):
            raise CorpusError(f"unknown method {self.method!r}")
        if self.max_gates < 1 or self.attempts < 1 or self.count < 1:
            raise CorpusError("max_gates, attempts and count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise CorpusError("seed must fit in 64 bits")
        for a, b in self.connectivity:
            if (type(a) is not int or type(b) is not int or a == b
                    or not (0 <= a < self.n and 0 <= b < self.n)):
                raise CorpusError(f"bad connectivity pair ({a}, {b})")
        if self.n > 1 and not _pairs_connected(self.connectivity, self.n):
            raise CorpusError("connectivity does not connect all qubits")

    def to_json_dict(self) -> dict:
        """Every field by name; the connectivity pairs become lists."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["connectivity"] = [list(p) for p in self.connectivity]
        return obj

    @classmethod
    def from_json_dict(cls, obj: dict) -> GeneratorConfig:
        """Inverse of to_json_dict.  Every key is required (a missing one
        raises KeyError) except connectivity_name, which reads as ""."""
        obj = {"connectivity_name": "", **obj}
        kw = {f.name: obj[f.name] for f in fields(cls)}
        kw["connectivity"] = tuple((a, b) for a, b in kw["connectivity"])
        return cls(**kw)


@dataclass(frozen=True)
class CorpusEntry:
    """One circuit with its code data.

    k counts the logical (non-ancilla) qubits, 0 when unknown; x_ancillas
    lists ancillas prepared in |+> instead of |0>; distance is the exact
    code distance when it has been computed."""

    name: str
    circuit: Circuit
    origin: str
    k: int = 0
    x_ancillas: tuple[int, ...] = ()
    distance: int | None = None

    @cached_property
    def digest(self) -> str:
        """The dedup key, entry_digest of the circuit and its |+> ancillas,
        computed once: distinct reuses the digest load_corpus verified."""
        return entry_digest(self.circuit, self.x_ancillas)


@dataclass
class Corpus:
    """Entries in order; files lists every file read, in reading order:
    a circuit file, or a corpus's manifest and then the file each of its
    entries names."""

    entries: list[CorpusEntry] = field(default_factory=list)
    config: GeneratorConfig | None = None
    warnings: list[str] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def circuits(self) -> list[Circuit]:
        return [e.circuit for e in self.entries]


def entry_digest(circuit: Circuit, x_ancillas=()) -> str:
    """Dedup key: digest of the full encoding tableau."""
    return encoder_tableau(circuit, x_ancillas).digest()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def circuit_files(path) -> list[Path]:
    """The circuit files of a directory in name order, or the path itself.
    A missing path or a directory without circuit files is a CorpusError."""
    p = Path(path)
    if p.is_dir():
        files = sorted(f for f in p.iterdir()
                       if f.is_file() and f.suffix.lower() in CIRCUIT_SUFFIXES)
        if not files:
            raise CorpusError(f"{p}: no circuit files")
        return files
    if not p.exists():
        raise CorpusError(f"{p}: no such file or directory")
    return [p]


def read_inputs(paths) -> Corpus:
    """Circuit files, directories of circuit files and corpus directories
    (those holding a manifest), read literally in input order, so repeats
    stay; a circuit file becomes an ingested entry.  A nameless circuit
    is named circuit_NNNN by its position, and a name an earlier entry
    took gets the first free suffix _1, _2, ...; an entry whose name is
    free is kept as it was read."""
    corpus = Corpus()
    taken: set[str] = set()
    for raw in paths:
        p = Path(raw)
        if (p / MANIFEST_NAME).is_file():
            part = load_corpus(p)
            entries, files = part.entries, part.files
        else:
            files = circuit_files(p)
            entries = [CorpusEntry(c.name, c, "ingested")
                       for c in map(load_circuit, files)]
        corpus.files += files
        for e in entries:
            name = base = e.name or f"circuit_{len(corpus.entries):04d}"
            i = 1
            while name in taken:
                name = f"{base}_{i}"
                i += 1
            taken.add(name)
            if name != e.name:
                e = replace(e, name=name, circuit=replace(e.circuit, name=name))
            corpus.entries.append(e)
    return corpus


def distinct(corpus: Corpus) -> Corpus:
    """corpus without each entry whose digest an earlier entry has, with
    one warning per entry dropped."""
    seen: dict[str, str] = {}
    kept, warnings = [], list(corpus.warnings)
    for e in corpus.entries:
        digest = e.digest
        if digest in seen:
            warnings.append(f"duplicate circuit {e.name!r} matches entry "
                            f"{seen[digest]!r}")
        else:
            seen[digest] = e.name
            kept.append(e)
    return replace(corpus, entries=kept, warnings=warnings)


# ---------------------------------------------------------------------------
# Encoder generation
# ---------------------------------------------------------------------------


def encoder_name(index: int) -> str:
    """The name of the index-th encoder generate_encoders keeps."""
    return f"enc_{index:04d}"


def _canonical_generators(t, k: int) -> list[int]:
    """Canonical rows of the state an encoder with k logical qubits and
    tableau t prepares: the images of ancilla wires k..n-1,
    encoder_tableau's stabilizer rows n + k onwards."""
    return kernels.canonical_rows(t.rows[t.n + k:])


def _list_logicals(sl: list[int], ws: list[int], w: int, logicals) -> None:
    """Give each weight-w logical a bit no listed logical holds and set it
    in ws[w] and, per letter, in sl: bit i of sl[q] (X on qubit q, Z at
    q + n, as in the logical's row) and of ws[w] says that listed logical
    i has that letter or weight w."""
    live = 0
    for m in ws:
        live |= m
    for v in logicals:
        bit = ~live & (live + 1)
        live |= bit
        ws[w] |= bit
        while v:
            low = v & -v
            sl[low.bit_length() - 1] |= bit
            v ^= low


def _move_scores(sl: list[int], ws: list[int], n: int, directed):
    """Violation profile (counts of undetected nontrivial Paulis at each
    weight below the bound) after each move in directed, from the listed
    logicals of weight up to the bound len(ws) - 1; and per move its up
    and down masks, the listed logicals whose weight it raises or lowers
    by one.

    A CNOT a -> b conjugates the code, and on {a, b} a logical's weight
    stays 1 or 2 and changes where it flips: X on a spreads to b, Z on b
    spreads to a."""
    ups, downs = [], []
    for a, b in directed:
        xa, za, xb, zb = sl[a], sl[a + n], sl[b], sl[b + n]
        was = (xa | za) & (xb | zb)
        now = (xa | za ^ zb) & (xb ^ xa | zb)
        ups.append(now & ~was)
        downs.append(was & ~now)
    # one column of counts per weight w, from ws[w - 1], ws[w], ws[w + 1]
    cols = [[(mid & ~(up | down) | lo & up | hi & down).bit_count()
             for up, down in zip(ups, downs)]
            for lo, mid, hi in zip(ws, ws[1:], ws[2:])]
    return list(zip(*cols)) or [()] * len(directed), ups, downs


def _apply_move(gens: list[int], sl: list[int], ws: list[int], n: int,
                a: int, b: int, up: int, down: int) -> None:
    """Carry the generators and the listed logicals in sl and ws across the
    move a -> b in place, given the move's up and down masks from
    _move_scores: the generators and logicals are conjugated, the
    logicals the move lifts past the bound are dropped, and those it
    brings down into the bound are listed."""
    top = len(ws) - 1
    same = ~(up | down)
    gone = ws[top] & up
    sl[b] ^= sl[a]
    sl[a + n] ^= sl[b + n]
    ws[1:] = [mid & same | lo & up | hi & down
              for lo, mid, hi in zip(ws, ws[1:], ws[2:] + [0])]
    if gone:
        keep = ~gone
        sl[:] = [s & keep for s in sl]
    kernels.cnot_rows(gens, n, a, b)
    _list_logicals(sl, ws, top, kernels.logicals_entering(gens, n, top, a, b))


def _propose_hillclimb(sub: random.Random, cfg: GeneratorConfig, directed, x_set):
    """Greedy gate appension scored by the violation profile, with a random
    kick on plateaus.  Stops as soon as the profile is clean.  The climb
    starts from the generators the empty circuit prepares, X_q for a |+>
    ancilla q and Z_q for the others; one walk lists the logicals up to
    target_d, and each move carries the generators and the list on.
    A k = 0 code has no logicals, so its profile is clean at the start."""
    if not cfg.k:
        return []
    n, d = cfg.n, cfg.target_d
    gens = [1 << q if q in x_set else 1 << q + n for q in range(cfg.k, n)]
    sl = [0] * (2 * n)
    ws = [0] * (d + 1)
    for w, found in enumerate(kernels.logicals_by_weight(gens, n, d), 1):
        _list_logicals(sl, ws, w, found)
    gates: list[tuple[int, int]] = []
    target = (0,) * (d - 1)
    cur = tuple(m.bit_count() for m in ws[1:d])
    while cur != target and len(gates) < cfg.max_gates:
        scores, ups, downs = _move_scores(sl, ws, n, directed)
        best = min(scores)
        if best < cur:
            ties = [i for i, s in enumerate(scores) if s == best]
            i = ties[sub.randrange(len(ties))]
        else:
            i = sub.randrange(len(directed))
        a, b = directed[i]
        _apply_move(gens, sl, ws, n, a, b, ups[i], downs[i])
        gates.append((a, b))
        cur = scores[i]
    return gates


def generate_encoders(cfg: GeneratorConfig) -> Corpus:
    """Propose connectivity-respecting CNOT encoders until cfg.count
    distinct ones meet the target distance or attempts run out.

    Each attempt draws its own |+>-ancilla subset and gate randomness from
    a per-attempt stream split off the seed, proposes max_gates random
    directed pairs or a hill climb's circuit, and keeps the circuit iff no
    logical operator of weight < target_d exists.  One encoder tableau per
    attempt gives the generators, whose single logical walk finds the
    exact distance, and the dedup digest.  A k = 0 code runs no walk: its
    n independent commuting generators span every Pauli that commutes with
    them, so it has no logical and no distance."""
    if cfg.n > 15:
        raise CorpusError(
            f"generation needs brute-force distance checks, n={cfg.n} > 15")
    directed = []
    for a, b in cfg.connectivity:
        directed.append((a, b))
        directed.append((b, a))
    directed.sort()
    rng = random.Random(cfg.seed)
    corpus = Corpus(config=cfg)
    seen: set[str] = set()
    ancillas = list(range(cfg.k, cfg.n))
    best_distance = 0
    for attempt in range(cfg.attempts):
        sub = random.Random(rng.getrandbits(63))
        x_set = frozenset(q for q in ancillas if sub.random() < 0.5)
        if cfg.method == "hillclimb":
            gates = _propose_hillclimb(sub, cfg, directed, x_set)
        else:
            # one qubit has no pair: the empty circuit, as the hill
            # climb proposes
            gates = [directed[sub.randrange(len(directed))]
                     for _ in range(cfg.max_gates if directed else 0)]
        circuit = Circuit.from_pairs(
            cfg.n, gates, name=encoder_name(len(corpus.entries)))
        t = encoder_tableau(circuit, x_set)
        distance = None
        if cfg.k:
            distance = kernels.min_logical_weight(
                t.rows[cfg.n + cfg.k:], cfg.n, cfg.n)
            best_distance = max(best_distance, distance)
            if distance < cfg.target_d:
                continue
        digest = t.digest()
        if digest in seen:
            continue
        seen.add(digest)
        corpus.entries.append(CorpusEntry(
            name=circuit.name,
            circuit=circuit,
            origin="generated",
            k=cfg.k,
            x_ancillas=tuple(sorted(x_set)),
            distance=distance,
        ))
        if len(corpus.entries) >= cfg.count:
            break
    if not corpus.entries:
        raise GenerationError(
            f"no encoder found within {cfg.attempts} attempts: "
            f"best distance {best_distance} < target {cfg.target_d}")
    if len(corpus.entries) < cfg.count:
        corpus.warnings.append(
            f"found {len(corpus.entries)} of {cfg.count} encoders "
            f"within {cfg.attempts} attempts")
    return corpus


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def corpus_stats(corpus: Corpus) -> dict:
    """Per-corpus CX-count aggregates, mean canonical generator weight
    (pooled over all entries' generators), and a code-parameter histogram.

    An ingested circuit always adds generators of weight 1: its k and |+>
    ancillas are unknown, so its state is taken as the image of |0...0>,
    and CNOTs map the Z span of |0...0> onto itself."""
    if not corpus.entries:
        raise CorpusError("empty corpus")
    counts = [e.circuit.cx_count for e in corpus.entries]
    pooled: list[int] = []
    hist: dict[str, int] = {}
    for e in corpus.entries:
        n = e.circuit.n_qubits
        pooled.extend(((v | v >> n) & ((1 << n) - 1)).bit_count()
                      for v in _canonical_generators(
                          encoder_tableau(e.circuit, e.x_ancillas), e.k))
        d = "?" if e.distance is None else str(e.distance)
        label = f"[[{n},{e.k},{d}]]"
        hist[label] = hist.get(label, 0) + 1
    return {
        "size": len(corpus.entries),
        "cx_count": {
            "mean": sum(counts) / len(counts),
            "min": min(counts),
            "max": max(counts),
        },
        "mean_generator_weight": sum(pooled) / len(pooled),
        "code_parameters": dict(sorted(hist.items())),
    }


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------


def _plain_file_name(name: str, file: str) -> str:
    """file, if it names a file directly in the corpus directory: a path
    could read or write outside it."""
    if Path(file).name != file:
        raise CorpusError(f"{name!r}: file {file!r} is not a plain file name")
    return file


def check_output(directory, files, reads=(), kind: str = "corpus") -> None:
    """The one rule for an output directory: it must be a directory or
    new with no file among its parents, and empty, or hold only
    manifest.json and files (iterated only then) and none of reads, the
    files the command reads.  Otherwise raise CorpusError naming the
    directory, before any work: it could not be written, or outputs there
    would replace an input, hide other files from a later read, or sit
    beside stale ones.  kind names the command's output in the message."""
    real = Path(directory).resolve()
    if any(p.exists() and not p.is_dir() for p in (real, *real.parents)):
        raise CorpusError(f"--output {directory} is not a directory")
    held = sorted(real.iterdir()) if real.is_dir() else []
    if not held:
        return
    read = {Path(p).resolve() for p in reads}
    if any(f.resolve() in read for f in held):
        raise CorpusError(f"--output {directory} holds input files")
    own = {MANIFEST_NAME, *files}
    foreign = [f.name for f in held if f.name not in own]
    if foreign:
        raise CorpusError(
            f"{directory}: {foreign[0]!r} is not a file of this {kind}")


def save_corpus(corpus: Corpus, directory: str | Path) -> Path:
    """Write one circuit text file per entry plus manifest.json.  Output is
    byte-identical for identical corpora.  An entry name that is not a
    plain file name or that names two entries, whose files would collide,
    or a directory check_output refuses, raises CorpusError before any
    file is written.  One encoder tableau per entry gives both of its
    manifest digests."""
    files = [_plain_file_name(e.name, f"{e.name}.txt") for e in corpus.entries]
    if len(set(files)) < len(files):
        dup = next(e.name for i, e in enumerate(corpus.entries)
                   if files[i] in files[:i])
        raise CorpusError(f"{dup!r}: two entries share this name")
    check_output(directory, files)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for e, filename in zip(corpus.entries, files):
        (directory / filename).write_text(serialize_circuit(e.circuit))
        t = encoder_tableau(e.circuit, e.x_ancillas)
        entries.append({
            "name": e.name,
            "file": filename,
            "digest": t.digest(),
            "canonical_digest": rows_digest(_canonical_generators(t, e.k),
                                            t.n),
            "origin": e.origin,
            "n": e.circuit.n_qubits,
            "k": e.k,
            "x_ancillas": list(e.x_ancillas),
            "distance": e.distance,
        })
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": corpus.config.to_json_dict() if corpus.config else None,
        "seed": corpus.config.seed if corpus.config else None,
        "entries": entries,
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return directory


def _load_entry(directory: Path, obj) -> tuple[CorpusEntry, Path]:
    """One manifest entry with its field types and ranges checked and its
    digest re-verified, and the circuit file it names."""
    if not isinstance(obj, dict):
        raise ValueError(f"{obj!r} is not an object")
    name, file, digest = obj["name"], obj["file"], obj["digest"]
    origin = obj.get("origin", "ingested")
    k = obj.get("k", 0)
    x_anc = obj.get("x_ancillas", [])
    distance = obj.get("distance")
    if not all(isinstance(v, str) for v in (name, file, digest, origin)):
        raise ValueError("name, file, digest and origin must be strings")
    _plain_file_name(name, file)
    # type() rather than isinstance(): JSON true and false are not counts
    if not (type(k) is int and isinstance(x_anc, list)
            and all(type(q) is int for q in x_anc)
            and (distance is None or type(distance) is int)):
        raise ValueError(f"{name!r}: k, x_ancillas and distance "
                         "must be integers")
    path = directory / file
    circuit = load_circuit(path)
    n = circuit.n_qubits
    if not 0 <= k < n:
        raise ValueError(f"{name!r}: k={k} outside 0..{n - 1}")
    if any(not k <= q < n for q in x_anc):
        raise ValueError(f"{name!r}: x_ancillas {x_anc} outside {k}..{n - 1}")
    if len(set(x_anc)) < len(x_anc):
        raise ValueError(f"{name!r}: x_ancillas {x_anc} repeat a qubit")
    # a stated distance is bounded, not recomputed: loading stays cheap
    if distance is not None and not 1 <= distance <= n:
        raise ValueError(f"{name!r}: distance {distance} outside 1..{n}")
    if distance is not None and k == 0:
        raise ValueError(f"{name!r}: k=0 has no distance, got {distance}")
    entry = CorpusEntry(
        name=name,
        circuit=Circuit(circuit.n_qubits, circuit.gates, name=name),
        origin=origin,
        k=k,
        x_ancillas=tuple(x_anc),
        distance=distance,
    )
    if entry.digest != digest:
        raise ValueError(f"digest mismatch for entry {name!r}")
    return entry, path


def load_corpus(directory: str | Path) -> Corpus:
    """Read a corpus directory, re-verifying every entry's digest.  A
    manifest without entries is a CorpusError."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CorpusError(f"{directory} has no {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorpusError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorpusError(f"{manifest_path}: not a JSON object")
    version = manifest.get("format_version")
    # True and 1.0 equal 1 but are not the version written
    if type(version) is not int or version != FORMAT_VERSION:
        raise CorpusError(f"unsupported corpus format {version!r}")
    config = None
    if manifest.get("config"):
        try:
            config = GeneratorConfig.from_json_dict(manifest["config"])
        except KeyError as exc:
            raise CorpusError(
                f"{directory}: bad config: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"{directory}: bad config: {exc}") from exc
    # a mine manifest has the same format_version but no entries
    entries = manifest.get("entries")
    if not isinstance(entries, list):
        raise CorpusError(f"{manifest_path}: entries is missing or not a list")
    if not entries:
        raise CorpusError(f"{directory}: no corpus entries")
    corpus = Corpus(config=config, files=[manifest_path])
    for obj in entries:
        try:
            entry, path = _load_entry(directory, obj)
        except (KeyError, OSError, ValueError) as exc:
            raise CorpusError(f"{directory}: bad entry: {exc}") from exc
        corpus.entries.append(entry)
        corpus.files.append(path)
    return corpus
