"""Corpus ingestion, encoder generation, statistics, disk round trips."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from gadgetminer import corpus as corpus_module
from gadgetminer import kernels
from gadgetminer.circuit import Circuit, CircuitParseError, save_circuit
from gadgetminer.corpus import (
    Corpus,
    CorpusEntry,
    CorpusError,
    GenerationError,
    GeneratorConfig,
    connectivity_pairs,
    corpus_stats,
    distinct,
    entry_digest,
    generate_encoders,
    load_corpus,
    read_inputs,
    save_corpus,
    _apply_move,
    _list_logicals,
    _move_scores,
    _propose_hillclimb,
)
from gadgetminer.tableau import encoder_tableau

import reference
from conftest import (
    STEANE_PAIRS,
    STEANE_X_ANCILLAS,
    cnot_moved,
    logical_slices,
    random_generator_set,
    reference_hillclimb,
    slice_logicals,
)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def test_connectivity_patterns():
    assert connectivity_pairs("all", 3) == ((0, 1), (0, 2), (1, 2))
    assert connectivity_pairs("nn", 4) == ((0, 1), (1, 2), (2, 3))
    assert connectivity_pairs("nnn", 4) == (
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    with pytest.raises(CorpusError):
        connectivity_pairs("ring", 4)


def test_connectivity_file(tmp_path):
    p = tmp_path / "conn.txt"
    p.write_text("# ring of 3\n0 1\n1 2\n2 0\n")
    assert connectivity_pairs("file", 3, p) == ((0, 1), (0, 2), (1, 2))
    p.write_text("0 0\n")
    with pytest.raises(CorpusError):
        connectivity_pairs("file", 3, p)
    p.write_text("0 1 2\n")
    with pytest.raises(CorpusError):
        connectivity_pairs("file", 3, p)
    with pytest.raises(CorpusError):
        connectivity_pairs("file", 3, None)
    # a path with any other kind is an error, not ignored
    for kind in ("all", "nn", "nnn"):
        with pytest.raises(CorpusError):
            connectivity_pairs(kind, 3, p)
    p.write_text("0 1\na b\n")
    with pytest.raises(CorpusError, match=r"bad connectivity line 2: 'a b'"):
        connectivity_pairs("file", 3, p)
    # read as UTF-8 whatever the locale, and a decode error names the file
    p.write_bytes(b"0 1\n\xff\n")
    with pytest.raises(CorpusError) as exc_info:
        connectivity_pairs("file", 3, p)
    assert str(exc_info.value).startswith(f"{p}: 'utf-8' codec")


@pytest.mark.parametrize("line", ["0 1_0", "+1 2", "-0 1", "1 \u0662"],
                         ids=["underscore", "plus", "minus", "arabic"])
def test_connectivity_file_accepts_ascii_decimals_only(tmp_path, line):
    p = tmp_path / "conn.txt"
    p.write_text(f"0 1\n{line}\n")
    with pytest.raises(CorpusError, match=r"bad connectivity line 2: "):
        connectivity_pairs("file", 12, p)


def test_generator_config_validation():
    conn = connectivity_pairs("all", 4)
    GeneratorConfig(n=4, k=1, target_d=2, connectivity=conn)
    with pytest.raises(CorpusError):
        GeneratorConfig(n=4, k=4, target_d=2, connectivity=conn)
    with pytest.raises(CorpusError):
        GeneratorConfig(n=4, k=1, target_d=0, connectivity=conn)
    with pytest.raises(CorpusError):
        GeneratorConfig(n=4, k=1, target_d=2, connectivity=conn,
                        method="anneal")
    with pytest.raises(CorpusError):
        GeneratorConfig(n=4, k=1, target_d=2, connectivity=((0, 1),))
    with pytest.raises(CorpusError):
        GeneratorConfig(n=4, k=1, target_d=2, connectivity=conn, seed=-1)


def test_generator_config_json_round_trip():
    cfg = GeneratorConfig(n=5, k=1, target_d=3,
                          connectivity=connectivity_pairs("nnn", 5),
                          connectivity_name="nnn", seed=99, count=7)
    obj = cfg.to_json_dict()
    assert obj == {"n": 5, "k": 1, "target_d": 3,
                   "connectivity": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3],
                                    [2, 4], [3, 4]],
                   "connectivity_name": "nnn", "max_gates": 25,
                   "attempts": 2000, "seed": 99, "method": "hillclimb",
                   "count": 7}
    assert GeneratorConfig.from_json_dict(obj) == cfg
    # manifests written before connectivity_name existed still load
    del obj["connectivity_name"]
    assert GeneratorConfig.from_json_dict(obj).connectivity_name == ""


# ---------------------------------------------------------------------------
# Digests and ingestion
# ---------------------------------------------------------------------------


def test_entry_digest_separates_basis():
    c = Circuit.from_pairs(3, [(0, 1), (1, 2)])
    assert entry_digest(c) != entry_digest(c, x_ancillas=(2,))
    assert entry_digest(c, (1, 2)) == entry_digest(c, (2, 1))


def test_entry_digest_identifies_equal_unitaries():
    # disjoint gates commute, so both orders give one digest
    a = Circuit.from_pairs(4, [(0, 1), (2, 3)])
    b = Circuit.from_pairs(4, [(2, 3), (0, 1)])
    assert entry_digest(a) == entry_digest(b)
    c = Circuit.from_pairs(4, [(0, 1), (1, 2)])
    d = Circuit.from_pairs(4, [(1, 2), (0, 1)])
    assert entry_digest(c) != entry_digest(d)


def test_ingest_dedup_and_naming(tmp_path):
    c1 = Circuit.from_pairs(3, [(0, 1), (1, 2)])
    c2 = Circuit.from_pairs(3, [(1, 2)])
    save_circuit(c1, tmp_path / "a.txt")
    save_circuit(c2, tmp_path / "b.txt")
    save_circuit(c1, tmp_path / "c.txt")  # duplicate of a
    corpus = distinct(read_inputs([tmp_path]))
    assert [e.name for e in corpus.entries] == ["a", "b"]
    assert len(corpus.warnings) == 1 and "'c'" in corpus.warnings[0]
    assert all(e.origin == "ingested" for e in corpus.entries)
    # explicit file list, name collision resolved by suffix
    other = tmp_path / "sub"
    other.mkdir()
    save_circuit(c2, other / "a.txt")
    corpus2 = distinct(read_inputs([tmp_path / "a.txt", other / "a.txt"]))
    assert [e.name for e in corpus2.entries] == ["a", "a_1"]


def test_read_inputs_bad_file_names_it(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("qubits 2\ncx 0 7\n")
    with pytest.raises(CircuitParseError) as exc_info:
        read_inputs([tmp_path])
    assert str(exc_info.value).startswith(f"{bad}: ")


def test_read_inputs_names_and_files_in_input_order(tmp_path):
    """A corpus and circuit files read as mine reads them: entries and
    files in input order, a nameless circuit named by its position, and a
    taken name suffixed."""
    corpus_dir = save_corpus(steane_corpus(), tmp_path / "corpus")
    plain = tmp_path / "plain"
    plain.mkdir()
    save_circuit(Circuit.from_pairs(7, STEANE_PAIRS), plain / "steane.txt")
    save_circuit(Circuit.from_pairs(2, [(0, 1)]), plain / "z.json")
    single = tmp_path / "one.txt"
    save_circuit(Circuit.from_pairs(2, [(1, 0)]), single)
    corpus = read_inputs([corpus_dir, plain, single, corpus_dir])
    assert [e.name for e in corpus.entries] == [
        "steane", "steane_1", "circuit_0002", "one", "steane_2"]
    assert [e.circuit.name for e in corpus.entries] == [
        e.name for e in corpus.entries]
    # a corpus entry keeps its code data, and a circuit file has none
    steane = corpus.entries[0]
    assert (steane.k, steane.x_ancillas, steane.distance) == (
        1, STEANE_X_ANCILLAS, 3)
    assert [(e.origin, e.k, e.x_ancillas, e.distance)
            for e in corpus.entries[1:4]] == [("ingested", 0, (), None)] * 3
    corpus_files = [corpus_dir / "manifest.json", corpus_dir / "steane.txt"]
    assert corpus.files == [*corpus_files, plain / "steane.txt",
                            plain / "z.json", single, *corpus_files]
    # repeats stay
    assert corpus.entries[4].circuit.gates == steane.circuit.gates


def test_read_inputs_keeps_the_entries_whose_names_are_free(tmp_path,
                                                           monkeypatch):
    """read_inputs hands on load_corpus's entry objects, and with them
    the digests load_corpus verified, unless it renames an entry; a
    renamed entry's circuit carries the new name."""
    corpus_dir = save_corpus(steane_corpus(), tmp_path / "corpus")
    loaded = []
    load = corpus_module.load_corpus

    def recorded(directory):
        loaded.append(load(directory))
        return loaded[-1]

    monkeypatch.setattr(corpus_module, "load_corpus", recorded)
    first, second = read_inputs([corpus_dir, corpus_dir]).entries
    assert first is loaded[0].entries[0]
    assert (second.name, second.circuit.name) == ("steane_1", "steane_1")
    assert second == replace(loaded[1].entries[0], name="steane_1",
                             circuit=replace(first.circuit, name="steane_1"))


def test_distinct_keeps_the_first_of_a_repeat_across_inputs(tmp_path):
    """A circuit file and a corpus entry of one unitary are one circuit:
    whichever is read first is kept, and the other is named in a
    warning."""
    entry = CorpusEntry("c", Circuit.from_pairs(4, [(0, 1), (2, 3)], name="c"),
                        "generated")
    corpus_dir = save_corpus(Corpus([entry]), tmp_path / "corpus")
    plain = tmp_path / "plain"
    plain.mkdir()
    # disjoint gates commute: the entry's unitary
    save_circuit(Circuit.from_pairs(4, [(2, 3), (0, 1)]), plain / "p.txt")
    save_circuit(Circuit.from_pairs(4, [(0, 1)]), plain / "q.txt")
    kept = distinct(read_inputs([corpus_dir, plain]))
    assert [(e.name, e.origin) for e in kept.entries] == [
        ("c", "generated"), ("q", "ingested")]
    assert kept.warnings == ["duplicate circuit 'p' matches entry 'c'"]
    kept = distinct(read_inputs([plain, corpus_dir]))
    assert [e.name for e in kept.entries] == ["p", "q"]
    assert kept.warnings == ["duplicate circuit 'c' matches entry 'p'"]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_generate_distance_two_quickly():
    cfg = GeneratorConfig(n=4, k=1, target_d=2,
                          connectivity=connectivity_pairs("all", 4),
                          attempts=200, count=5, seed=11)
    corpus = generate_encoders(cfg)
    assert len(corpus) == 5
    assert len({e.digest for e in corpus.entries}) == 5
    for e in corpus.entries:
        assert e.origin == "generated"
        assert e.distance is not None and e.distance >= 2
        rows = encoder_tableau(e.circuit, e.x_ancillas).rows[cfg.n + e.k:]
        assert e.distance == reference.distance(rows, cfg.n)


def test_generate_deterministic():
    cfg = GeneratorConfig(n=4, k=1, target_d=2,
                          connectivity=connectivity_pairs("nn", 4),
                          attempts=300, count=4, seed=5)
    a = generate_encoders(cfg)
    b = generate_encoders(cfg)
    assert [e.circuit for e in a.entries] == [e.circuit for e in b.entries]
    assert [e.digest for e in a.entries] == [e.digest for e in b.entries]
    assert [e.x_ancillas for e in a.entries] == [
        e.x_ancillas for e in b.entries]


def test_generate_respects_connectivity():
    conn = connectivity_pairs("nn", 5)
    allowed = set(conn) | {(b, a) for a, b in conn}
    cfg = GeneratorConfig(n=5, k=1, target_d=2, connectivity=conn,
                          attempts=300, count=6, seed=3)
    corpus = generate_encoders(cfg)
    for e in corpus.entries:
        assert set(e.circuit.pairs()) <= allowed


def test_generate_unreachable_target_raises():
    # distance 3 on 3 qubits with k=1 requires a [[3,1,3]] code, which
    # does not exist; the search must fail loudly, reporting its best
    cfg = GeneratorConfig(n=3, k=1, target_d=3,
                          connectivity=connectivity_pairs("all", 3),
                          attempts=30, count=1, seed=0)
    with pytest.raises(GenerationError) as exc_info:
        generate_encoders(cfg)
    assert "30 attempts" in str(exc_info.value)


def test_generate_shortfall_warns():
    # d=2 on 2 qubits admits exactly one stabilizer state family; the
    # dedup cap means fewer distinct encoders than requested
    cfg = GeneratorConfig(n=2, k=0, target_d=1,
                          connectivity=connectivity_pairs("all", 2),
                          attempts=5, count=50, seed=1, max_gates=2)
    corpus = generate_encoders(cfg)
    assert corpus.entries
    assert corpus.warnings and "of 50 encoders" in corpus.warnings[0]


def test_generate_random_method():
    cfg = GeneratorConfig(n=4, k=1, target_d=2,
                          connectivity=connectivity_pairs("all", 4),
                          attempts=500, count=3, seed=2, method="random")
    corpus = generate_encoders(cfg)
    assert len(corpus) == 3
    for e in corpus.entries:
        assert e.distance >= 2


def test_move_scores_match_moved_profiles():
    # every ordered pair on random generator sets
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randrange(2, 9)
        d = rng.randrange(1, 6)
        gens = random_generator_set(rng, n)
        directed = [(a, b) for a in range(n) for b in range(n) if a != b]
        sl, ws = logical_slices(kernels.logicals_by_weight(gens, n, d), n)
        scores, ups, downs = _move_scores(sl, ws, n, directed)
        assert len(scores) == len(ups) == len(downs) == len(directed)
        for (a, b), score in zip(directed, scores):
            assert list(score) == kernels.pauli_weight_profile(
                cnot_moved(gens, n, a, b), n, d - 1)
        # the brute-force oracle on one move per set, where it is cheap
        if n <= 6:
            i = rng.randrange(len(directed))
            moved = cnot_moved(gens, n, *directed[i])
            assert list(scores[i]) == [
                len(found) for found in reference.logicals(moved, n, d - 1)]


def test_carried_logicals_match_fresh_walks():
    # after every move of a random sequence, the slices hold exactly the
    # moved generators' logicals up to the bound, weight by weight, and no
    # bit of a dropped logical is left behind for a new one to inherit
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(2, 8)
        d = rng.randrange(1, 6)
        gens = random_generator_set(rng, n)
        sl, ws = [0] * (2 * n), [0] * (d + 1)
        for w, found in enumerate(kernels.logicals_by_weight(gens, n, d), 1):
            _list_logicals(sl, ws, w, found)
        for _ in range(6):
            a, b = rng.sample(range(n), 2)
            _, (up,), (down,) = _move_scores(sl, ws, n, [(a, b)])
            moved = cnot_moved(gens, n, a, b)
            _apply_move(gens, sl, ws, n, a, b, up, down)
            assert gens == moved
            assert slice_logicals(sl, ws, n) == [
                sorted(found)
                for found in kernels.logicals_by_weight(gens, n, d)]
            live = 0
            for m in ws:
                live |= m
            assert all(s & ~live == 0 for s in sl)


def test_hillclimb_matches_reference_climb():
    # the carried slices pick the same gates as the climb that walks afresh
    # at every step, on every n, k and d (d > n included); long climbs at
    # d >= 4 are cut short, where each fresh walk is dear
    rng = random.Random(23)
    kinds = ("all", "nn", "nnn")
    for n in range(1, 10):
        for d in range(1, 6):
            for k in range(min(3, n)):
                pairs = connectivity_pairs(kinds[(n + d + k) % 3], n)
                directed = sorted(pairs + tuple((b, a) for a, b in pairs))
                cfg = GeneratorConfig(n=n, k=k, target_d=d, connectivity=pairs,
                                      max_gates=25 if d <= 3 else 4)
                x_set = frozenset(q for q in range(k, n) if rng.random() < 0.5)
                seed = rng.getrandbits(32)
                assert _propose_hillclimb(random.Random(seed), cfg, directed,
                                          x_set) == reference_hillclimb(
                    random.Random(seed), cfg, directed, x_set)


def test_hillclimb_lists_logicals_once_per_proposal(monkeypatch):
    # a structural guard in place of a timing: one full walk seeds the
    # carried logicals, and no step walks or profiles afresh
    calls = {"walk": 0, "profile": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kernels, "logicals_by_weight",
                        counted("walk", kernels.logicals_by_weight))
    monkeypatch.setattr(kernels, "pauli_weight_profile",
                        counted("profile", kernels.pauli_weight_profile))
    conn = connectivity_pairs("all", 7)
    cfg = GeneratorConfig(n=7, k=1, target_d=3, connectivity=conn)
    directed = sorted(conn + tuple((b, a) for a, b in conn))
    for seed in range(4):
        calls.update(walk=0, profile=0)
        gates = _propose_hillclimb(random.Random(seed), cfg, directed,
                                   frozenset(range(1, seed + 1)))
        assert len(gates) > 1
        assert calls == {"walk": 1, "profile": 0}


def _recording(monkeypatch, module, attr, log):
    fn = getattr(module, attr)

    def wrapper(*args):
        log.append(args)
        return fn(*args)

    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("method, n, d", [("hillclimb", 7, 3),
                                          ("random", 4, 2)])
def test_generate_walks_once_per_proposal(monkeypatch, method, n, d):
    # one walk bounded by n gives both the rejection and the exact
    # distance of a kept encoder; each proposal gets one encoder tableau
    proposals, walks = [], []
    _recording(monkeypatch, corpus_module, "encoder_tableau", proposals)
    _recording(monkeypatch, kernels, "min_logical_weight", walks)
    cfg = GeneratorConfig(n=n, k=1, target_d=d,
                          connectivity=connectivity_pairs("all", n),
                          attempts=60, count=3, seed=4, method=method)
    corpus = generate_encoders(cfg)
    assert corpus.entries
    # some proposals were rejected or duplicates
    assert len(proposals) > len(corpus)
    assert len(walks) == len(proposals)
    assert all(args[2] == cfg.n for args in walks)
    for e in corpus.entries:
        rows = encoder_tableau(e.circuit, e.x_ancillas).rows[n + e.k:]
        assert e.distance == reference.distance(rows, n)


def test_generate_k0_runs_no_walk(monkeypatch):
    # n commuting generators on n qubits span every Pauli that commutes
    # with them: a k = 0 code has no logical to walk for, and the hill
    # climb, with nothing to lower, proposes the empty circuit unwalked
    walks, listings = [], []
    _recording(monkeypatch, kernels, "min_logical_weight", walks)
    _recording(monkeypatch, kernels, "logicals_by_weight", listings)
    cfg = GeneratorConfig(n=6, k=0, target_d=4,
                          connectivity=connectivity_pairs("nn", 6),
                          attempts=20, count=3, seed=2)
    corpus = generate_encoders(cfg)
    assert len(corpus) == 3
    assert all(e.distance is None for e in corpus.entries)
    assert not walks and not listings
    assert all(e.circuit.cx_count == 0 for e in corpus.entries)
    for e in corpus.entries:
        gens = encoder_tableau(e.circuit, e.x_ancillas).rows[cfg.n:]
        assert kernels.min_logical_weight(gens, cfg.n, cfg.n) == 0


def test_generate_n_bound():
    with pytest.raises(CorpusError):
        generate_encoders(GeneratorConfig(
            n=16, k=1, target_d=2,
            connectivity=connectivity_pairs("all", 16)))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def steane_corpus() -> Corpus:
    c = Circuit.from_pairs(7, STEANE_PAIRS, name="steane")
    entry = CorpusEntry(
        name="steane",
        circuit=c,
        origin="ingested",
        k=1,
        x_ancillas=STEANE_X_ANCILLAS,
        distance=3,
    )
    return Corpus(entries=[entry])


def test_corpus_stats_steane():
    stats = corpus_stats(steane_corpus())
    assert stats["size"] == 1
    assert stats["cx_count"] == {"mean": 11.0, "min": 11, "max": 11}
    # Steane canonical generators all have weight 4
    assert stats["mean_generator_weight"] == 4.0
    assert stats["code_parameters"] == {"[[7,1,3]]": 1}


def test_corpus_stats_unknown_distance():
    c = Circuit.from_pairs(2, [(0, 1)], name="c")
    corpus = Corpus(entries=[CorpusEntry(
        name="c", circuit=c, origin="ingested")])
    stats = corpus_stats(corpus)
    assert stats["code_parameters"] == {"[[2,0,?]]": 1}
    with pytest.raises(CorpusError):
        corpus_stats(Corpus())


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cfg = GeneratorConfig(n=4, k=1, target_d=2,
                          connectivity=connectivity_pairs("all", 4),
                          attempts=200, count=3, seed=7)
    corpus = generate_encoders(cfg)
    out = tmp_path / "corpus"
    save_corpus(corpus, out)
    assert (out / "manifest.json").is_file()
    loaded = load_corpus(out)
    assert len(loaded) == len(corpus)
    assert loaded.config == cfg
    for a, b in zip(loaded.entries, corpus.entries):
        assert a.circuit == b.circuit
        assert a.digest == b.digest
        assert a.x_ancillas == b.x_ancillas
        assert a.distance == b.distance


def test_save_is_reproducible(tmp_path):
    corpus = steane_corpus()
    save_corpus(corpus, tmp_path / "a")
    save_corpus(corpus, tmp_path / "b")
    for name in ("manifest.json", "steane.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_load_rejects_tampering(tmp_path):
    out = save_corpus(steane_corpus(), tmp_path / "c")
    circ_file = out / "steane.txt"
    circ_file.write_text(circ_file.read_text().replace(
        "cx 0 1", "cx 1 0", 1))
    with pytest.raises(CorpusError) as exc_info:
        load_corpus(out)
    assert "digest mismatch" in str(exc_info.value)


@pytest.mark.parametrize("bad", ["sub/evil", "../x"])
def test_save_rejects_path_names(tmp_path, bad):
    # an ingested JSON circuit's name becomes its entry name, and an entry
    # file sits at <directory>/<name>.txt: a path there would write into a
    # subdirectory or out of the corpus, and load_corpus rejects it
    (tmp_path / "in").mkdir()
    save_circuit(Circuit.from_pairs(2, [(0, 1)], name="good"),
                 tmp_path / "in" / "a.json")
    save_circuit(Circuit.from_pairs(2, [(1, 0)], name=bad),
                 tmp_path / "in" / "b.json")
    corpus = distinct(read_inputs([tmp_path / "in"]))
    assert [e.name for e in corpus.entries] == ["good", bad]
    out = tmp_path / "corpus" / "out"
    with pytest.raises(CorpusError, match="is not a plain file name"):
        save_corpus(corpus, out)
    # nothing was written, the valid entry's file included
    assert not (tmp_path / "corpus").exists()


def test_save_rejects_duplicate_names(tmp_path):
    # two entries named a would share a.txt, and the manifest's second
    # digest would not match the file load_corpus reads
    entries = [CorpusEntry(name="a", circuit=Circuit.from_pairs(2, pairs),
                           origin="ingested") for pairs in ([(0, 1)], [(1, 0)])]
    out = tmp_path / "corpus" / "out"
    with pytest.raises(CorpusError, match="'a': two entries share this name"):
        save_corpus(Corpus(entries=entries), out)
    assert not (tmp_path / "corpus").exists()


def _config_without(key):
    cfg = GeneratorConfig(n=7, k=1, target_d=3,
                          connectivity=connectivity_pairs("all", 7))
    obj = cfg.to_json_dict()
    del obj[key]
    return obj


def test_load_rejects_bad_format(tmp_path):
    """Each damaged manifest is a CorpusError, so mine and stats print an
    error instead of a traceback or reading a wrong corpus."""
    def config_with(**fields):
        return lambda m: m.update(
            config={**_config_without("seed"), "seed": 7, **fields})

    def entry_file(file):
        return lambda m: m["entries"][0].update(file=file)

    # a valid circuit file outside the corpora the damages are applied to
    outside = save_corpus(steane_corpus(), tmp_path / "outside") / "steane.txt"
    plain = "is not a plain file name"

    # (damage, pattern the error message must match, or None)
    damages = [
        (lambda m: m.update(format_version=99), None),
        # equal to 1 in Python, but not the version written
        (lambda m: m.update(format_version=True), "unsupported corpus format"),
        (lambda m: m.update(format_version=1.0), "unsupported corpus format"),
        (lambda m: [m], None),
        # a mine manifest: the same format_version, and no entries
        (lambda m: {k: v for k, v in m.items() if k != "entries"},
         r"manifest\.json: entries is missing"),
        (lambda m: m.update(entries={}), "entries is missing or not a list"),
        (lambda m: m.update(config=_config_without("seed")),
         "bad config: missing key 'seed'"),
        (config_with(seed="7"), None),
        (config_with(seed=7.5), "seed must be an integer"),
        (config_with(count=True), "count must be an integer"),
        (config_with(connectivity_name=5),
         "connectivity_name must be a string, got 5"),
        (config_with(connectivity=[[0, 1.0], [1, 2], [2, 3], [3, 4], [4, 5],
                                   [5, 6]]),
         r"bad connectivity pair \(0, 1\.0\)"),
        (lambda m: m.update(entries=[["steane"]]), None),
        (lambda m: m["entries"][0].update(file=5), None),
        (lambda m: m["entries"][0].update(x_ancillas="456"), None),
        (lambda m: m["entries"][0].update(k="1"), None),
        (lambda m: m["entries"][0].update(k=9),
         r"'steane': k=9 outside 0\.\.6"),
        # logical qubit 0 as a |+> ancilla, with the digest to match
        (lambda m: m["entries"][0].update(
            x_ancillas=[0, 4, 5, 6],
            digest=entry_digest(Circuit.from_pairs(7, STEANE_PAIRS),
                                (0, 4, 5, 6))),
         r"'steane': x_ancillas \[0, 4, 5, 6\] outside 1\.\.6"),
        (lambda m: m["entries"][0].update(distance=0),
         r"'steane': distance 0 outside 1\.\.7"),
        # the digest is taken over the set, so it still matches
        (lambda m: m["entries"][0].update(x_ancillas=[4, 4, 5, 6]),
         r"'steane': x_ancillas \[4, 4, 5, 6\] repeat a qubit"),
        (lambda m: m["entries"][0].update(distance=99),
         r"'steane': distance 99 outside 1\.\.7"),
        # no logical qubit, so no distance; gen writes null there
        (lambda m: m["entries"][0].update(k=0),
         r"'steane': k=0 has no distance, got 3"),
        (entry_file(str(outside)), plain),
        (entry_file("../outside/steane.txt"), plain),
        (entry_file("sub/x.txt"), plain),
        (entry_file("../x.txt"), plain),
    ]
    for i, (damage, pattern) in enumerate(damages):
        out = save_corpus(steane_corpus(), tmp_path / str(i))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest = damage(manifest) or manifest
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorpusError, match=pattern):
            load_corpus(out)
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nowhere")


def test_manifest_contents(tmp_path):
    out = save_corpus(steane_corpus(), tmp_path / "m")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format_version"] == 1
    assert manifest["config"] is None and manifest["seed"] is None
    (entry,) = manifest["entries"]
    assert entry["name"] == "steane"
    assert entry["n"] == 7 and entry["k"] == 1
    assert entry["x_ancillas"] == [4, 5, 6]
    assert entry["distance"] == 3
    assert len(entry["digest"]) == 64
    assert len(entry["canonical_digest"]) == 64
