"""Bundle build and load, and answers pinned against golden outputs.

The golden file holds ``AnswerResult.to_json()`` without ``latency_ms``
for every gold question of ``synthetic_corpus(n_docs=3, seed=0)``, asked
through a bundle written to disk and loaded back. Retrieval reads the
hashed text alone, so a bundle built with view alignment must give the
same answers as one built without, and both are checked against the one
file. Regenerate it only for an intended change of behaviour, from the
root of a checkout:

    PYTHONPATH=src python tests/test_pipeline.py
"""

from __future__ import annotations

import gc
import json
import re
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import semrag.pipeline as pipeline
from semrag.errors import ChecksumError, FormatVersionError, SchemaError
from semrag.llm_clients import TokenLedger, make_clients
from semrag.pipeline import (
    PipelineConfig,
    build_bundle,
    compile_corpus,
    load_bundle,
    make_engine,
)
from semrag.sem_index import sem_minimize
from semrag.synth import synthetic_corpus

from conftest import rewrite_member

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ANSWERS = GOLDEN / "answers_plain.json"


def build(out: Path, align: bool = False):
    corpus = synthetic_corpus(n_docs=3, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, out, config=PipelineConfig(align=align))
    return corpus


def gold_answers(out: Path, align: bool) -> list[dict]:
    """Every gold question answered from a bundle loaded back from disk."""
    corpus = build(out, align)
    bundle = load_bundle(out)
    engine = make_engine(bundle)
    answers = []
    for query in corpus.gold:
        doc = engine.answer(query.question, bundle.clients.llm).to_json()
        del doc["latency_ms"]
        answers.append(doc)
    return answers


@pytest.mark.parametrize("align", [False, True], ids=["plain", "aligned"])
def test_answers_match_golden(tmp_path, align):
    expected = json.loads(GOLDEN_ANSWERS.read_text("utf-8"))
    actual = json.loads(json.dumps(gold_answers(tmp_path, align)))
    assert len(actual) == len(expected) == 40
    for got, want in zip(actual, expected):
        assert got == want, want["question"]


@pytest.mark.parametrize("align", [False, True], ids=["plain", "aligned"])
def test_manifest_is_byte_identical_across_builds(tmp_path, align):
    build(tmp_path / "a", align)
    build(tmp_path / "b", align)
    first = (tmp_path / "a" / "manifest.json").read_bytes()
    assert first == (tmp_path / "b" / "manifest.json").read_bytes()
    members = json.loads(first)["checksums"]
    assert ("align.json" in members) == align
    for name in members:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


ALIGNED_MEMBERS = [
    "nodes.jsonl",
    "edges.jsonl",
    "index.json",
    "vectors.bin",
    "align.json",
]


@pytest.mark.parametrize("member", ALIGNED_MEMBERS)
def test_flipped_byte_in_a_member_fails_closed(tmp_path, member):
    build(tmp_path, align=True)
    members = json.loads((tmp_path / "manifest.json").read_bytes())["checksums"]
    assert sorted(members) == sorted(ALIGNED_MEMBERS)
    path = tmp_path / member
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0x01
    path.write_bytes(bytes(payload))
    with pytest.raises(ChecksumError, match=member):
        load_bundle(tmp_path)


def test_load_reads_each_member_once(tmp_path, monkeypatch):
    """Each member is read once and decoded from the bytes that were
    checked; none is read again by path, and every member the manifest
    lists reaches a decoder."""
    build(tmp_path, align=True)
    listed = json.loads((tmp_path / "manifest.json").read_bytes())["checksums"]
    name_of = {(tmp_path / name).read_bytes(): name for name in [*listed, "manifest.json"]}
    decoded: Counter = Counter()
    for decoder in ("_json", "load_graph", "load_vectors", "load_alignment"):
        original = getattr(pipeline, decoder)

        def recording(*args, _original=original):
            decoded.update(name_of[a] for a in args if isinstance(a, bytes))
            return _original(*args)

        monkeypatch.setattr(pipeline, decoder, recording)
    reads: Counter = Counter()
    for method in ("read_bytes", "read_text"):
        original = getattr(Path, method)

        def counting(self, *args, _original=original, **kwargs):
            reads[self.name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, counting)
    load_bundle(tmp_path)
    assert sorted(listed) == sorted(ALIGNED_MEMBERS)
    expected = Counter({name: 1 for name in ALIGNED_MEMBERS + ["manifest.json"]})
    assert reads == expected
    assert decoded == expected


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def test_bundle_records_membership_and_release_tags_once(tmp_path):
    """A macro node's members are its MemberOf sources alone, which are its
    community in index.json; a cell's release tag sits in its provenance
    alone."""
    build(tmp_path)
    nodes = _jsonl(tmp_path / "nodes.jsonl")
    partition = json.loads((tmp_path / "index.json").read_bytes())["partition"]
    communities: dict[str, set[str]] = {}
    for nid, key in partition.items():
        communities.setdefault(key, set()).add(nid)
    member_of: dict[str, set[str]] = {}
    for edge in _jsonl(tmp_path / "edges.jsonl"):
        if edge["rel"] == "MemberOf":
            member_of.setdefault(edge["dst"], set()).add(edge["src"])
    macros = [node for node in nodes if node["type"] == "MacroNode"]
    assert len(macros) == len(communities) == 27
    assert set(member_of) == {node["id"] for node in macros}
    for node in macros:
        assert sorted(node["attrs"]) == ["community", "tokens_used"]
        assert member_of[node["id"]] == communities[node["attrs"]["community"]]
    cells = [node for node in nodes if node["type"] == "Cell"]
    assert cells
    for node in cells:
        assert "release_tag" not in node["attrs"]
        assert node["attrs"]["prov"]["release_tag"] == "Rel-17"


def test_answering_from_an_opened_bundle_keeps_nothing_per_question(tmp_path):
    corpus = build(tmp_path)
    bundle = load_bundle(tmp_path)
    engine = make_engine(bundle)

    def ask(rounds: int) -> None:
        for _ in range(rounds):
            for query in corpus.gold:
                engine.answer(query.question, bundle.clients.llm)

    ask(1)  # whatever the first answers cache stays cached
    tracemalloc.start()
    try:
        ask(1)
        before = tracemalloc.get_traced_memory()[0]
        ask(10)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a ledger row per answer would hold over 100 bytes each
    assert grown < 10 * 10 * len(corpus.gold), grown
    assert bundle.clients.ledger is None


def test_answering_from_a_fresh_build_records_no_ledger_entry(tmp_path, monkeypatch):
    corpus = synthetic_corpus(n_docs=3, seed=0)
    bundle = build_bundle(corpus.docs, corpus.gazetteer, tmp_path)
    # offline summaries call no model, so the build's ledger stays empty
    ledger_file = (tmp_path / "token_ledger.csv").read_text().splitlines()
    assert ledger_file == ["op,tokens_in,tokens_out,wall_ms"]
    recorded = []
    monkeypatch.setattr(TokenLedger, "record", lambda self, *row: recorded.append(row))
    engine = make_engine(bundle)
    questions = [query.question for query in corpus.gold]
    for n in range(200):
        engine.answer(questions[n % len(questions)], bundle.clients.llm)
    assert recorded == []
    assert bundle.clients.ledger is None


def test_a_build_returns_the_clients_it_was_given(tmp_path):
    corpus = synthetic_corpus(n_docs=2, seed=0)
    clients = make_clients(offline=True, ledger=TokenLedger())
    bundle = build_bundle(corpus.docs, corpus.gazetteer, tmp_path, clients=clients)
    assert bundle.clients is clients
    make_engine(bundle).answer(corpus.gold[0].question, bundle.clients.llm)
    assert len(clients.ledger.entries) == 1


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _disk_full(*args, **kwargs):
    raise OSError("disk full")


def test_a_failed_build_leaves_an_absent_bundle_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "save_vectors", _disk_full)
    with pytest.raises(OSError, match="disk full"):
        build(tmp_path / "bundle")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_build_leaves_the_old_bundle_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "bundle"
    corpus = build(out)
    before = _snapshot(out)
    monkeypatch.setattr(pipeline, "save_vectors", _disk_full)
    with pytest.raises(OSError, match="disk full"):
        build_bundle(
            corpus.docs, corpus.gazetteer, out, config=PipelineConfig(align=True)
        )
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
    assert _snapshot(out) == before
    assert len(load_bundle(out).graph.nodes) > 0


def test_a_failed_swap_puts_the_old_bundle_back(tmp_path, monkeypatch):
    """The old bundle is moved aside before the new one is renamed onto
    its place; if that rename fails, the old one returns."""
    out = tmp_path / "bundle"
    build(out)
    before = _snapshot(out)
    rename = Path.rename

    def failing(self, target):
        if self.name == "new":
            raise OSError("rename refused")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", failing)
    with pytest.raises(OSError, match="rename refused"):
        build(out, align=True)
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
    assert _snapshot(out) == before


def test_a_rebuild_replaces_the_bundle_whole(tmp_path):
    out = tmp_path / "bundle"
    build(out, align=True)
    assert (out / "align.json").exists()
    build(out)
    assert not (out / "align.json").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
    assert load_bundle(out).config.align is False


def _edit_manifest(bundle_dir: Path, edit) -> None:
    path = bundle_dir / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")


def test_unknown_format_version_fails_closed(tmp_path):
    build(tmp_path)
    _edit_manifest(
        tmp_path, lambda m: m.update(format_version=pipeline.BUNDLE_FORMAT_VERSION + 1)
    )
    with pytest.raises(FormatVersionError):
        load_bundle(tmp_path)


def test_manifest_without_vectors_fails_closed(tmp_path):
    build(tmp_path)
    _edit_manifest(tmp_path, lambda m: m["checksums"].pop("vectors.bin"))
    with pytest.raises(SchemaError):
        load_bundle(tmp_path)


def test_aligned_manifest_without_alignment_fails_closed(tmp_path):
    build(tmp_path, align=True)
    _edit_manifest(tmp_path, lambda m: m["checksums"].pop("align.json"))
    with pytest.raises(SchemaError):
        load_bundle(tmp_path)


def test_plain_manifest_listing_an_alignment_fails_closed(tmp_path):
    """Only the members a build under the manifest's config writes load."""
    build(tmp_path, align=True)
    _edit_manifest(tmp_path, lambda m: m["config"].update(align=False))
    with pytest.raises(SchemaError, match="align.json"):
        load_bundle(tmp_path)


def test_a_build_compiles_each_gazetteer_pattern_once(monkeypatch):
    """Past the 512 patterns Python's re cache holds, a per-document
    compile would miss the cache for every surface of every document."""
    corpus = synthetic_corpus(n_docs=3, seed=0)
    surfaces = list(corpus.gazetteer) + [f"filler term {i}" for i in range(600)]
    patterns = {rf"\b{re.escape(s)}\b" for s in surfaces}
    compiled: Counter = Counter()
    original = re.compile

    def counting(pattern, flags=0):
        compiled[pattern] += 1
        return original(pattern, flags)

    monkeypatch.setattr(re, "compile", counting)
    compile_corpus(corpus.docs, surfaces)
    assert len(patterns) > 512
    assert {p: compiled[p] for p in patterns} == {p: 1 for p in patterns}


# --- the cyclic collector -------------------------------------------------------

@contextmanager
def _collector(enabled: bool):
    """The block runs with the cyclic collector enabled or disabled, and
    the collector is put back as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _bad_node_type(out: Path) -> None:
    lines = (out / "nodes.jsonl").read_bytes().splitlines()
    first = json.loads(lines[0])
    first["type"] = "Gadget"
    rewrite_member(out, "nodes.jsonl", b"\n".join([json.dumps(first).encode(), *lines[1:]]))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_build_and_load_leave_the_collector_as_they_found_it(tmp_path, enabled):
    out = tmp_path / "bundle"
    with _collector(enabled):
        build(out)
        assert gc.isenabled() is enabled
        load_bundle(out)
        assert gc.isenabled() is enabled
        _bad_node_type(out)
        with pytest.raises(SchemaError, match="/1/type"):
            load_bundle(out)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("failing", ["save_vectors", "sem_minimize"])
def test_a_failed_build_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, enabled, failing
):
    """save_vectors fails after the paused phase, sem_minimize inside it."""
    monkeypatch.setattr(pipeline, failing, _disk_full)
    with _collector(enabled):
        with pytest.raises(OSError, match="disk full"):
            build(tmp_path / "bundle")
        assert gc.isenabled() is enabled


def test_an_open_runs_no_collection(bundle50):
    """The open runs with the collector paused. A collection first empties
    the young generation, so that none falls due on the way in."""
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    with _collector(True):
        gc.collect()
        gc.callbacks.append(count)
        try:
            load_bundle(bundle50.path)
        finally:
            gc.callbacks.remove(count)
    assert collections == []


def test_compiling_minimizing_and_opening_make_no_reference_cycle(corpus50, bundle50):
    """What pausing the collector rests on: the paused phases leave nothing
    that only a collection could free. A closure that calls itself, as
    compile_formula's emitter once did, would leave each equation's
    fragment behind."""
    with _collector(False):
        gc.collect()
        graph = compile_corpus(corpus50.docs, corpus50.gazetteer)
        index = sem_minimize(graph)
        assert gc.collect() == 0
        del graph, index
        bundle = load_bundle(bundle50.path)
        engine = make_engine(bundle)
        assert gc.collect() == 0
        del bundle, engine


def _write_golden() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        answers = gold_answers(Path(tmp), align=False)
    lines = [json.dumps(a, sort_keys=True, ensure_ascii=False) for a in answers]
    text = "[\n" + ",\n".join(lines) + "\n]\n"
    GOLDEN_ANSWERS.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN_ANSWERS} ({len(answers)} answers)", file=sys.stderr)


if __name__ == "__main__":
    _write_golden()
