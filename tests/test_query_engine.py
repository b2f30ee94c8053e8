"""QueryEngine: one query embedding per answer, and the vector index contract."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import semrag.query_engine as query_engine
from semrag.errors import SchemaError
from semrag.pipeline import PipelineConfig, build_bundle, make_engine
from semrag.query_engine import QueryEngine, RetrievalConfig, Route, retrieval_text
from semrag.synth import synthetic_corpus
from semrag.vector_align import EMBED_DIM


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "aligned"])
def built(request, tmp_path_factory):
    corpus = synthetic_corpus(n_docs=3, seed=0)
    out = tmp_path_factory.mktemp("bundle")
    bundle = build_bundle(
        corpus.docs, corpus.gazetteer, out, config=PipelineConfig(align=request.param)
    )
    return corpus, bundle, make_engine(bundle)


@pytest.mark.parametrize("route", [None, Route.LOW, Route.MED, Route.HIGH])
def test_query_text_is_embedded_once_per_answer(built, monkeypatch, route):
    corpus, bundle, engine = built
    embedded: list[str] = []
    original = query_engine.embed_text

    def counting(text, *args, **kwargs):
        embedded.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(query_engine, "embed_text", counting)
    routes = set()
    for query in corpus.gold:
        embedded.clear()
        result = engine.answer(query.question, bundle.clients.llm, route=route)
        routes.add(result.route)
        assert embedded.count(query.question) == 1, (result.route, query.question)
    if route is None:
        assert routes == {"low", "med", "high"}


def test_answer_reports_retrieval_and_generation_time(built):
    corpus, bundle, engine = built
    result = engine.answer(corpus.gold[0].question, bundle.clients.llm)
    assert set(result.latency_ms) == {"retrieval_ms", "generation_ms"}


def test_retrieval_config_has_only_read_fields():
    names = [f.name for f in dataclasses.fields(RetrievalConfig)]
    assert names == ["budget", "khop", "anchor_hits", "max_anchors", "macro_limit"]


def test_vectors_must_cover_the_indexable_nodes(built):
    _, bundle, _ = built
    ids, matrix = bundle.vectors
    with pytest.raises(SchemaError):
        QueryEngine(bundle.graph, (ids[:-1], matrix[:-1]))
    with pytest.raises(TypeError):
        QueryEngine(bundle.graph)


@pytest.mark.parametrize("extra", [23, 64, -1])
def test_vectors_of_another_width_fail_closed(built, extra):
    """Rows 279 or 320 wide (a text half plus a topology half) or too
    narrow are refused with SchemaError, not a numpy shape error."""
    _, bundle, _ = built
    ids, matrix = bundle.vectors
    assert matrix.shape == (len(ids), EMBED_DIM)
    if extra > 0:
        other = np.hstack([matrix, np.zeros((len(ids), extra))])
    else:
        other = matrix[:, :extra]
    with pytest.raises(SchemaError):
        QueryEngine(bundle.graph, (ids, other))


def test_search_ranks_by_score_then_node_id(built):
    corpus, _, engine = built
    query = engine.embed_query(corpus.gold[0].question)
    hits = engine.search(query, 10)
    assert len(hits) == 10
    assert hits == sorted(hits, key=lambda pair: (-pair[1], pair[0]))


def test_nodes_with_equal_text_tie_exactly_in_node_id_order(built):
    corpus, bundle, engine = built
    ids = bundle.vectors[0]
    by_text: dict[str, list[str]] = {}
    for nid in ids:
        by_text.setdefault(retrieval_text(bundle.graph, nid), []).append(nid)
    groups = [members for members in by_text.values() if len(members) > 1]
    assert groups
    for query in corpus.gold:
        hits = engine.search(engine.embed_query(query.question), len(ids))
        score = dict(hits)
        rank = {nid: i for i, (nid, _) in enumerate(hits)}
        for members in groups:
            assert len({score[nid].hex() for nid in members}) == 1, members
            assert sorted(members, key=rank.__getitem__) == sorted(members)
