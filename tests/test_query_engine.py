"""QueryEngine: one query embedding per answer, the vector index
contract, the shared ranking and gazetteer match against the per-call
implementations they replaced, and gold hit@k floors of routed retrieval."""

from __future__ import annotations

import _sre
import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semrag.layout_compiler as layout_compiler
import semrag.query_engine as query_engine
from conftest import random_spanned_table
from semrag.doc_model import CellSpec, Provenance, TableBlock
from semrag.errors import EmptyIndex, NoMacroNodes, NotFound, SchemaError
from semrag.graph_core import Node, NodeType, RelationType, TypedGraph, merge_units
from semrag.layout_compiler import (
    CellHit,
    Gazetteer,
    compile_table,
    lookup_cell,
)
from semrag.pipeline import (
    PipelineConfig,
    build_bundle,
    compile_corpus,
    load_bundle,
    make_engine,
)
from semrag.query_engine import (
    ACRONYM_PATTERN,
    INDEXED_TYPES,
    QueryEngine,
    RetrievalConfig,
    Route,
    evidence_record,
    index_vectors,
    indexed_ids,
    retrieval_text,
)
from semrag.synth import synthetic_corpus
from semrag.vector_align import EMBED_DIM, embed_text


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
    assert names == ["budget", "khop"]


def test_vectors_must_cover_the_indexable_nodes(built):
    _, bundle, _ = built
    ids = indexed_ids(bundle.graph)
    indexed = set(INDEXED_TYPES)
    assert ids == sorted(nid for nid, n in bundle.graph.nodes.items() if n.type in indexed)
    assert len(bundle.vectors) == len(ids)
    for rows in (bundle.vectors[:-1], np.vstack([bundle.vectors, bundle.vectors[:1]])):
        with pytest.raises(SchemaError, match="indexable nodes"):
            QueryEngine(bundle.graph, rows)
    with pytest.raises(TypeError):
        QueryEngine(bundle.graph)


@pytest.mark.parametrize("extra", [23, 64, -1])
def test_vectors_of_another_width_fail_closed(built, extra):
    """Rows 279 or 320 wide (a text half plus a topology half) or too
    narrow are refused with SchemaError, not a numpy shape error."""
    _, bundle, _ = built
    matrix = bundle.vectors
    assert matrix.shape == (len(indexed_ids(bundle.graph)), EMBED_DIM)
    if extra > 0:
        other = np.hstack([matrix, np.zeros((len(matrix), extra))])
    else:
        other = matrix[:, :extra]
    with pytest.raises(SchemaError):
        QueryEngine(bundle.graph, other)


def test_reopened_rows_equal_the_per_node_embedding(tmp_path):
    """The engine's rows, scaled from a reopened bundle's hash counts all
    at once, hold the bits embed_text gives each node's text."""
    corpus = synthetic_corpus(n_docs=60, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, tmp_path)
    bundle = load_bundle(tmp_path)
    engine = make_engine(bundle)
    ids = indexed_ids(bundle.graph)
    assert engine._matrix.shape == (len(ids), EMBED_DIM)
    for row, nid in enumerate(ids):
        want = embed_text(retrieval_text(bundle.graph, nid))
        assert engine._matrix[row].tobytes() == want.tobytes(), nid


def test_an_open_engine_shares_the_loaded_rows(tmp_path):
    """A loaded bundle decodes its counts straight into the float rows the
    engine searches; the engine takes them without a copy, so an open
    engine holds one N x EMBED_DIM matrix."""
    corpus = synthetic_corpus(n_docs=3, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, tmp_path)
    bundle = load_bundle(tmp_path)
    rows = bundle.vectors
    assert rows.dtype == np.float64
    assert rows.shape == (len(indexed_ids(bundle.graph)), EMBED_DIM)
    assert make_engine(bundle)._matrix is rows
    assert make_engine(bundle)._matrix is rows


def test_search_ranks_by_score_then_node_id(built):
    corpus, _, engine = built
    query = engine.embed_query(corpus.gold[0].question)
    hits = engine.search(query, 10)
    assert len(hits) == 10
    assert hits == sorted(hits, key=lambda pair: (-pair[1], pair[0]))


def test_nodes_with_equal_text_tie_exactly_in_node_id_order(built):
    corpus, bundle, engine = built
    ids = indexed_ids(bundle.graph)
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


# --- one ranking of one score vector ------------------------------------------

# every type set retrieval ranks: hit entropy and anchors, low route, high route
RANKED_TYPE_SETS = [None, (NodeType.PARAGRAPH, NodeType.CELL), (NodeType.MACRO_NODE,)]
WORDS = ["power", "limit", "harq", "cell", "band"]


def full_sort_search(g, ids, matrix, query, k, types):
    """The search this ranking replaced: a mask over every indexed node and
    a full sort by (-score, node id)."""
    allowed = set(types) if types is not None else None
    mask = [allowed is None or g.nodes[nid].type in allowed for nid in ids]
    if not any(mask):
        raise EmptyIndex("vector index holds no nodes")
    scores = matrix @ query
    ranked = sorted(
        ((ids[i], float(scores[i])) for i in range(len(ids)) if mask[i]),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[: max(k, 0)]


@st.composite
def indexed_graphs(draw):
    """Indexable nodes over a five-word vocabulary, so many rows share their
    text (or have none) and score exactly alike."""
    g = TypedGraph()
    for i in range(draw(st.integers(1, 30))):
        words = draw(st.lists(st.sampled_from(WORDS), max_size=2))
        g.add_node(Node(f"n{i:02d}", draw(st.sampled_from(INDEXED_TYPES)), " ".join(words)))
    return g


@settings(max_examples=200, deadline=None)
@given(indexed_graphs(), st.lists(st.sampled_from(WORDS), max_size=3))
def test_ranking_equals_a_full_sort_at_every_k(g, words):
    ids = indexed_ids(g)
    engine = QueryEngine(g, index_vectors(g))
    matrix = np.array([embed_text(retrieval_text(g, nid)) for nid in ids])
    query = engine.embed_query(" ".join(words))
    for types in RANKED_TYPE_SETS:
        for k in range(-1, len(ids) + 2):
            try:
                want = full_sort_search(g, ids, matrix, query, k, types)
            except EmptyIndex:
                with pytest.raises(EmptyIndex):
                    engine.search(query, k, types)
                continue
            assert engine.search(query, k, types) == want, (types, k)


def test_ties_straddling_the_cut_go_to_the_lower_node_ids():
    g = TypedGraph()
    for i, text in enumerate(["band", "power limit", "power", "power", "power", "cell"]):
        g.add_node(Node(f"n{i}", NodeType.PARAGRAPH, text))
    engine = QueryEngine(g, index_vectors(g))
    hits = engine.search(engine.embed_query("power"), 3)
    assert [nid for nid, _ in hits] == ["n2", "n3", "n4"]
    assert len({score for _, score in hits}) == 1


# --- one gazetteer match --------------------------------------------------------

OVERLAPPING = [
    "spectral efficiency", "efficiency", "spectral", "Spectral Efficiency",
    "HARQ", "HARQ-ACK", "ACK", "ack", "CQI report", "report", "a.b", "",
]
# surfaces edged by punctuation or holding no word character
PUNCTUATED = ["C++", ".NET", "++", "-.-"]
# spellings re.IGNORECASE matches to each other although str.lower or
# str.casefold tells them apart; U+0345 is not a word character, and its
# case partners are
CASE_PARTNERS = [
    "\u017ftate", "state", "\u212aelvin", "kelvin", "\u0130nit", "\u0131nit",
    "init", "INIT", "\u00b5s", "\u03bcs", "stra\u00dfe", "STRA\u1e9eE",
    "x\u03b9", "x\u0345", "x\u0345y", "X\u0399Y",
]


def per_surface_hits(gazetteer: dict[str, str], text: str) -> tuple[set[str], set[str]]:
    """The matcher the word-indexed Gazetteer replaced: one re.search per
    surface, longest first, on every call."""
    nodes: set[str] = set()
    surfaces: set[str] = set()
    for surface in sorted(gazetteer, key=lambda s: (-len(s), s)):
        if re.search(rf"\b{re.escape(surface)}\b", text, re.IGNORECASE):
            nodes.add(gazetteer[surface])
            surfaces.add(surface)
    return nodes, surfaces


@st.composite
def mention_texts(draw):
    vocabulary = OVERLAPPING + PUNCTUATED + CASE_PARTNERS + ["the", "x1", "LTE"]
    pieces = draw(st.lists(st.sampled_from(vocabulary), max_size=8))
    text = ""
    for piece in pieces:
        if draw(st.booleans()):
            piece = piece.upper()
        text += piece + draw(st.sampled_from([" ", "", "-", ". ", "  "]))
    return text


def term_graph() -> TypedGraph:
    """Term nodes whose surfaces overlap; two of them share a surface."""
    g = TypedGraph()
    terms = {
        "t:se": ("spectral efficiency", ["Spectral Efficiency"]),
        "t:eff": ("efficiency", []),
        "t:spec": ("spectral", ["spectral"]),
        "t:harq": ("HARQ", ["HARQ-ACK"]),
        "t:ack": ("ACK", ["ack", "HARQ-ACK"]),
        "t:cqi": ("CQI report", ["report", ""]),
        "t:ab": ("a.b", []),
        "t:cpp": ("C++", [".NET"]),
        "t:punct": ("++", ["-.-"]),
        "t:state": ("\u017ftate", []),
        "t:kelvin": ("\u212aelvin", []),
        "t:init": ("\u0130nit", ["\u0131nit"]),
        "t:micro": ("\u00b5s", []),
        "t:street": ("stra\u00dfe", []),
        "t:iota": ("x\u03b9", ["x\u0345y"]),
    }
    for nid, (text, surfaces) in terms.items():
        g.add_node(Node(nid, NodeType.TERM, text, {"surfaces": surfaces}))
    return g


@settings(max_examples=300, deadline=None)
@given(mention_texts())
def test_gazetteer_matches_equal_the_per_surface_search(text):
    g = term_graph()
    engine = QueryEngine(g, index_vectors(g))
    gazetteer: dict[str, str] = {}
    for node in g.nodes_of_type(NodeType.TERM):
        for surface in set(node.attrs.get("surfaces", [])) | {node.text}:
            if surface.strip():
                gazetteer.setdefault(surface, node.id)
    nodes, surfaces = per_surface_hits(gazetteer, text)
    assert set(Gazetteer(gazetteer).mentioned(text)) == surfaces
    assert engine.entity_matches(text) == sorted(nodes)
    known = {s.lower() for s in surfaces}
    acronyms = {t for t in ACRONYM_PATTERN.findall(text) if t.lower() not in known}
    assert engine.entity_count(text) == len(nodes) + len(acronyms)
    features = engine.features(text, engine.embed_query(text))
    assert features[1] == float(len(nodes) + len(acronyms))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(OVERLAPPING + PUNCTUATED + CASE_PARTNERS), max_size=8),
    mention_texts(),
)
@example(["ACK-ack"], "ack-ACK-ack-ACK-ack")  # matches that would overlap
def test_gazetteer_spans_equal_each_surfaces_pattern(surfaces, text):
    """The folded search finds, surface by surface, what the surface's
    whole-word, case-insensitive pattern finds: the same surfaces, and the
    same spans, left to right and without overlap."""
    gazetteer = Gazetteer(surfaces)
    ordered = sorted({s for s in surfaces if s.strip()}, key=lambda s: (-len(s), s))
    patterns = [(s, re.compile(rf"\b{re.escape(s)}\b", re.IGNORECASE)) for s in ordered]
    assert gazetteer.mentioned(text) == [s for s, pattern in patterns if pattern.search(text)]
    assert list(gazetteer.matches(text)) == [
        (s, m.start(), m.end()) for s, pattern in patterns for m in pattern.finditer(text)
    ]


def test_fold_table_keeps_only_code_points_that_fold_to_another():
    """Every code point folds to the least member of its re.IGNORECASE
    class, and the translate table shared by every fold holds only code
    points that fold to another, so folding any text cannot grow it
    beyond Unicode's case mappings."""
    every = "".join(map(chr, [*range(0xD800), *range(0xE000, 0x110000)]))
    lows = map(_sre.unicode_tolower, map(ord, every))
    least = [min((low,) + layout_compiler._EXTRA_CASES.get(low, ())) for low in lows]
    assert layout_compiler._fold(every) == "".join(map(chr, least))
    assert all(code != folded for code, folded in layout_compiler._FOLD.items())


@pytest.mark.parametrize(
    "surface, text",
    [
        ("C++", "C++11"),
        (".NET", "x.NET"),
        ("HARQ-ACK", "the harq-ack bit"),
        ("++", "a++b"),
        ("spectral efficiency", "SPECTRAL EFFICIENCY"),
        ("\u017ftate", "the STATE"),
        ("state", "the \u017ftate"),
        ("\u212aelvin", "kelvin"),
        ("kelvin", "\u212aELVIN"),
        ("\u0130nit", "init"),
        ("init", "\u0130NIT"),
        ("\u0131nit", "INIT"),
        ("\u00b5s", "\u03bcs"),
        ("\u03bcs", "\u00b5S"),
        ("stra\u00dfe", "STRA\u1e9eE"),
        ("x\u03b9", "x\u0345y"),
        ("x\u0345y", "X\u0399Y"),
    ],
)
def test_each_case_partner_and_punctuated_surface_is_a_candidate(surface, text):
    """re.IGNORECASE finds these surfaces in these texts, and so must the
    word index in front of the patterns."""
    assert re.search(rf"\b{re.escape(surface)}\b", text, re.IGNORECASE)
    assert Gazetteer([surface, "other words"]).mentioned(text) == [surface]


# --- high route and header lookups without a graph scan ----------------------------


def test_high_route_without_macro_nodes_raises_no_macro_nodes():
    corpus = synthetic_corpus(n_docs=2, seed=0)
    g = compile_corpus(corpus.docs, corpus.gazetteer)
    assert not g.nodes_of_type(NodeType.MACRO_NODE)
    engine = QueryEngine(g, index_vectors(g))
    with pytest.raises(NoMacroNodes):
        engine.retrieve(corpus.gold[0].question, route=Route.HIGH)


def _lookup(lookup, *args):
    try:
        return lookup(*args)
    except NotFound:
        return "not found"


def _two_sided_scan(g, row_path, col_path, predicates=()):
    """lookup_cell as it was before the cell index: per side, the union of
    the RowBind (or ColBind) in-edge sources of every header with that
    path, found by a scan of the graph; then the two sides intersected."""
    row_path = tuple(s.strip() for s in row_path)
    col_path = tuple(s.strip() for s in col_path)

    def bound(kind, rel, path):
        return {
            edge.src
            for header in g.nodes_of_type(kind)
            if tuple(header.attrs.get("path", ())) == path
            for edge in g.in_edges[header.id]
            if edge.rel == rel
        }

    candidates = None
    if row_path:
        candidates = bound(NodeType.ROW_HEADER, RelationType.ROW_BIND, row_path)
    if col_path:
        cols = bound(NodeType.COL_HEADER, RelationType.COL_BIND, col_path)
        candidates = cols if candidates is None else candidates & cols
    if candidates is None:
        candidates = {n.id for n in g.nodes_of_type(NodeType.CELL)}
    if not candidates:
        raise NotFound("no cell matches")
    hits = []
    for cell_id in candidates:
        node = g.nodes[cell_id]
        guards = sorted(
            (g.nodes[edge.src].attrs.get("marker", ""), g.nodes[edge.src].text)
            for edge in g.in_edges[cell_id]
            if edge.rel == RelationType.ACTIVATES
            and g.nodes[edge.src].attrs.get("marker") not in predicates
        )
        hits.append(
            CellHit(
                node_id=cell_id,
                value=node.attrs.get("value", node.text),
                unit=node.attrs.get("unit"),
                condition="; ".join(text for _, text in guards) or None,
                prov=node.attrs.get("prov", {}),
            )
        )
    hits.sort(
        key=lambda h: (
            h.prov.get("doc_id", ""),
            h.prov.get("page", 0),
            tuple(h.prov.get("bbox", ())),
            h.node_id,
        )
    )
    return hits


def _assert_lookups_equal_the_scan(g, engine, predicate_sets=((),)):
    """Every row path x column path, plus an open and an absent path on
    each side, looked up by the engine, by lookup_cell building its own
    index, and by the two-sided scan."""
    paths = {
        kind: sorted({tuple(n.attrs["path"]) for n in g.nodes_of_type(kind)})
        + [(), ("absent",)]
        for kind in (NodeType.ROW_HEADER, NodeType.COL_HEADER)
    }
    for row_path in paths[NodeType.ROW_HEADER]:
        for col_path in paths[NodeType.COL_HEADER]:
            for predicates in predicate_sets:
                args = (row_path, col_path, predicates)
                want = _lookup(_two_sided_scan, g, *args)
                assert _lookup(lookup_cell, g, *args) == want, args
                assert _lookup(engine.lookup, *args) == want, args


def test_indexed_lookups_equal_graph_scans(built):
    _, bundle, engine = built
    _assert_lookups_equal_the_scan(bundle.graph, engine)


def test_lookups_over_paths_shared_by_many_tables_equal_graph_scans():
    """Eight random spanned tables, two per document, whose row paths (r0,
    r1, ...) and column paths (g0/c0, ...) recur from table to table, so
    each index set holds the cells of several tables."""
    fragments = []
    for t in range(8):
        table, _ = random_spanned_table(random.Random(t), table_id=f"t{t % 2}")
        fragments.append(compile_table(f"RT{t // 2}", table).fragment)
    g = merge_units(fragments)
    headers_per_path: dict[tuple, int] = {}
    for node in g.nodes_of_type(NodeType.COL_HEADER):
        path = tuple(node.attrs["path"])
        headers_per_path[path] = headers_per_path.get(path, 0) + 1
    assert max(headers_per_path.values()) >= 4
    engine = QueryEngine(g, index_vectors(g))
    _assert_lookups_equal_the_scan(g, engine, predicate_sets=((), ("a",), ("a", "b")))


@pytest.mark.parametrize(
    "footnotes, condition",
    [
        ((("1", ""),), None),
        ((("1", ""), ("2", "NOTE 2: low band.")), "; NOTE 2: low band."),
        ((("1", "NOTE 1: high band."),), "NOTE 1: high band."),
    ],
    ids=["empty", "empty-and-text", "text"],
)
def test_lookups_and_evidence_give_a_cell_the_same_condition(footnotes, condition):
    markers = tuple(marker for marker, _ in footnotes)
    rows = (
        (CellSpec("Parameter", is_header=True), CellSpec("Maximum", is_header=True)),
        (CellSpec("alpha", is_header=True), CellSpec("23", footnote_markers=markers)),
    )
    prov = Provenance("DOC", "7.1", 2, (10.0, 20.0, 200.0, 30.0))
    table = TableBlock("t1", prov, rows, "Table 1: limits", footnotes)
    g = merge_units([compile_table("DOC", table).fragment])
    [hit] = lookup_cell(g, ("alpha",), ("Maximum",))
    record = evidence_record(g, hit.node_id, 0.0, Route.LOW)
    assert hit.condition == record.condition == condition
    [cleared] = lookup_cell(g, ("alpha",), ("Maximum",), markers)
    assert cleared.condition is None


def test_the_engine_builds_its_cell_index_once(built, monkeypatch):
    corpus, bundle, _ = built
    g = bundle.graph
    calls = []
    original = layout_compiler.cell_index

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(layout_compiler, "cell_index", counting)
    monkeypatch.setattr(query_engine, "cell_index", counting)
    engine = make_engine(bundle)
    for query in corpus.gold:
        engine.answer(query.question, bundle.clients.llm)
    assert calls == []
    rows = sorted({tuple(n.attrs["path"]) for n in g.nodes_of_type(NodeType.ROW_HEADER)})
    cols = sorted({tuple(n.attrs["path"]) for n in g.nodes_of_type(NodeType.COL_HEADER)})
    _lookup(engine.lookup, rows[0], cols[0])
    assert calls == [g]
    for row_path in rows:
        for col_path in cols:
            _lookup(engine.lookup, row_path, col_path)
    for query in corpus.gold:
        engine.answer(query.question, bundle.clients.llm)
    assert calls == [g]


def test_med_route_scores_are_the_questions_score_product(built):
    corpus, bundle, engine = built
    asked = 0
    for query in corpus.gold:
        route, _, records = engine.retrieve(query.question)
        if route is not Route.MED:
            continue
        asked += 1
        q = engine._ask(query.question, engine.embed_query(query.question))
        for record in records:
            row = engine._row_of.get(record.node_id)
            if row is not None:
                assert record.score == float(q.scores[row]), record.node_id
    assert asked


# Measured on synthetic_corpus(n_docs=50, seed=11), whose 650 gold
# questions with a known target node route 300 low and 350 med. Runs are
# deterministic, so a single lost hit fails.
GOLD_TARGETED = 650
GOLD_HIT_AT_1 = 618
GOLD_HIT_AT_5 = 643


def test_routed_evidence_meets_the_gold_hit_at_k_floors(corpus50, engine50):
    targeted = hit1 = hit5 = 0
    for query in corpus50.gold:
        if query.expected_node is None:
            continue
        _, _, records = engine50.retrieve(query.question)
        ids = [record.node_id for record in records]
        targeted += 1
        hit1 += ids[:1] == [query.expected_node]
        hit5 += query.expected_node in ids[:5]
    assert targeted == GOLD_TARGETED
    assert hit1 >= GOLD_HIT_AT_1
    assert hit5 >= GOLD_HIT_AT_5
