"""The med route: a warm engine, which reuses each node's expansion
neighbours and candidate form, answers as the plain algorithm does, and
embeds nothing but the question."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

import semrag.query_engine as query_engine
from semrag.doc_model import ParagraphBlock, Provenance, SourceDocument
from semrag.graph_core import Edge, Node, NodeType, RelationType, TypedGraph, prov_attrs
from semrag.pipeline import build_bundle, make_engine
from semrag.query_engine import (
    EXPAND_RELATIONS,
    VERBALIZABLE_TYPES,
    QueryEngine,
    RetrievalConfig,
    Route,
    evidence_record,
    index_vectors,
    indexed_ids,
    retrieval_text,
)
from semrag.synth import synthetic_corpus
from semrag.vector_align import embed_text

WORDS = ("rate", "power", "limit", "alpha", "beta", "timer", "gain")
# every relation the med route expands over, and one it does not
RELATIONS = sorted(EXPAND_RELATIONS, key=lambda rel: rel.value) + [RelationType.MEMBER_OF]
PROV = prov_attrs(Provenance("D1", "4.2", 3, (0.0, 0.0, 1.0, 1.0)))["prov"]


@st.composite
def typed_graphs(draw) -> TypedGraph:
    """Paragraphs, cells and operators with and without ``expr``, beside
    terms and variables, which the med route expands through but never
    cites, joined by random edges."""
    words = st.sampled_from(WORDS)
    phrase = st.lists(words, min_size=1, max_size=3).map(" ".join)
    g = TypedGraph()
    for i in range(draw(st.integers(1, 4))):
        g.add_node(Node(f"p{i}", NodeType.PARAGRAPH, draw(phrase), {"prov": PROV}))
    for i in range(draw(st.integers(0, 4))):
        attrs = {"prov": PROV, "row_path": [draw(words)], "col_path": [draw(words)],
                 "value": str(draw(st.integers(0, 99)))}
        g.add_node(Node(f"c{i}", NodeType.CELL, attrs["value"], attrs))
    for i in range(draw(st.integers(0, 4))):
        attrs = {"prov": PROV}
        if draw(st.booleans()):
            attrs["expr"] = f"{draw(words)} = {draw(phrase)}"
        g.add_node(Node(f"o{i}", NodeType.OPERATOR, "=", attrs))
    for i in range(draw(st.integers(0, 3))):
        g.add_node(Node(f"v{i}", NodeType.VARIABLE, draw(words), {"prov": PROV}))
    for word in draw(st.sets(words, max_size=3)):
        g.add_node(Node(f"term:{word}", NodeType.TERM, word, {"surfaces": [word]}))
    ids = sorted(g.nodes)
    for _ in range(draw(st.integers(0, 3 * len(ids)))):
        src, dst = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        g.add_edge(Edge(src, dst, draw(st.sampled_from(RELATIONS))))
    return g


def _plain_med(engine: QueryEngine, text: str) -> list[dict]:
    """The med route's evidence as the plain algorithm works it out: a
    breadth-first ball, a fresh embedding of each unindexed operator and
    a full sort of the candidates."""
    g, config = engine.g, engine.config
    q = engine._ask(text, engine.embed_query(text))
    anchors = engine._anchors(q)
    if not anchors:
        return []
    hops = dict.fromkeys(anchors, 0)
    level = sorted(hops)
    for hop in range(1, config.khop + 1):
        reached = set()
        for nid in level:
            reached.update(e.dst for e in g.out_edges[nid] if e.rel in EXPAND_RELATIONS)
            reached.update(e.src for e in g.in_edges[nid] if e.rel in EXPAND_RELATIONS)
        level = sorted(reached - hops.keys())
        hops.update((nid, hop) for nid in level)
    row_of = {nid: row for row, nid in enumerate(indexed_ids(g))}
    candidates = []
    for nid, hop in hops.items():
        node = g.nodes[nid]
        if node.type not in VERBALIZABLE_TYPES:
            continue
        if node.type is NodeType.OPERATOR and "expr" not in node.attrs:
            continue
        if nid in row_of:
            score = float(q.scores[row_of[nid]])
        else:
            score = float(embed_text(retrieval_text(g, nid)) @ q.query)
        candidates.append((nid, score, hop))
    candidates.sort(key=lambda c: (-c[1], c[2], c[0]))
    return [
        evidence_record(g, nid, score, Route.MED, hop).to_json()
        for nid, score, hop in candidates[: config.budget]
    ]


@given(
    typed_graphs(),
    st.integers(1, 6),
    st.integers(0, 3),
    st.lists(
        st.lists(st.sampled_from(WORDS + ("=",)), min_size=1, max_size=4).map(" ".join),
        min_size=1,
        max_size=6,
    ),
)
def test_one_engine_answers_each_med_question_as_the_plain_algorithm(
    g, budget, khop, questions
):
    engine = QueryEngine(g, index_vectors(g), RetrievalConfig(budget=budget, khop=khop))
    # each question twice: once as the ball's nodes are first seen, once warm
    for text in questions + questions:
        route, _, records = engine.retrieve(text, route=Route.MED)
        assert route is Route.MED
        assert [r.to_json() for r in records] == _plain_med(engine, text)


def _corpus_with_defined_rates():
    """synthetic_corpus(50, 11) with one more paragraph per document, in its
    equation's clause: it defines the equation's rate symbol and names the
    document's AlphaProc term. The linked questions' med balls then reach
    the equations' operators, which no med ball of the corpus alone holds."""
    corpus = synthetic_corpus(n_docs=50, seed=11)
    docs = []
    for d, doc in enumerate(corpus.docs):
        equation = next(block for block in doc.blocks if block.id == "e1")
        definition = ParagraphBlock(
            "p4", equation.prov, f"R{d} is the rate that AlphaProc{d} reaches.", "s2"
        )
        docs.append(
            SourceDocument(
                doc.id, doc.blocks + (definition,), doc.reading_order + (len(doc.blocks),)
            )
        )
    return corpus, docs


def test_a_warm_engine_embeds_each_operator_once_and_then_only_questions(
    tmp_path, monkeypatch
):
    corpus, docs = _corpus_with_defined_rates()
    bundle = build_bundle(docs, corpus.gazetteer, tmp_path)
    engine = make_engine(bundle)
    embedded: list[str] = []
    original = query_engine.embed_text

    def counting(text, *args, **kwargs):
        embedded.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(query_engine, "embed_text", counting)
    questions = [query.question for query in corpus.gold]

    def answer_all() -> list[dict]:
        answers = []
        for text in questions:
            answer = engine.answer(text, bundle.clients.llm).to_json()
            del answer["latency_ms"]
            answers.append(answer)
        return answers

    first = answer_all()
    operators = [text for text in embedded if text not in set(questions)]
    assert len(set(operators)) >= len(docs)
    cited = [r for a in first for r in a["evidence"] if r["node_type"] == "Operator"]
    assert cited and all(r["route"] == "med" for r in cited)
    embedded.clear()
    assert answer_all() == first
    assert embedded == questions
    # and the first pass embedded each operator once
    assert len(operators) == len(set(operators))
