"""Typed multigraph: identity rules, merging, traversal, and persistence."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_graph, random_graph
from semrag.errors import ChecksumError, EmptyAnchors, IdCollisionError, SchemaError
from semrag.graph_core import (
    Edge,
    GraphFragment,
    Node,
    NodeType,
    RelationType,
    TypedGraph,
    degree_vector,
    graphs_equal,
    khop_expand,
    load_graph,
    merge_units,
    normalize_term,
    save_graph,
    volume,
)
from semrag.pipeline import build_bundle, compile_corpus, load_bundle
from semrag.synth import synthetic_corpus


def _para(nid: str, text: str = "t") -> Node:
    return Node(nid, NodeType.PARAGRAPH, text)


# ---------------------------------------------------------------------------
# identity and degree rules


def test_add_node_is_idempotent_for_identical_payload():
    g = TypedGraph()
    g.add_node(_para("a", "same"))
    g.add_node(_para("a", "same"))
    assert len(g.nodes) == 1


def test_add_node_rejects_conflicting_payload():
    g = TypedGraph()
    g.add_node(_para("a", "one"))
    with pytest.raises(IdCollisionError):
        g.add_node(_para("a", "two"))


def test_add_edge_requires_both_endpoints():
    g = TypedGraph()
    g.add_node(_para("a"))
    with pytest.raises(ValueError):
        g.add_edge(Edge("a", "b", RelationType.REFERS_TO))


def test_parallel_edges_are_kept_in_order_and_all_count():
    g = make_graph(2, [(0, 1), (0, 1)])
    g.add_edge(Edge("n0", "n1", RelationType.REFERS_TO, {"note": "third"}))
    assert len(g.edges) == 3
    assert g.out_edges["n0"] == g.in_edges["n1"] == g.edges
    assert [e.attrs for e in g.edges] == [{}, {}, {"note": "third"}]
    assert g.degree("n0") == 3
    assert g.degree("n1") == 3


def test_parallel_edges_save_in_the_order_they_were_added():
    g = make_graph(2, [])
    for note in ("b", "a", "c"):
        g.add_edge(Edge("n1", "n0", RelationType.REFERS_TO, {"note": note}))
    g.add_edge(Edge("n0", "n1", RelationType.REFERS_TO))
    lines = [json.loads(line) for line in save_graph(g)[1].splitlines()]
    assert [(e["src"], e["attrs"]) for e in lines] == [
        ("n0", {}), ("n1", {"note": "b"}), ("n1", {"note": "a"}), ("n1", {"note": "c"}),
    ]
    assert all("id" not in e for e in lines)
    assert save_graph(load_graph(*save_graph(g))) == save_graph(g)


def test_self_loop_counts_two_toward_degree():
    g = make_graph(1, [(0, 0)])
    assert g.degree("n0") == 2
    assert volume(g) == 2


@pytest.mark.parametrize("seed", range(10))
def test_volume_is_twice_edge_count(seed):
    g, edges, _ = random_graph(seed, n_max=20, allow_loops=(seed % 2 == 0))
    assert volume(g) == 2 * len(edges)
    assert sum(d for _, d in degree_vector(g)) == volume(g)


@given(st.integers(0, 2**32 - 1))
def test_degree_counts_the_incident_edges(seed):
    # parallel edges count once each, and a self-loop, listed once, twice
    g, _, _ = random_graph(seed, n_max=20, allow_loops=True)
    for nid in g.nodes:
        incident = g.incident_edges(nid)
        assert g.degree(nid) == sum(2 if e.src == e.dst else 1 for e in incident)


# ---------------------------------------------------------------------------
# term normalization and unit merging


@pytest.mark.parametrize(
    "surface,key",
    [
        ("HARQ", "harq"),
        ("  spectral   efficiency  ", "spectral efficiency"),
        ("subcarriers", "subcarrier"),
        ("s", "s"),
        ("Loss", "los"),
    ],
)
def test_normalize_term_cases(surface, key):
    assert normalize_term(surface) == key


@given(st.text(min_size=1, max_size=30))
@example("0\rS")
@example("asss")
@example("sss")
def test_normalize_term_is_idempotent(surface):
    once = normalize_term(surface)
    assert normalize_term(once) in (once, once.rstrip("s") or once)
    # Applying the key again never changes the class it names.
    assert normalize_term(normalize_term(once)) == normalize_term(once)


def test_merge_units_unifies_terms_and_redirects_edges():
    f1 = GraphFragment()
    p1 = f1.add_node(_para("d1:p1", "uses HARQ"))
    t1 = f1.add_node(Node("d1:t1", NodeType.TERM, "HARQ"))
    f1.add_edge(p1.id, RelationType.REFERS_TO, t1.id)

    f2 = GraphFragment()
    p2 = f2.add_node(_para("d2:p1", "harq again"))
    t2 = f2.add_node(Node("d2:t1", NodeType.TERM, "harq"))
    f2.add_edge(p2.id, RelationType.REFERS_TO, t2.id)

    g = merge_units([f1, f2])
    terms = g.nodes_of_type(NodeType.TERM)
    assert len(terms) == 1
    unified = terms[0]
    assert unified.id == "term:harq"
    assert unified.attrs["surfaces"] == ["HARQ", "harq"]
    dsts = {e.dst for e in g.edges if e.rel is RelationType.REFERS_TO}
    assert dsts == {"term:harq"}
    assert len(g.edges) == 2


def test_merge_units_is_fragment_order_independent():
    def build():
        frags = []
        for d in ("a", "b", "c"):
            f = GraphFragment()
            p = f.add_node(_para(f"{d}:p", f"text {d}"))
            t = f.add_node(Node(f"{d}:t", NodeType.TERM, "Subcarriers" if d != "b" else "subcarrier"))
            f.add_edge(p.id, RelationType.REFERS_TO, t.id)
            frags.append(f)
        return frags

    forward = merge_units(build())
    backward = merge_units(list(reversed(build())))
    assert graphs_equal(forward, backward)


def _repeating_fragment(note: str) -> GraphFragment:
    f = GraphFragment()
    p = f.add_node(_para("d:p"))
    t = f.add_node(Node("d:t", NodeType.TERM, "HARQ"))
    f.add_edge(p.id, RelationType.REFERS_TO, t.id)
    f.add_edge(p.id, RelationType.REFERS_TO, t.id, {"note": note})
    return f


def test_merge_units_keeps_an_equal_repeat_once_and_rejects_a_conflicting_one():
    once = merge_units([_repeating_fragment("x")])
    assert [(e.src, e.dst, e.attrs) for e in once.edges] == [
        ("d:p", "term:harq", {}), ("d:p", "term:harq", {"note": "x"}),
    ]
    twice = merge_units([_repeating_fragment("x"), _repeating_fragment("x")])
    assert save_graph(twice) == save_graph(once)
    # the second parallel edge of each fragment claims one (src, rel, dst, k)
    with pytest.raises(IdCollisionError):
        merge_units([_repeating_fragment("x"), _repeating_fragment("y")])


def test_a_document_given_twice_compiles_to_the_graph_of_it_given_once():
    corpus = synthetic_corpus(n_docs=3, seed=0)
    once = compile_corpus(corpus.docs, corpus.gazetteer)
    twice = compile_corpus([*corpus.docs, corpus.docs[0]], corpus.gazetteer)
    assert len(once.edges) == len(twice.edges) == 132
    assert save_graph(twice) == save_graph(once)


def test_merge_units_keeps_distinct_terms_apart():
    f = GraphFragment()
    f.add_node(Node("x:t1", NodeType.TERM, "HARQ"))
    f.add_node(Node("x:t2", NodeType.TERM, "CQI"))
    g = merge_units([f])
    assert {n.id for n in g.nodes_of_type(NodeType.TERM)} == {"term:harq", "term:cqi"}


# ---------------------------------------------------------------------------
# k-hop expansion


def _line_graph(n: int) -> TypedGraph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_khop_zero_returns_anchors_only():
    g = _line_graph(5)
    sub = khop_expand(g, {"n2"}, 0, {RelationType.REFERS_TO})
    assert sub.nodes == ["n2"]
    assert sub.hops == {"n2": 0}


def test_khop_radius_controls_reach_both_directions():
    g = _line_graph(7)
    sub = khop_expand(g, {"n3"}, 2, {RelationType.REFERS_TO})
    assert set(sub.nodes) == {"n1", "n2", "n3", "n4", "n5"}
    assert sub.hops["n1"] == 2 and sub.hops["n5"] == 2 and sub.hops["n3"] == 0
    assert sub.nodes == ["n3", "n2", "n4", "n1", "n5"]


def test_khop_filters_by_relation_type():
    g = TypedGraph()
    for nid in ("a", "b", "c"):
        g.add_node(_para(nid))
    g.add_edge(Edge("a", "b", RelationType.REFERS_TO))
    g.add_edge(Edge("a", "c", RelationType.CONTAINS))
    sub = khop_expand(g, {"a"}, 3, {RelationType.REFERS_TO})
    assert set(sub.nodes) == {"a", "b"}


def test_khop_budget_truncates_in_id_order():
    g = make_graph(6, [(0, i) for i in range(1, 6)])
    sub = khop_expand(g, {"n0"}, 1, {RelationType.REFERS_TO}, budget=3)
    assert sub.nodes == ["n0", "n1", "n2"]


def test_khop_ignores_unknown_anchors_but_needs_one():
    g = _line_graph(3)
    sub = khop_expand(g, {"n0", "ghost"}, 1, {RelationType.REFERS_TO})
    assert sub.nodes == ["n0", "n1"]
    assert sub.hops == {"n0": 0, "n1": 1}
    with pytest.raises(EmptyAnchors):
        khop_expand(g, {"ghost"}, 1, {RelationType.REFERS_TO})


def test_khop_is_deterministic():
    g, _, _ = random_graph(9, n_max=30, allow_loops=False)
    first = khop_expand(g, {"n0", "n3"}, 2, {RelationType.REFERS_TO})
    second = khop_expand(g, {"n3", "n0"}, 2, {RelationType.REFERS_TO})
    assert first == second


_KHOP_RELATIONS = (RelationType.REFERS_TO, RelationType.CONTAINS, RelationType.DEFINES)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.sampled_from(_KHOP_RELATIONS),
                ),
                max_size=40,
            ),
            st.sets(st.integers(0, n - 1), min_size=1),
        )
    ),
    st.sets(st.sampled_from(_KHOP_RELATIONS), min_size=1),
    st.integers(0, 4),
    st.integers(1, 12),
)
def test_khop_hops_match_a_plain_bfs(graph_spec, allowed, k, budget):
    n, edges, anchor_indices = graph_spec
    g = TypedGraph()
    for i in range(n):
        g.add_node(_para(f"n{i}"))
    for u, v, rel in edges:
        g.add_edge(Edge(f"n{u}", f"n{v}", rel))
    anchors = {f"n{i}" for i in anchor_indices}
    sub = _expand_as_a_plain_bfs(g, edges, anchors, k, allowed, budget)
    # relations are compared by identity, so any collection of them serves
    for given_as in (frozenset, tuple):
        assert khop_expand(g, anchors, k, given_as(allowed), budget=budget) == sub


def _expand_as_a_plain_bfs(g, edges, anchors, k, allowed, budget):
    """khop_expand's ball, checked against a plain BFS over the edge list
    (u, v, rel) of g, whose nodes are n0, n1, ...: the same hops when the
    ball fits the budget, and the BFS distances of what it keeps when not."""
    neighbors: dict[str, set[str]] = {nid: set() for nid in g.nodes}
    for u, v, rel in edges:
        src, dst = f"n{u}", f"n{v}"
        if rel in allowed:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
    reference = {a: 0 for a in anchors}
    level = sorted(anchors)
    for hop in range(1, k + 1):
        level = sorted({o for nid in level for o in neighbors[nid]} - reference.keys())
        reference.update((nid, hop) for nid in level)
    sub = khop_expand(g, anchors, k, allowed, budget=budget)
    assert sub.nodes == sorted(sub.hops, key=lambda nid: (sub.hops[nid], nid))
    if len(reference) <= budget:
        assert sub.hops == reference
        return sub
    # the budget cut the ball: anchors always stay, and every member keeps
    # its BFS distance, reached through a member one hop nearer
    assert anchors <= set(sub.nodes)
    assert len(sub.nodes) <= max(budget, len(anchors))
    for nid, hop in sub.hops.items():
        assert hop == reference[nid] <= k
        if hop > 0:
            assert any(sub.hops.get(o) == hop - 1 for o in neighbors[nid])
    deepest = max(sub.hops.values())
    assert {nid for nid, hop in reference.items() if hop < deepest} <= set(sub.nodes)
    return sub


@given(st.integers(1, 6), st.data())
def test_khop_memo_follows_the_nodes_and_edges_added_between_calls(n, data):
    """One graph for the whole example: expansions over any collection of
    relations, with nodes and edges added between them, each equal to a
    plain BFS and to the ball of a graph built afresh."""
    g = TypedGraph()
    for i in range(n):
        g.add_node(_para(f"n{i}"))
    edges: list[tuple[int, int, RelationType]] = []
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        step = data.draw(st.sampled_from(("expand", "expand", "node", "edge")))
        if step == "node":
            g.add_node(_para(f"n{n}"))
            n += 1
        elif step == "edge":
            edge = data.draw(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                          st.sampled_from(_KHOP_RELATIONS)),
                label="edge",
            )
            g.add_edge(Edge(f"n{edge[0]}", f"n{edge[1]}", edge[2]))
            edges.append(edge)
        else:
            anchors = {f"n{i}" for i in data.draw(
                st.sets(st.integers(0, n - 1), min_size=1), label="anchors")}
            k = data.draw(st.integers(0, 4), label="k")
            budget = data.draw(st.integers(1, 12), label="budget")
            allowed = data.draw(
                st.sets(st.sampled_from(_KHOP_RELATIONS), min_size=1), label="allowed")
            given_as = data.draw(st.sampled_from((frozenset, tuple, set)))
            sub = _expand_as_a_plain_bfs(g, edges, anchors, k, given_as(allowed), budget)
            fresh = make_graph(n, [])
            for u, v, rel in edges:
                fresh.add_edge(Edge(f"n{u}", f"n{v}", rel))
            assert khop_expand(fresh, anchors, k, allowed, budget=budget) == sub


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip():
    g, _, _ = random_graph(4, n_max=15, allow_loops=True)
    g.nodes["n0"].attrs["prov"] = {"doc_id": "D1", "page": 2}
    back = load_graph(*save_graph(g))
    assert graphs_equal(g, back)


def test_save_is_byte_stable():
    g, _, _ = random_graph(5, n_max=12, allow_loops=False)
    assert save_graph(g) == save_graph(g)


def test_load_rejects_tampered_content(tmp_path):
    """Graph content is checked by the bundle manifest that covers it."""
    corpus = synthetic_corpus(n_docs=2, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, tmp_path)
    target = tmp_path / "nodes.jsonl"
    target.write_bytes(target.read_bytes().replace(b"SD00:", b"SD09:", 1))
    with pytest.raises(ChecksumError):
        load_bundle(tmp_path)


def test_graphs_equal_detects_attr_difference():
    a = make_graph(2, [(0, 1)])
    b = make_graph(2, [(0, 1)])
    assert graphs_equal(a, b)
    b.nodes["n0"].attrs["extra"] = 1
    assert not graphs_equal(a, b)


def test_loaded_graph_keeps_one_object_per_node_id_and_provenance(tmp_path):
    corpus = synthetic_corpus(n_docs=3, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, tmp_path)
    g = load_bundle(tmp_path).graph
    keys = {node_id: node_id for node_id in g.nodes}
    for edge in g.edges:
        assert edge.src is keys[edge.src] and edge.dst is keys[edge.dst]
    shared: dict[str, list[dict]] = {}
    for item in [*g.nodes.values(), *g.edges]:
        if "prov" in item.attrs:
            shared.setdefault(repr(item.attrs["prov"]), []).append(item.attrs["prov"])
    assert max(len(provs) for provs in shared.values()) > 1
    for provs in shared.values():
        assert all(prov is provs[0] for prov in provs)


def test_load_keeps_provenance_apart_that_only_compares_equal():
    g = make_graph(4, [(0, 1), (2, 3)])
    for nid, page in zip(sorted(g.nodes), (1, 1.0, True, 1)):
        g.nodes[nid].attrs["prov"] = {"page": page, "bbox": [0.0, -0.0]}
    blobs = save_graph(g)
    back = load_graph(*blobs)
    assert save_graph(back) == blobs
    provs = [back.nodes[nid].attrs["prov"] for nid in sorted(back.nodes)]
    assert provs[0] is provs[3]
    assert len({id(prov) for prov in provs}) == 3


def _lines(blob: bytes) -> list[bytes]:
    return blob.split(b"\n")[:-1]


def _with_lines(lines: list[bytes]) -> bytes:
    return b"".join(line + b"\n" for line in lines)


@pytest.mark.parametrize(
    "edits, path",
    [
        ({1025: b'{"attrs":{},"id":"x","text":7,"type":"Paragraph"}'}, "/1025/text"),
        ({1025: b"[1]"}, "/1025"),
        ({1025: b'{"id":"x"}', 1030: b"{not json"}, "/1025/type"),
    ],
    ids=["text-int", "not-an-object", "before-a-line-that-does-not-parse"],
)
def test_load_reports_the_line_of_a_bad_record_in_a_later_chunk(edits, path):
    g = make_graph(1100, [(0, 1)])
    nodes_blob, edges_blob = save_graph(g)
    lines = _lines(nodes_blob)
    for number, line in edits.items():
        lines[number - 1] = line
    with pytest.raises(SchemaError) as raised:
        load_graph(_with_lines(lines), edges_blob)
    assert raised.value.path == path


def test_load_rejects_a_line_holding_two_records():
    nodes_blob, edges_blob = save_graph(make_graph(3, [(0, 1)]))
    first, second, third = _lines(nodes_blob)
    with pytest.raises(json.JSONDecodeError, match="Extra data"):
        load_graph(_with_lines([first, second + b"," + third]), edges_blob)


def test_load_skips_blank_lines_between_records():
    g, _, _ = random_graph(6, n_max=15, allow_loops=True)
    nodes_blob, edges_blob = save_graph(g)
    spaced = [
        b"\n \n\t\n".join(_lines(blob)) + b"\n\n" for blob in (nodes_blob, edges_blob)
    ]
    assert save_graph(load_graph(*spaced)) == (nodes_blob, edges_blob)


@pytest.mark.parametrize("n_docs", [3, 60])
def test_load_then_save_gives_the_bundles_bytes(tmp_path, n_docs):
    corpus = synthetic_corpus(n_docs=n_docs, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, tmp_path)
    blobs = ((tmp_path / "nodes.jsonl").read_bytes(), (tmp_path / "edges.jsonl").read_bytes())
    if n_docs == 60:  # several parse chunks
        assert len(_lines(blobs[1])) > 2 * 1024
    assert save_graph(load_graph(*blobs)) == blobs
