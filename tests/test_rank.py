"""One ranking of a score vector against a full sort, on vectors of few
distinct values, so that most cuts fall inside a run of tied rows."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semrag.errors import EmptyIndex
from semrag.graph_core import Node, NodeType, TypedGraph
from semrag.query_engine import (
    EMBED_DIM, HIT_ENTROPY_TOP, INDEXED_TYPES, QueryEngine, indexed_ids
)
from semrag.sem_index import shannon

# every type set retrieval ranks: hit entropy and anchors, low route, high route
RANKED_TYPE_SETS = [None, (NodeType.PARAGRAPH, NodeType.CELL), (NodeType.MACRO_NODE,)]


@st.composite
def tied_scores(draw):
    """An engine over 1-40 indexable nodes of drawn types, and a score per
    row drawn from at most three values."""
    n = draw(st.integers(1, 40))
    g = TypedGraph()
    for i in draw(st.permutations(range(n))):  # added out of id order
        g.add_node(Node(f"n{i:02d}", draw(st.sampled_from(INDEXED_TYPES)), ""))
    engine = QueryEngine(g, np.zeros((n, EMBED_DIM), dtype=np.int32))
    values = draw(st.lists(
        st.floats(-1.0, 1.0, allow_nan=False, width=64), min_size=1, max_size=3
    ))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    return g, engine, scores


@settings(max_examples=300, deadline=None)
@given(tied_scores())
def test_rank_equals_a_full_sort_at_every_k(case):
    g, engine, scores = case
    ids = indexed_ids(g)
    for types in RANKED_TYPE_SETS:
        pairs = [
            (nid, float(scores[row])) for row, nid in enumerate(ids)
            if types is None or g.nodes[nid].type in types
        ]
        for k in range(len(ids) + 1):
            if not pairs:
                with pytest.raises(EmptyIndex):
                    engine._rank(scores, k, types)
                continue
            want = sorted(pairs, key=lambda p: (-p[1], p[0]))[:k]
            assert engine._rank(scores, k, types) == want, (types, k)


@settings(max_examples=300, deadline=None)
@given(tied_scores())
def test_hit_entropy_reads_the_top_ranked_scores(case):
    """Bit for bit the softmax entropy over the top ranked scores, summed in
    rank order."""
    _, engine, scores = case
    top = np.array([s for _, s in engine._rank(scores, HIT_ENTROPY_TOP)])
    exp = np.exp(top - top.max())
    assert engine.hit_entropy(scores) == float(shannon(exp / exp.sum()))


def test_hit_entropy_of_an_empty_index_is_maximal():
    engine = QueryEngine(TypedGraph(), np.zeros((0, EMBED_DIM), dtype=np.int32))
    assert engine.hit_entropy(np.zeros(0)) == math.log2(HIT_ENTROPY_TOP)
