"""Embeddings, divergence, contrastive alignment, and vector persistence."""

import json
import math
import random
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph
from semrag import vector_align
from semrag.errors import (
    ChecksumError,
    DimensionMismatch,
    NotADistribution,
    SchemaError,
)
from semrag.graph_core import Node, NodeType, TypedGraph
from semrag.pipeline import build_bundle, load_bundle
from semrag.synth import synthetic_corpus
from semrag.vector_align import (
    EMBED_DIM,
    AlignConfig,
    AlignResult,
    TOPO_DIM,
    align_loss_and_grad,
    align_views,
    embed_text,
    jsd,
    load_alignment,
    load_vectors,
    save_alignment,
    save_vectors,
    softmax,
    tokenize,
    topo_feature,
)

# Frozen oracle value: the divergence of a point mass against the uniform
# coin is (1/2)log2(4/3) + (1/2)(1/2)log2 ... computed independently below.
JSD_POINT_VS_FAIR_COIN = 0.31127812445913283


def simplexes(n):
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n
    ).map(lambda ps: [p / sum(ps) for p in ps])


# ---------------------------------------------------------------------------
# text embedding


def test_embed_text_is_unit_length_and_deterministic():
    v1 = embed_text("the HARQ process retransmits data")
    v2 = embed_text("the HARQ process retransmits data")
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)


def test_embed_text_empty_is_zero_vector():
    assert np.linalg.norm(embed_text("")) == 0.0


def test_embed_text_is_case_insensitive():
    assert np.array_equal(embed_text("HARQ Process"), embed_text("harq process"))


def test_similar_texts_score_higher_than_unrelated():
    a = embed_text("maximum transmit power level")
    b = embed_text("the maximum transmit power value")
    c = embed_text("synchronization raster entries")
    assert float(a @ b) > float(a @ c)


def test_tokenize_splits_on_non_word_characters():
    assert tokenize("HARQ-ACK (see 5.2)") == ["harq", "ack", "see", "5", "2"]


# ---------------------------------------------------------------------------
# topology features


def test_topo_feature_encodes_type_and_degree():
    g = make_graph(3, [(0, 1), (0, 2)])
    v = topo_feature(g, "n0")
    assert v.shape == (TOPO_DIM,)
    assert v[0] == pytest.approx(math.log2(3.0) / 16.0)
    type_block = v[1 : 1 + len(NodeType)]
    assert type_block.sum() == 1.0
    hist = v[1 + len(NodeType) :]
    assert hist.sum() == pytest.approx(1.0)


def test_topo_feature_isolated_node_has_empty_histogram():
    g = TypedGraph()
    g.add_node(Node("solo", NodeType.TERM, "alone"))
    v = topo_feature(g, "solo")
    assert v[0] == 0.0
    assert v[1 + len(NodeType) :].sum() == 0.0


def test_topo_feature_histogram_tracks_neighbor_types():
    g = TypedGraph()
    g.add_node(Node("p", NodeType.PARAGRAPH, "para"))
    g.add_node(Node("t1", NodeType.TERM, "one"))
    g.add_node(Node("t2", NodeType.TERM, "two"))
    from semrag.graph_core import Edge, RelationType

    for t in ("t1", "t2"):
        g.add_edge(Edge("p", t, RelationType.REFERS_TO))
    v = topo_feature(g, "p")
    hist = v[1 + len(NodeType) :]
    term_index = list(NodeType).index(NodeType.TERM)
    assert hist[term_index] == 1.0


# ---------------------------------------------------------------------------
# divergence


def test_jsd_frozen_fixture():
    assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(JSD_POINT_VS_FAIR_COIN, abs=1e-12)


def test_jsd_rejects_non_distributions():
    with pytest.raises(NotADistribution):
        jsd([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(NotADistribution):
        jsd([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        jsd([1.0], [0.5, 0.5])


@given(simplexes(5), simplexes(5))
def test_jsd_symmetric_and_bounded(p, q):
    forward = jsd(p, q)
    backward = jsd(q, p)
    assert forward == pytest.approx(backward, abs=1e-9)
    assert -1e-12 <= forward <= 1.0 + 1e-12


@given(simplexes(4))
def test_jsd_zero_iff_equal(p):
    assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)
    q = list(p)
    q[0], q[1] = q[1], q[0]
    if abs(q[0] - q[1]) > 1e-6:
        assert jsd(p, q) > 0.0


def test_jsd_maximal_for_disjoint_support():
    assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_softmax_is_a_distribution_and_shift_invariant():
    a = np.array([1.0, 2.0, 3.0])
    p = softmax(a)
    assert p.sum() == pytest.approx(1.0)
    assert np.allclose(softmax(a + 100.0), p)
    sharp = softmax(a, tau=0.1)
    assert sharp[2] > p[2]


# ---------------------------------------------------------------------------
# alignment loss and gradients


def _random_views(rng, n, d_text=12, d_topo=9):
    texts = [rng.normal(size=d_text) for _ in range(n)]
    topos = [rng.normal(size=d_topo) for _ in range(n)]
    return texts, topos


def _random_weights(rng, d_text=12, d_topo=9, k=6):
    return rng.normal(size=(d_text, k)) * 0.3, rng.normal(size=(d_topo, k)) * 0.3


def test_align_loss_rejects_mismatched_batches():
    rng = np.random.default_rng(0)
    texts, topos = _random_views(rng, 4)
    w_text, w_topo = _random_weights(rng)
    with pytest.raises(DimensionMismatch):
        align_loss_and_grad(texts, topos[:3], w_text, w_topo)
    with pytest.raises(DimensionMismatch):
        align_loss_and_grad([], [], w_text, w_topo)


def test_align_loss_is_zero_for_identical_projections():
    # One pair, both views projecting to the same logits: divergence zero
    # and no negative partner exists.
    rng = np.random.default_rng(1)
    x = rng.normal(size=5)
    w = rng.normal(size=(5, 4))
    loss, gt, gs = align_loss_and_grad([x], [x], w, w)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(gt, -gs)


@pytest.mark.parametrize("seed", range(10))
def test_align_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed + 10)
    texts, topos = _random_views(rng, 3)
    w_text, w_topo = _random_weights(rng)
    loss, grad_text, grad_topo = align_loss_and_grad(texts, topos, w_text, w_topo)
    eps = 1e-6
    for w, grad in ((w_text, grad_text), (w_topo, grad_topo)):
        for _ in range(4):
            i = rng.integers(w.shape[0])
            j = rng.integers(w.shape[1])
            w[i, j] += eps
            up, _, _ = align_loss_and_grad(texts, topos, w_text, w_topo)
            w[i, j] -= 2 * eps
            down, _, _ = align_loss_and_grad(texts, topos, w_text, w_topo)
            w[i, j] += eps
            numeric = (up - down) / (2 * eps)
            scale = max(abs(numeric), abs(grad[i, j]), 1e-8)
            assert abs(numeric - grad[i, j]) / scale < 1e-4


def _loop_loss_and_grad(texts, topos, w_text, w_topo, tau, margin):
    """Per-pair reference for the batched loss, written from the definition."""

    def div(p, q):
        m = 0.5 * (p + q)
        return 0.5 * (np.sum(p * np.log(p / m)) + np.sum(q * np.log(q / m)))

    def back(p, q):
        # Logit gradients of div(p, q) through both softmaxes.
        m = 0.5 * (p + q)
        gp, gq = 0.5 * np.log(p / m), 0.5 * np.log(q / m)
        return p * (gp - gp @ p) / tau, q * (gq - gq @ q) / tau

    n = len(texts)
    total, g_text, g_topo = 0.0, np.zeros_like(w_text), np.zeros_like(w_topo)
    for i in range(n):
        p = softmax(w_text.T @ texts[i], tau)
        q = softmax(w_topo.T @ topos[i], tau)
        total += div(p, q)
        dp, dq = back(p, q)
        g_text += np.outer(texts[i], dp)
        g_topo += np.outer(topos[i], dq)
        if n > 1:
            y_neg = topos[(i + 1) % n]
            q_neg = softmax(w_topo.T @ y_neg, tau)
            d_neg = div(p, q_neg)
            if d_neg < margin:
                total += margin - d_neg
                dp, dq = back(p, q_neg)
                g_text -= np.outer(texts[i], dp)
                g_topo -= np.outer(y_neg, dq)
    return total / n, g_text / n, g_topo / n


@pytest.mark.parametrize("seed", range(8))
def test_align_loss_matches_per_pair_reference(seed):
    rng = np.random.default_rng(seed + 40)
    n = int(rng.integers(1, 20))
    texts, topos = _random_views(rng, n)
    w_text, w_topo = _random_weights(rng)
    tau, margin = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.7))
    batched = align_loss_and_grad(texts, topos, w_text, w_topo, tau, margin)
    looped = _loop_loss_and_grad(texts, topos, w_text, w_topo, tau, margin)
    # Same arithmetic summed in another order: float64 rounding only.
    assert batched[0] == pytest.approx(looped[0], rel=1e-12, abs=1e-14)
    for fast, slow in zip(batched[1:], looped[1:]):
        assert np.allclose(fast, slow, rtol=1e-10, atol=1e-14)


def test_align_views_is_deterministic_and_improves():
    rng = np.random.default_rng(3)
    texts, topos = _random_views(rng, 8)
    cfg = AlignConfig(projection_dim=6, epochs=40, seed=5)
    first = align_views(texts, topos, cfg)
    second = align_views(texts, topos, cfg)
    assert np.array_equal(first.w_text, second.w_text)
    assert first.loss_history == second.loss_history
    assert first.loss_history[-1] < first.loss_history[0]


def test_mean_pair_jsd_drops_after_training():
    rng = np.random.default_rng(4)
    texts, topos = _random_views(rng, 8)
    cfg = AlignConfig(projection_dim=6, epochs=60, seed=5)
    result = align_views(texts, topos, cfg)
    untrained = AlignResult(
        w_text=np.random.default_rng(5).normal(size=result.w_text.shape) * 0.2,
        w_topo=np.random.default_rng(6).normal(size=result.w_topo.shape) * 0.2,
    )
    ts, ys = np.array(texts), np.array(topos)
    assert result.mean_pair_jsd(ts, ys) < untrained.mean_pair_jsd(ts, ys)


# ---------------------------------------------------------------------------
# persistence


def _matrix(rng, n=6, d=10):
    return rng.integers(-3, 4, size=(n, d))


def test_vectors_round_trip():
    """Counts come back as the unit rows they scale to, bit for bit."""
    rng = np.random.default_rng(11)
    matrix = _matrix(rng, d=EMBED_DIM)
    matrix[2] = 0
    back = load_vectors(save_vectors(matrix), len(matrix))
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    want = np.divide(matrix, norms, out=np.zeros(matrix.shape), where=norms > 0)
    assert back.tobytes() == want.tobytes()


def test_vectors_bytes_are_stable():
    rng = np.random.default_rng(12)
    matrix = _matrix(rng, n=2, d=4)
    assert save_vectors(matrix) == save_vectors(matrix)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    corpus = synthetic_corpus(n_docs=2, seed=0)
    out = tmp_path_factory.mktemp("bundle")
    build_bundle(corpus.docs, corpus.gazetteer, out)
    return out


@pytest.fixture
def bundle_copy(bundle_dir, tmp_path):
    out = tmp_path / "bundle"
    shutil.copytree(bundle_dir, out)
    return out


def test_vectors_detect_payload_tampering(bundle_copy):
    blob = bytearray((bundle_copy / "vectors.bin").read_bytes())
    blob[3] ^= 0xFF
    (bundle_copy / "vectors.bin").write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_bundle(bundle_copy)


def test_vectors_reject_id_count_mismatch(bundle_copy):
    """The manifest's vector row count must be the graph's indexable node
    count, which orders the rows: one row fewer or more is refused."""
    path = bundle_copy / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    rows = manifest["counts"]["vectors"]
    for off in (-1, 1):
        manifest["counts"]["vectors"] = rows + off
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"{rows + off} vector rows"):
            load_bundle(bundle_copy)


@pytest.mark.parametrize("bad", [0.5, float("nan"), float("inf"), 2.0**31])
def test_vectors_refuse_counts_that_are_not_int32(bad):
    with pytest.raises(SchemaError):
        save_vectors(np.array([[1.0, 0.0], [0.0, bad]]))


def test_vectors_reject_entries_outside_the_matrix():
    payload = save_vectors(np.array([[0, 2], [-1, 0]]))
    with pytest.raises(SchemaError):
        load_vectors(payload, 1)
    wide = save_vectors(np.eye(1, EMBED_DIM + 1, EMBED_DIM, dtype=int))
    with pytest.raises(SchemaError):
        load_vectors(wide, 1)


def test_vectors_reject_entries_save_vectors_does_not_write():
    """Only non-zero counts in strictly row-major order decode: a zero
    count, a repeated cell or a cell out of order is refused."""
    payload = save_vectors(np.array([[0, 2, 0, 5], [-1, 0, 3, 0]]))
    assert load_vectors(payload, 2).shape == (2, EMBED_DIM)
    entries = np.frombuffer(payload, dtype=vector_align._COO).copy()
    zero, repeated, swapped = entries.copy(), entries.copy(), entries.copy()
    zero["count"][1] = 0
    repeated[2] = repeated[1]
    swapped[[0, 1]] = swapped[[1, 0]]
    for bad in (zero, repeated, swapped):
        with pytest.raises(SchemaError, match="row-major"):
            load_vectors(bad.tobytes(), 2)


def test_alignment_round_trip():
    rng = np.random.default_rng(16)
    texts, topos = _random_views(rng, 5)
    result = align_views(texts, topos, AlignConfig(projection_dim=4, epochs=10))
    back = load_alignment(save_alignment(result))
    assert np.array_equal(back.w_text, result.w_text)
    assert np.array_equal(back.w_topo, result.w_topo)
    assert back.loss_history == pytest.approx(result.loss_history)
