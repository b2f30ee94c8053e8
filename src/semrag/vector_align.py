"""Text and topology views of nodes, and the divergence-based aligner.

Text is embedded with signed feature hashing (sha256-derived buckets, so
vectors are identical across processes and platforms). Topology features
capture degree and the type neighborhood. The aligner projects both views
to a shared simplex via temperature softmax and trains the projections with
full-batch Adam so matched pairs have low Jensen-Shannon divergence while
mismatched pairs are pushed out to a margin.

Retrieval reads the hashed text alone (query_engine.index_vectors); the
trained projections are saved with a bundle but enter no retrieval score.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .doc_model import decode_json
from .errors import (
    DimensionMismatch,
    DivergenceError,
    FormatVersionError,
    NotADistribution,
    SchemaError,
)
from .graph_core import NodeType, TypedGraph

logger = logging.getLogger(__name__)

EMBED_DIM = 256
TOPO_DIM = 1 + len(NodeType) + len(NodeType)

_TOKEN = re.compile(r"\w+")
_LN2 = math.log(2.0)


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def hash_counts(text: str) -> np.ndarray:
    """Signed bag-of-words bucket counts: each token adds +1 or -1 to one
    of EMBED_DIM buckets, both chosen by its sha256 digest."""
    counts = np.zeros(EMBED_DIM, dtype=np.int64)
    for token in tokenize(text):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % EMBED_DIM
        counts[bucket] += 1 if digest[4] & 1 else -1
    return counts


def embed_text(text: str) -> np.ndarray:
    """Signed bag-of-words hash embedding: hash_counts scaled to unit
    length (zero text stays zero)."""
    vec = hash_counts(text).astype(np.float64)
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0 else vec


_TYPE_INDEX = {t: i for i, t in enumerate(NodeType)}


def topo_feature(g: TypedGraph, node_id: str) -> np.ndarray:
    """Log-scaled degree, node-type one-hot, and neighbor-type histogram.

    Every component depends only on the node's own neighborhood, so one
    call costs O(degree) and indexing a graph stays linear in its edges.
    """
    n_types = len(NodeType)
    out = np.zeros(TOPO_DIM, dtype=np.float64)
    out[0] = math.log2(1.0 + g.degree(node_id)) / 16.0
    out[1 + _TYPE_INDEX[g.nodes[node_id].type]] = 1.0
    neighbor_types = []
    for edge in g.incident_edges(node_id):
        other = edge.dst if edge.src == node_id else edge.src
        neighbor_types.append(g.nodes[other].type)
    if neighbor_types:
        histogram = np.zeros(n_types, dtype=np.float64)
        for t in neighbor_types:
            histogram[_TYPE_INDEX[t]] += 1.0
        out[1 + n_types :] = histogram / len(neighbor_types)
    return out


# --- divergence -------------------------------------------------------------

def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise NotADistribution(f"{name} contains non-finite values")
    if np.any(p < 0):
        raise NotADistribution(f"{name} contains negative probabilities")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise NotADistribution(f"{name} sums to {float(p.sum())}, expected 1")
    return p


def _jsd_nat(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Natural-log divergence over the last axis; zero probabilities add 0."""
    m = 0.5 * (p + q)
    left = p * np.log(np.where(p > 0, p, 1.0) / np.where(p > 0, m, 1.0))
    right = q * np.log(np.where(q > 0, q, 1.0) / np.where(q > 0, m, 1.0))
    return 0.5 * (left.sum(axis=-1) + right.sum(axis=-1))


def jsd(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen-Shannon divergence in bits; symmetric, bounded by 1."""
    p = _check_distribution(np.asarray(p), "p")
    q = _check_distribution(np.asarray(q), "q")
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    value = float(_jsd_nat(p, q)) / _LN2
    if not math.isfinite(value):
        raise DivergenceError(f"divergence evaluated to {value}")
    return value


def softmax(a: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis (each row of a matrix)."""
    z = np.asarray(a, dtype=np.float64) / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# --- alignment --------------------------------------------------------------

@dataclass
class AlignConfig:
    projection_dim: int = 64
    tau: float = 1.0
    margin: float = 0.5
    lr: float = 0.05
    epochs: int = 200
    seed: int = 0


@dataclass
class AlignResult:
    """Trained projections and the per-epoch mean loss in bits."""

    w_text: np.ndarray
    w_topo: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    def mean_pair_jsd(
        self, texts: np.ndarray, topos: np.ndarray, tau: float = 1.0
    ) -> float:
        p = softmax(np.asarray(texts, dtype=np.float64) @ self.w_text, tau)
        q = softmax(np.asarray(topos, dtype=np.float64) @ self.w_topo, tau)
        return float(np.mean(_jsd_nat(p, q))) / _LN2


def _jsd_grad(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the natural-log divergence with respect to p and q."""
    m = 0.5 * (p + q)
    return 0.5 * np.log(p / m), 0.5 * np.log(q / m)


def _softmax_back(p: np.ndarray, grad_p: np.ndarray) -> np.ndarray:
    """Backward pass of a row-wise softmax: gradient with respect to the logits."""
    return p * (grad_p - np.sum(grad_p * p, axis=-1, keepdims=True))


def _stack_views(
    text_vecs: Sequence[np.ndarray], topo_vecs: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Paired views as two row-per-pair matrices."""
    if len(text_vecs) == 0 or len(text_vecs) != len(topo_vecs):
        raise DimensionMismatch(
            "need equally many text and topology views, "
            f"got {len(text_vecs)} and {len(topo_vecs)}"
        )
    return (
        np.asarray(text_vecs, dtype=np.float64),
        np.asarray(topo_vecs, dtype=np.float64),
    )


def align_loss_and_grad(
    text_vecs: Sequence[np.ndarray],
    topo_vecs: Sequence[np.ndarray],
    w_text: np.ndarray,
    w_topo: np.ndarray,
    tau: float = 1.0,
    margin: float = 0.5,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean contrastive loss (natural-log units) and its exact gradients.

    Pair i is positive; its negative partner is the next pair's topology
    view, cyclically. The loss per pair is the divergence of the matched
    views plus a hinge pushing the mismatched divergence up to the margin.
    All pairs are evaluated at once as batched matrix products.
    """
    xs, ys = _stack_views(text_vecs, topo_vecs)
    n = xs.shape[0]
    p = softmax(xs @ w_text, tau)
    q = softmax(ys @ w_topo, tau)
    total = float(_jsd_nat(p, q).sum())
    gp, gq = _jsd_grad(p, q)
    grad_logits_text = _softmax_back(p, gp)
    grad_topo = ys.T @ _softmax_back(q, gq)
    if n > 1:
        ys_neg = np.roll(ys, -1, axis=0)
        q_neg = np.roll(q, -1, axis=0)
        d_neg = _jsd_nat(p, q_neg)
        hinge = d_neg < margin
        total += float(np.sum((margin - d_neg)[hinge]))
        gp2, gq2 = _jsd_grad(p, q_neg)
        active = hinge[:, None]
        grad_logits_text -= np.where(active, _softmax_back(p, gp2), 0.0)
        grad_topo -= ys_neg.T @ np.where(active, _softmax_back(q_neg, gq2), 0.0)
    grad_text = xs.T @ grad_logits_text
    return total / n, grad_text / (tau * n), grad_topo / (tau * n)


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def align_views(
    text_vecs: Sequence[np.ndarray],
    topo_vecs: Sequence[np.ndarray],
    config: Optional[AlignConfig] = None,
) -> AlignResult:
    """Train both projections by full-batch Adam with step size ``config.lr``.

    Adam normalizes each step by a running estimate of the gradient's
    magnitude, so training moves at the same pace whatever the scale of
    the input views; plain gradient descent stalls on unit-length hashed
    text, whose gradients are tiny. Seeded and fully deterministic; the
    recorded loss history is in bits, each entry taken before that
    epoch's update.
    """
    cfg = config or AlignConfig()
    xs, ys = _stack_views(text_vecs, topo_vecs)
    dim_text, dim_topo = xs.shape[1], ys.shape[1]
    rng = np.random.default_rng(cfg.seed)
    w_text = rng.normal(0.0, 1.0 / math.sqrt(dim_text), (dim_text, cfg.projection_dim))
    w_topo = rng.normal(0.0, 1.0 / math.sqrt(dim_topo), (dim_topo, cfg.projection_dim))
    result = AlignResult(w_text=w_text, w_topo=w_topo)
    weights = (w_text, w_topo)
    first = [np.zeros_like(w) for w in weights]
    second = [np.zeros_like(w) for w in weights]
    for step in range(1, cfg.epochs + 1):
        loss, *grads = align_loss_and_grad(
            xs, ys, w_text, w_topo, cfg.tau, cfg.margin
        )
        result.loss_history.append(loss / _LN2)
        for w, g, m, v in zip(weights, grads, first, second):
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            m_hat = m / (1.0 - _ADAM_BETA1**step)
            v_hat = v / (1.0 - _ADAM_BETA2**step)
            w -= cfg.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return result


ALIGN_FORMAT_VERSION = 1

# one non-zero count: its row, its bucket and the count itself
_COO = np.dtype([("row", "<i4"), ("bucket", "<u2"), ("count", "<i4")])


def unit_rows(counts: np.ndarray) -> np.ndarray:
    """Rows of hash counts scaled to unit length in float64, zero rows
    left zero; a float64 matrix is scaled in place.

    Row i holds the bits embed_text gives the text counted in row i, since
    the norm of integer counts is exact.
    """
    rows = np.asarray(counts, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    np.divide(rows, norms, out=rows, where=norms > 0)
    return rows


def save_vectors(counts: np.ndarray) -> bytes:
    """The hash counts index_vectors computes, encoded as the vectors.bin
    blob: the non-zero counts in row-major order, each a little-endian
    int32 row, uint16 bucket and int32 count. Exact, and a small part of
    the float rows they scale to. The row order is the graph's
    (query_engine.indexed_ids), so the blob holds no ids.
    """
    mat = np.asarray(counts)
    if mat.ndim != 2:
        raise DimensionMismatch(f"vector counts of shape {mat.shape} are not a matrix")
    rows, buckets = np.nonzero(mat)
    values = mat[rows, buckets]
    limits = np.iinfo(np.int32)
    if not np.all(
        (values == np.round(values)) & (limits.min <= values) & (values <= limits.max)
    ):
        raise SchemaError("/counts", "vector counts must be int32 integers")
    entries = np.empty(len(values), dtype=_COO)
    entries["row"], entries["bucket"], entries["count"] = rows, buckets, values
    return entries.tobytes()


def load_vectors(payload: bytes, rows: int) -> np.ndarray:
    """The unit rows, ``rows`` by EMBED_DIM, of the blob save_vectors
    wrote; the counts go straight into the float64 rows, so no integer
    copy outlives the call. Entries that are not non-zero counts inside
    the matrix in strictly row-major order, as save_vectors writes them,
    raise SchemaError."""
    if len(payload) % _COO.itemsize:
        raise SchemaError(
            "/count", f"vectors.bin holds {len(payload)} bytes, not whole entries"
        )
    entries = np.frombuffer(payload, dtype=_COO)
    at, buckets, values = entries["row"], entries["bucket"], entries["count"]
    if len(entries) and not (
        0 <= at.min() and at.max() < rows and buckets.max() < EMBED_DIM
    ):
        raise SchemaError("/count", "vectors.bin holds an entry outside the matrix")
    cells = at.astype(np.int64) * EMBED_DIM + buckets
    if not (np.all(values != 0) and np.all(np.diff(cells) > 0)):
        raise SchemaError(
            "/count", "vectors.bin holds a zero count or entries out of row-major order"
        )
    matrix = np.zeros((rows, EMBED_DIM), dtype=np.float64)
    matrix[at, buckets] = values
    return unit_rows(matrix)


def save_alignment(result: AlignResult) -> bytes:
    """Trained projections as JSON (row-major nested lists)."""
    doc = {
        "format_version": ALIGN_FORMAT_VERSION,
        "w_text": result.w_text.tolist(),
        "w_topo": result.w_topo.tolist(),
        "loss_history": [float(v) for v in result.loss_history],
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _matrix(doc: dict, key: str) -> np.ndarray:
    value = doc.get(key)
    try:
        matrix = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged rows
        matrix = None
    if matrix is None or matrix.ndim != 2 or matrix.dtype.kind not in "iuf":
        raise SchemaError(f"/{key}", f"align.json {key} is missing or not a numeric matrix")
    return matrix.astype(np.float64)


def load_alignment(blob: bytes) -> AlignResult:
    """The projections save_alignment encoded; a key that is missing or of
    the wrong type raises SchemaError."""
    doc = decode_json(blob.decode("utf-8"), "align.json")
    if not isinstance(doc, dict):
        raise SchemaError("", "align.json is not a JSON object")
    if doc.get("format_version") != ALIGN_FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported alignment model version {doc.get('format_version')!r}"
        )
    history = doc.get("loss_history", [])
    if not isinstance(history, list) or not all(type(v) in (int, float) for v in history):
        raise SchemaError("/loss_history", "align.json loss_history is not a list of numbers")
    return AlignResult(
        w_text=_matrix(doc, "w_text"),
        w_topo=_matrix(doc, "w_topo"),
        loss_history=[float(v) for v in history],
    )
