"""Shared fixtures and independent entropy oracles.

The oracle functions compute every statistic straight from an edge list
using the textbook definitions, with no calls into the package, so they
can disagree with the implementation under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from semrag.graph_core import Edge, Node, NodeType, RelationType, TypedGraph
from semrag.llm_clients import make_clients, summarize_with
from semrag.pipeline import build_bundle, make_engine
from semrag.synth import synthetic_corpus

REL = RelationType.REFERS_TO


# --- graph builders ---------------------------------------------------------

def make_graph(n: int, edges: list[tuple[int, int]]) -> TypedGraph:
    """Paragraph nodes n0..n{n-1} with one typed edge per listed pair."""
    g = TypedGraph()
    for i in range(n):
        g.add_node(Node(f"n{i}", NodeType.PARAGRAPH, f"node {i}"))
    for u, v in edges:
        g.add_edge(Edge(f"n{u}", f"n{v}", REL))
    return g


def two_triangle_bridge() -> tuple[TypedGraph, list[tuple[int, int]]]:
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    return make_graph(6, edges), edges


def two_k5_bridge() -> tuple[TypedGraph, list[tuple[int, int]]]:
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    edges.append((4, 5))
    return make_graph(10, edges), edges


def random_edges(
    rng: random.Random, n: int, allow_loops: bool = False
) -> list[tuple[int, int]]:
    """Random connected multigraph: spanning tree plus random extra edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randrange(n, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v and not allow_loops:
            continue
        edges.append((min(u, v), max(u, v)))
    return edges


def random_graph(
    seed: int, n_max: int, allow_loops: bool = False
) -> tuple[TypedGraph, list[tuple[int, int]], int]:
    rng = random.Random(seed)
    n = rng.randrange(2, n_max + 1)
    edges = random_edges(rng, n, allow_loops)
    return make_graph(n, edges), edges, n


# --- oracles (textbook definitions, no package calls) -----------------------

def oracle_degrees(n: int, edges: list[tuple[int, int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        if u == v:
            deg[u] += 2
        else:
            deg[u] += 1
            deg[v] += 1
    return deg


def oracle_h1(n: int, edges: list[tuple[int, int]]) -> float:
    deg = oracle_degrees(n, edges)
    total = float(sum(deg))
    return -sum((d / total) * math.log2(d / total) for d in deg if d > 0)


def oracle_h2(
    n: int, edges: list[tuple[int, int]], labels: list[int]
) -> float:
    """Two-level structural entropy of a labeled partition, in bits."""
    deg = oracle_degrees(n, edges)
    total = float(sum(deg))
    vc: dict[int, float] = {}
    cut: dict[int, int] = {}
    for i in range(n):
        vc[labels[i]] = vc.get(labels[i], 0.0) + deg[i]
        cut.setdefault(labels[i], 0)
    for u, v in edges:
        if u != v and labels[u] != labels[v]:
            cut[labels[u]] += 1
            cut[labels[v]] += 1
    value = 0.0
    for c, volume in vc.items():
        if volume <= 0:
            continue
        members = [i for i in range(n) if labels[i] == c]
        intra = -sum(
            (deg[i] / volume) * math.log2(deg[i] / volume)
            for i in members
            if deg[i] > 0
        )
        value += (volume / total) * intra - (cut[c] / total) * math.log2(
            volume / total
        )
    return value


def all_partitions(n: int):
    """Every set partition of range(n) as a label list (restricted growth)."""
    labels = [0] * n

    def grow(i: int, used: int):
        if i == n:
            yield list(labels)
            return
        for c in range(used + 1):
            labels[i] = c
            yield from grow(i + 1, max(used, c + 1))

    yield from grow(1, 1) if n else iter(())


def node_labels(g: TypedGraph, partition) -> list[int]:
    """Library partition (mapping or set of frozensets) as an oracle label list."""
    if not isinstance(partition, dict):
        partition = {
            nid: min(block) for block in partition for nid in block
        }
    keys = {}
    labels = []
    for i in range(len(g.nodes)):
        key = partition[f"n{i}"]
        labels.append(keys.setdefault(key, len(keys)))
    return labels


# --- random spanned tables --------------------------------------------------

def random_spanned_table(rng: random.Random, table_id: str = "t1"):
    """A valid random table plus the exact lookup expectations for its cells.

    Layout: a two-row header (group spans over detail columns) and one header
    column, then a data region tiled with random row/col spans. Header texts
    are unique per data row and per data column, so every emitted cell is
    addressed exactly by its top-left (row path, column path) pair.

    Returns (table, expected) where expected maps (dr, dc) of each non-empty
    data cell to a dict with value, row_path, col_path, markers, condition.
    """
    from semrag.doc_model import CellSpec, Provenance, TableBlock

    n_r = rng.randint(2, 5)
    n_c = rng.randint(2, 5)
    footnotes = tuple(
        (m, f"NOTE {m}: condition {m} applies.")
        for m in ["a", "b"][: rng.randint(0, 2)]
    )
    declared = {m: t for m, t in footnotes}

    # group spans across the detail columns
    groups = []
    left = 0
    while left < n_c:
        width = rng.randint(1, n_c - left)
        groups.append((f"g{len(groups)}", width))
        left += width

    header_row_0 = [CellSpec("Item", is_header=True, row_span=2)]
    header_row_0 += [CellSpec(g, is_header=True, col_span=w) for g, w in groups]
    header_row_1 = [CellSpec(f"c{c}", is_header=True) for c in range(n_c)]

    col_group = []
    for g, w in groups:
        col_group += [g] * w

    # tile the data region with random spans
    covered = [[False] * n_c for _ in range(n_r)]
    owners: dict[tuple[int, int], CellSpec] = {}
    order: list[tuple[int, int]] = []
    for r in range(n_r):
        for c in range(n_c):
            if covered[r][c]:
                continue
            max_cs = 1
            while c + max_cs < n_c and not covered[r][c + max_cs]:
                max_cs += 1
            cs = rng.randint(1, min(2, max_cs)) if rng.random() < 0.3 else 1
            max_rs = 1
            while r + max_rs < n_r and all(
                not covered[r + max_rs][c + dc] for dc in range(cs)
            ):
                max_rs += 1
            rs = rng.randint(1, min(2, max_rs)) if rng.random() < 0.3 else 1
            for dr in range(rs):
                for dc in range(cs):
                    covered[r + dr][c + dc] = True
            empty = rng.random() < 0.15
            markers = tuple(
                m for m in sorted(declared) if rng.random() < 0.3
            )
            spec = CellSpec(
                "" if empty else f"v{r}_{c}",
                row_span=rs,
                col_span=cs,
                footnote_markers=markers,
                unit="dB" if rng.random() < 0.3 else None,
            )
            owners[(r, c)] = spec
            order.append((r, c))

    data_rows = []
    for r in range(n_r):
        row = [CellSpec(f"r{r}", is_header=True)]
        row += [owners[(rr, cc)] for (rr, cc) in order if rr == r]
        data_rows.append(tuple(row))

    rows = (tuple(header_row_0), tuple(header_row_1), *data_rows)
    prov = Provenance("RT", "7.1", 4, (5.0, 5.0, 500.0, 300.0))
    table = TableBlock(table_id, prov, rows, "Random fixture table", footnotes)

    expected = {}
    for (r, c), spec in owners.items():
        if not spec.text:
            continue
        used = [m for m in spec.footnote_markers if m in declared]
        condition = "; ".join(declared[m] for m in sorted(used)) or None
        expected[(r, c)] = {
            "value": spec.text,
            "row_path": (f"r{r}",),
            "col_path": (col_group[c], f"c{c}"),
            "markers": tuple(used),
            "condition": condition,
            "unit": spec.unit,
        }
    return table, expected


# --- shared summarizer ------------------------------------------------------

def offline_summarizer():
    clients = make_clients(offline=True)

    def summarize(text: str, budget: int) -> tuple[str, int]:
        summary = summarize_with(clients.llm, text, budget)
        return summary.text, summary.tokens_used

    return summarize


# --- bundle members ---------------------------------------------------------

def rewrite_member(bundle_dir: Path, name: str, blob: bytes) -> None:
    """Replace one bundle member and record its checksum in the manifest,
    so that only the member's own decoder can refuse it."""
    (bundle_dir / name).write_bytes(blob)
    path = bundle_dir / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    manifest["checksums"][name] = hashlib.sha256(blob).hexdigest()
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")


# --- session fixtures -------------------------------------------------------

@pytest.fixture(scope="session")
def corpus50():
    return synthetic_corpus(n_docs=50, seed=11)


@pytest.fixture(scope="session")
def bundle50(corpus50, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle50")
    return build_bundle(corpus50.docs, corpus50.gazetteer, out)


@pytest.fixture(scope="session")
def engine50(bundle50):
    return make_engine(bundle50)
