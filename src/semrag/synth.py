"""Deterministic synthetic corpora and planted graphs for tests and benches.

The corpus generator emits standards-shaped documents: definition
paragraphs over a controlled gazetteer, two-level table headers with a
guarded first row, one formula per document, and cross-references into the
tables. Every value is a pure function of (document index, table index,
row index) plus the seed, so gold answers are known at generation time.

The planted graph generator builds dense communities joined by sparse
bridges; its ground-truth structure makes it the scaling fixture for the
entropy minimizer.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Optional

from .doc_model import (
    CellSpec,
    EquationBlock,
    ParagraphBlock,
    Provenance,
    SectionBlock,
    SourceDocument,
    TableBlock,
)
from .graph_core import Edge, Node, NodeType, RelationType, TypedGraph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GoldQuery:
    """A question with its known-correct target."""

    kind: str  # factoid | relational | linked | overview
    question: str
    doc_id: str = ""
    row_path: tuple[str, ...] = ()
    col_path: tuple[str, ...] = ()
    expected_value: Optional[str] = None
    expected_node: Optional[str] = None
    condition_marker: Optional[str] = None


@dataclass
class SyntheticCorpus:
    docs: list[SourceDocument]
    gazetteer: list[str]
    gold: list[GoldQuery] = field(default_factory=list)


def _prov(doc_id: str, clause: str, page: int, slot: int) -> Provenance:
    y = 80.0 + 14.0 * slot
    return Provenance(doc_id, clause, page, (36.0, y, 560.0, y + 12.0), "Rel-17")


def synthetic_corpus(
    n_docs: int = 3,
    seed: int = 0,
    tables_per_doc: int = 2,
    rows_per_table: int = 3,
) -> SyntheticCorpus:
    rng = random.Random(seed)
    docs: list[SourceDocument] = []
    gazetteer: list[str] = []
    gold: list[GoldQuery] = []
    for d in range(n_docs):
        doc_id = f"SD{d:02d}"
        clause_a, clause_b = f"{d + 1}.1", f"{d + 1}.2"
        alpha, beta = f"AlphaProc{d}", f"BetaProc{d}"
        gazetteer += [alpha, beta]
        blocks = [
            SectionBlock(
                "s1", _prov(doc_id, clause_a, 1, 0), 1, f"General description {d}"
            ),
            ParagraphBlock(
                "p1",
                _prov(doc_id, clause_a, 1, 1),
                f"{alpha} is the admission procedure evaluated before scheduling. "
                f"It applies in clause {clause_b}.",
                "s1",
            ),
            ParagraphBlock(
                "p2",
                _prov(doc_id, clause_a, 1, 2),
                f"{beta} denotes the fallback procedure. "
                f"See Table 1 for the parameter limits.",
                "s1",
            ),
            ParagraphBlock(
                "p3",
                _prov(doc_id, clause_a, 1, 3),
                f"{alpha} interacts with {beta} when retransmission occurs.",
                "s1",
            ),
            SectionBlock(
                "s2", _prov(doc_id, clause_b, 2, 0), 1, f"Parameters {d}"
            ),
        ]
        for t in range(tables_per_doc):
            group = f"Limit{d}{t}"
            rows: list[tuple[CellSpec, ...]] = [
                (
                    CellSpec("Parameter", is_header=True),
                    CellSpec(group, is_header=True),
                ),
                (
                    CellSpec("Name", is_header=True),
                    CellSpec("Maximum", is_header=True),
                ),
            ]
            for r in range(rows_per_table):
                name = f"param{d}{t}{r}"
                value = str(10 + d * 17 + t * 5 + r)
                markers = ("1",) if r == 0 else ()
                rows.append(
                    (
                        CellSpec(name, is_header=True),
                        CellSpec(value, footnote_markers=markers, unit="dBm"),
                    )
                )
                gold.append(
                    GoldQuery(
                        kind="factoid",
                        question=f"value of {name} under {group} Maximum",
                        doc_id=doc_id,
                        row_path=(name,),
                        col_path=(group, "Maximum"),
                        expected_value=value,
                        expected_node=f"{doc_id}:t{t + 1}:cell{r}_0",
                        condition_marker="1" if r == 0 else None,
                    )
                )
                gold.append(
                    GoldQuery(
                        kind="relational",
                        question=(
                            f"Which limit applies for {name} "
                            f"under {group} / Maximum?"
                        ),
                        doc_id=doc_id,
                        row_path=(name,),
                        col_path=(group, "Maximum"),
                        expected_value=value,
                        expected_node=f"{doc_id}:t{t + 1}:cell{r}_0",
                        condition_marker="1" if r == 0 else None,
                    )
                )
            blocks.append(
                TableBlock(
                    f"t{t + 1}",
                    _prov(doc_id, clause_b, 2, 1 + t),
                    tuple(rows),
                    f"Table {t + 1}: parameter limits set {d}{t}",
                    (("1", f"NOTE 1: Applies only under condition C{d}{t}."),),
                )
            )
        blocks.append(
            EquationBlock(
                "e1",
                _prov(doc_id, clause_b, 3, 0),
                f"R{d} = B{d} * log2(1 + (S{d})/(N{d}))",
                f"({d + 1})",
            )
        )
        gold.append(
            GoldQuery(
                kind="linked",
                question=(
                    f"How does {alpha} relate to {beta} "
                    f"during retransmission handling?"
                ),
                doc_id=doc_id,
                expected_node=f"{doc_id}:p3",
            )
        )
        order = list(range(len(blocks)))
        docs.append(SourceDocument(doc_id, tuple(blocks), tuple(order)))
    gold.append(
        GoldQuery(
            kind="overview",
            question=(
                "Provide a broad overview of how these specifications organize "
                "procedures parameters and retransmission behavior across "
                "all documents"
            ),
        )
    )
    rng.shuffle(gold)
    return SyntheticCorpus(docs=docs, gazetteer=gazetteer, gold=gold)


# --- planted graphs ---------------------------------------------------------

def planted_graph(
    n_communities: int,
    community_size: int,
    seed: int = 0,
    extra_cross: Optional[int] = None,
) -> TypedGraph:
    """Dense cliques on a bridge ring, with a sprinkle of cross noise.

    Ground truth: node v belongs to community v // community_size. The
    bridges form a ring over communities; extra_cross random edges (default
    one per ten communities) blur the boundary slightly without moving the
    entropy optimum.
    """
    if n_communities < 1 or community_size < 2:
        raise ValueError("need at least one community of size two")
    rng = random.Random(seed)
    g = TypedGraph()
    n = n_communities * community_size

    def name(i: int) -> str:
        return f"v{i:06d}"

    for i in range(n):
        prov = {
            "doc_id": "SYN00",
            "clause_id": f"c{i // community_size}.{i % community_size}",
            "page": i // 200 + 1,
            "bbox": [36.0, 80.0, 560.0, 92.0],
            "release_tag": "Rel-17",
        }
        g.add_node(
            Node(
                name(i),
                NodeType.PARAGRAPH,
                f"synthetic node {i}",
                attrs={"prov": prov},
            )
        )

    connected: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        connected.add((a, b))
        g.add_edge(Edge(name(a), name(b), RelationType.REFERS_TO))

    for c in range(n_communities):
        base = c * community_size
        for i in range(community_size):
            for j in range(i + 1, community_size):
                connect(base + i, base + j)
    if n_communities > 1:
        for c in range(n_communities):
            a = c * community_size + community_size - 1
            b = ((c + 1) % n_communities) * community_size
            connect(a, b)
    count = extra_cross if extra_cross is not None else n_communities // 10
    made = 0
    while made < count:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a // community_size != b // community_size:
            lo, hi = min(a, b), max(a, b)
            if (lo, hi) not in connected:
                connect(lo, hi)
                made += 1
    return g
