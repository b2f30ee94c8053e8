"""Routed retrieval over the indexed graph, ending in cited answers.

A query is featurized (length, entity mentions, symbolic tokens, hit
entropy), routed to one of three strategies, and answered from evidence
records that carry full provenance:

- low: direct vector search over paragraphs and cells;
- med: anchor nodes (gazetteer terms, then best vector hits) expanded a few
  hops along structural relations, candidates re-ranked by similarity;
- high: community summary nodes matched against the query.

The query text is embedded once and scored once per retrieval: one
product of the index matrix with the query gives a score per indexed
node, and the hit-entropy feature, the med route's vector anchors and
candidates, and the chosen strategy all read that one vector. The med
route works out each node's expansion neighbours (khop_expand's memo on
the graph) and its candidate form (QueryEngine._form) once, the first time
a ball holds it, so it embeds each unindexed operator once per engine,
not once per question. The gazetteer, folded and word-indexed once per
engine and compiled to no regex, is matched once per retrieval too; the
entity-count feature and the med route's term anchors share the result.
That match searches the folded question only for the surfaces whose
longest word is one of the question's words, so its cost follows the
question's length rather than the gazetteer's size.

One rule table, rule_route, is the router: it reads the four features
and picks the route, so why a question took its route is read off that
one function.
evidence_record turns each node kind into one English statement;
build_prompt lays the records out as numbered evidence lines, the layout
that llm_clients.OfflineLlmClient parses back.
"""

from __future__ import annotations

import heapq
import math
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DanglingNode, EmptyIndex, NoMacroNodes, SchemaError
from .graph_core import NodeType, RelationType, TypedGraph, khop_expand
from .layout_compiler import CellHit, Gazetteer, cell_condition, cell_index, lookup_cell
from .llm_clients import LlmClient, count_tokens
from .sem_index import shannon
from .vector_align import EMBED_DIM, embed_text, hash_counts, unit_rows


class Route(Enum):
    LOW = "low"
    MED = "med"
    HIGH = "high"


INDEXED_TYPES = (
    NodeType.SECTION,
    NodeType.PARAGRAPH,
    NodeType.TERM,
    NodeType.ROW_HEADER,
    NodeType.COL_HEADER,
    NodeType.CELL,
    NodeType.PREDICATE,
    NodeType.MACRO_NODE,
)
VERBALIZABLE_TYPES = (
    NodeType.PARAGRAPH,
    NodeType.CELL,
    NodeType.PREDICATE,
    NodeType.OPERATOR,
    NodeType.MACRO_NODE,
)
EXPAND_RELATIONS = frozenset(
    {
        RelationType.ROW_BIND,
        RelationType.COL_BIND,
        RelationType.ACTIVATES,
        RelationType.OPERAND_OF,
        RelationType.DEFINES,
        RelationType.REFERS_TO,
        RelationType.CONTAINS,
    }
)

HIT_ENTROPY_TOP = 10
ANCHOR_HITS = 3  # top vector hits offered as med-route anchors
MAX_ANCHORS = 4  # med-route anchors, gazetteer terms first
MACRO_LIMIT = 5  # community summaries the high route returns
SCORE_SCALE = 1.0 / math.sqrt(2.0)  # see QueryEngine.embed_query
SYMBOLIC_PATTERN = re.compile(
    r"[=^_\\/]|\b(?:log2?|sum|frac)\b|\d+\s*(?:dB|dBm|GHz|MHz|ms)\b"
)
ACRONYM_PATTERN = re.compile(r"\b[A-Z][A-Z0-9]+\b")


@dataclass
class RetrievalConfig:
    budget: int = 5
    khop: int = 3


def retrieval_text(g: TypedGraph, node_id: str) -> str:
    """The text a node is indexed under; cells expose their header context."""
    node = g.nodes[node_id]
    if node.type == NodeType.CELL:
        parts = list(node.attrs.get("row_path", []))
        parts += list(node.attrs.get("col_path", []))
        parts.append(node.attrs.get("value", node.text))
        if node.attrs.get("unit"):
            parts.append(node.attrs["unit"])
        return " ".join(parts)
    if node.type == NodeType.OPERATOR and "expr" in node.attrs:
        return node.attrs["expr"]
    return node.text


# --- evidence ---------------------------------------------------------------

@dataclass
class EvidenceRecord:
    """One verbalized node: a subject-relation-object statement with its
    guard condition, source clause, and resolvable provenance, plus the
    retrieval context that produced it."""

    clause: str
    subject: str
    relation: str
    object: str
    condition: Optional[str]
    provenance: dict
    node_id: str
    node_type: str
    score: float
    route: str
    hop: Optional[int] = None

    @property
    def statement(self) -> str:
        return f"{self.subject} {self.relation} {self.object}"

    @property
    def doc_id(self) -> str:
        return self.provenance["doc_id"]

    @property
    def page(self) -> int:
        return self.provenance["page"]

    def to_json(self) -> dict:
        return {
            "clause": self.clause,
            "subject": self.subject,
            "relation": self.relation,
            "object": self.object,
            "condition": self.condition,
            "provenance": dict(self.provenance),
            "node_id": self.node_id,
            "node_type": self.node_type,
            "score": round(self.score, 9),
            "route": self.route,
            "hop": self.hop,
        }


def _macro_members(g: TypedGraph, node_id: str) -> list[str]:
    """The nodes a macro node summarizes: its MemberOf in-edges' sources."""
    return [e.src for e in g.in_edges[node_id] if e.rel == RelationType.MEMBER_OF]


def _macro_representative(g: TypedGraph, node_id: str) -> Optional[dict]:
    ranked = sorted(_macro_members(g, node_id), key=lambda m: (-g.degree(m), m))
    for member in ranked:
        prov = g.nodes[member].attrs.get("prov")
        if prov:
            return prov
    return None


def _enclosing_section_title(g: TypedGraph, node_id: str) -> Optional[str]:
    for edge in g.in_edges[node_id]:
        if edge.rel == RelationType.CONTAINS:
            parent = g.nodes[edge.src]
            if parent.type == NodeType.SECTION and parent.text:
                return parent.text
    return None


def _statement_fields(
    g: TypedGraph, node_id: str
) -> tuple[str, str, str, Optional[str]]:
    """(subject, relation, object, condition) for one node's statement."""
    node = g.nodes[node_id]
    if node.type == NodeType.CELL:
        value = node.attrs.get("value", node.text)
        unit = node.attrs.get("unit")
        rendered = f"{value} {unit}" if unit else f"{value}"
        row = " / ".join(node.attrs.get("row_path", []))
        col = " / ".join(node.attrs.get("col_path", []))
        subject = row or "the table cell"
        obj = f"{col} = {rendered}" if col else rendered
        return subject, "has value under", obj, cell_condition(g, node_id)
    if node.type == NodeType.PARAGRAPH:
        subject = _enclosing_section_title(g, node_id) or node.attrs.get(
            "prov", {}
        ).get("doc_id", "the document")
        return subject, "states", node.text, None
    if node.type == NodeType.PREDICATE:
        marker = node.attrs.get("marker")
        subject = f"table note {marker}" if marker else "a table note"
        return subject, "states", node.text, None
    if node.type == NodeType.OPERATOR and "expr" in node.attrs:
        expr = node.attrs["expr"]
        label = node.attrs.get("label")
        if " = " in expr:
            lhs, rhs = expr.split(" = ", 1)
            return label or lhs, "is computed as", rhs, None
        return label or "the expression", "is computed as", expr, None
    if node.type == NodeType.MACRO_NODE:
        key = node.attrs.get("community", node_id)
        summary = node.text or f"a community of {len(_macro_members(g, node_id))} nodes"
        return f"community {key}", "summarizes", summary, None
    raise DanglingNode(
        f"node {node_id!r} of type {node.type.value} has no statement form"
    )


def evidence_record(
    g: TypedGraph,
    node_id: str,
    score: float,
    route: Route,
    hop: Optional[int] = None,
) -> EvidenceRecord:
    node = g.nodes[node_id]
    prov = node.attrs.get("prov")
    if prov is None and node.type == NodeType.MACRO_NODE:
        prov = _macro_representative(g, node_id)
    if prov is None:
        raise DanglingNode(f"node {node_id!r} carries no provenance")
    subject, relation, obj, condition = _statement_fields(g, node_id)
    if node.type == NodeType.MACRO_NODE:
        clause = str(node.attrs.get("community", node_id))
    else:
        clause = prov["clause_id"]
    return EvidenceRecord(
        clause=clause,
        subject=subject,
        relation=relation,
        object=obj,
        condition=condition,
        provenance=dict(prov),
        node_id=node_id,
        node_type=node.type.value,
        score=float(score),
        route=route.value,
        hop=hop,
    )


# --- router -----------------------------------------------------------------

FEATURE_NAMES = ("query_length", "entity_count", "has_symbolic", "hit_entropy")


def rule_route(features: Sequence[float]) -> Route:
    """The route of a question's features: symbols or several entities mean
    structure, vague long queries with scattered hits mean summaries, the
    rest is flat."""
    query_length, entity_count, has_symbolic, hit_entropy = features
    if has_symbolic >= 1.0 or entity_count >= 2:
        return Route.MED
    if entity_count == 0 and query_length >= 12 and hit_entropy >= 2.5:
        return Route.HIGH
    return Route.LOW


# --- engine -----------------------------------------------------------------

@dataclass
class AnswerResult:
    question: str
    route: str
    features: list[float]
    records: list[EvidenceRecord]
    prompt: str
    answer: str
    latency_ms: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "question": self.question,
            "route": self.route,
            "features": {
                name: round(float(v), 9)
                for name, v in zip(FEATURE_NAMES, self.features)
            },
            "answer": self.answer,
            "evidence": [r.to_json() for r in self.records],
            "latency_ms": {
                name: round(float(v), 3) for name, v in self.latency_ms.items()
            },
        }


PROMPT_HEADER = "Answer the question using only the numbered evidence."
PROMPT_FOOTER = "Answer with citations to the evidence numbers."


def build_prompt(question: str, records: Sequence[EvidenceRecord]) -> str:
    lines = [PROMPT_HEADER, "", f"Question: {question}", "", "Evidence:"]
    for i, record in enumerate(records, start=1):
        guard = f", given {record.condition}" if record.condition else ""
        lines.append(
            f"[{i}] {record.statement}{guard} "
            f"(clause {record.clause}, {record.doc_id} p.{record.page})"
        )
    if not records:
        lines.append("(none)")
    lines += ["", PROMPT_FOOTER]
    return "\n".join(lines)


def indexed_ids(g: TypedGraph) -> list[str]:
    """The ids of the graph's INDEXED_TYPES nodes in sorted order: the row
    order of the vector index."""
    indexed = set(INDEXED_TYPES)
    return [nid for nid in sorted(g.nodes) if g.nodes[nid].type in indexed]


def index_vectors(g: TypedGraph) -> np.ndarray:
    """Hash counts of the retrieval text of every indexable node, one
    int32 row per indexed_ids entry, EMBED_DIM wide, with or without
    alignment."""
    ids = indexed_ids(g)
    counts = np.zeros((len(ids), EMBED_DIM), dtype=np.int32)
    for row, nid in enumerate(ids):
        counts[row] = hash_counts(retrieval_text(g, nid))
    return counts


@dataclass
class _Question:
    """One question as retrieval reads it, derived once: the router's
    features, the med route's anchors and the chosen route all read it."""

    text: str
    query: np.ndarray  # embed_query(text)
    scores: np.ndarray  # the whole index scored against the query
    terms: set[str]  # gazetteer term nodes mentioned in the text
    surfaces: set[str]  # the surfaces that mention them


# a node's med-route candidate form: see QueryEngine._form
_Form = Union[int, np.ndarray, None]


def _entity_count(text: str, terms: set[str], surfaces: set[str]) -> int:
    """Known-term mentions plus all-caps tokens the gazetteer missed."""
    known = {s.lower() for s in surfaces}
    acronyms = {
        token for token in ACRONYM_PATTERN.findall(text) if token.lower() not in known
    }
    return len(terms) + len(acronyms)


class QueryEngine:
    """Vector index plus retrieval over one compiled graph, each question
    routed by the rule table (rule_route) over its features.

    ``matrix`` is the index, one row per indexed_ids entry: integer hash
    counts as index_vectors computes them, which are scaled to unit rows
    here (unit_rows), or float64 unit rows as load_vectors decodes them,
    which the engine searches as they are, without a copy. Either way each
    row holds the bits embed_text gives its node's text. The matrix must
    be exactly len(indexed_ids(g)) by EMBED_DIM.
    Construction folds and word-indexes the gazetteer's term surfaces
    once, so no question rescans the graph. The cell index (cell_index:
    the cells bound to each header path) is built by the first lookup and
    kept, so an engine that only answers questions never builds it and no
    later lookup walks a header's bind edges.
    """

    def __init__(
        self,
        g: TypedGraph,
        matrix: np.ndarray,
        config: Optional[RetrievalConfig] = None,
    ):
        self.g = g
        self.config = config or RetrievalConfig()
        ids, matrix = indexed_ids(g), np.asarray(matrix)
        if matrix.shape != (len(ids), EMBED_DIM):
            raise SchemaError(
                "/vectors",
                f"vector matrix of shape {matrix.shape} is not {len(ids)} x "
                f"{EMBED_DIM}, the graph's indexable nodes by EMBED_DIM; "
                "rebuild the bundle",
            )
        self._ids = ids
        self._row_of = {nid: row for row, nid in enumerate(ids)}
        self._types = [g.nodes[nid].type for nid in ids]
        self._matrix = matrix if matrix.dtype == np.float64 else unit_rows(matrix)
        # index rows of each type set ranked so far, ascending (so in id order)
        self._rows: dict[Optional[frozenset[NodeType]], np.ndarray] = {}
        # the med route's candidate form of each node a ball has held
        self._forms: dict[str, _Form] = {}
        self._term_of: dict[str, str] = {}
        for node in g.nodes_of_type(NodeType.TERM):
            surfaces = set(node.attrs.get("surfaces", [])) | {node.text}
            for surface in surfaces:
                if surface.strip():
                    self._term_of.setdefault(surface, node.id)
        self._gazetteer = Gazetteer(self._term_of)

    @cached_property
    def _cells(self):
        return cell_index(self.g)

    def embed_query(self, text: str) -> np.ndarray:
        """The query's hashed text, scaled by SCORE_SCALE.

        A score is then the text cosine over sqrt(2), the scale on which
        the rule router's 2.5-bit hit-entropy threshold and the golden
        evidence scores were set; unscaled cosines would move the
        hit-entropy feature of every golden question.
        """
        return embed_text(text) * SCORE_SCALE

    def _ask(self, text: str, query: np.ndarray) -> _Question:
        terms, surfaces = self._gazetteer_hits(text)
        return _Question(text, query, self._matrix @ query, terms, surfaces)

    def search(
        self,
        query: np.ndarray,
        k: int,
        types: Optional[Sequence[NodeType]] = None,
    ) -> list[tuple[str, float]]:
        """Top-k nodes by score against an embedded query, ties broken by
        node id; nodes with equal retrieval text score bit-identically.

        Retrieval scores the whole index once per question and ranks that
        one vector for every use; search scores afresh and ranks the same
        way.
        """
        return self._rank(self._matrix @ query, k, types)

    def _type_rows(self, types: Optional[Sequence[NodeType]]) -> np.ndarray:
        key = None if types is None else frozenset(types)
        rows = self._rows.get(key)
        if rows is None:
            rows = np.array(
                [row for row, t in enumerate(self._types) if key is None or t in key],
                dtype=np.intp,
            )
            self._rows[key] = rows
        return rows

    def _rank(
        self,
        scores: np.ndarray,
        k: int,
        types: Optional[Sequence[NodeType]] = None,
    ) -> list[tuple[str, float]]:
        """Top-k of an index score vector by (-score, node id), over the
        rows of the given node types.

        The rows scoring above the k-th largest score are sorted; the rows
        tied at it follow in row order, which is node-id order, so a tie at
        the cut is decided by node id as a full sort would.
        """
        rows = self._type_rows(types)
        if not len(rows):
            raise EmptyIndex(
                "vector index holds no nodes"
                + (f" of types {sorted(t.value for t in types)}" if types else "")
            )
        k = max(k, 0)
        if k == 0:
            return []
        tied = rows[:0]
        if k < len(rows):
            picked = scores[rows]
            cut = np.partition(picked, len(rows) - k)[len(rows) - k]
            above = picked > cut
            tied = rows[picked == cut][: k - np.count_nonzero(above)]
            rows = rows[above]
        ranked = sorted(
            ((self._ids[row], float(scores[row])) for row in rows),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked + [(self._ids[row], float(scores[row])) for row in tied]

    # -- features and routing --

    def hit_entropy(self, scores: np.ndarray) -> float:
        """Entropy in bits of the softmax over the strongest of the index's
        scores against a query.

        An empty index reads as maximally uncertain.
        """
        n = len(scores)
        if not n:
            return math.log2(HIT_ENTROPY_TOP)
        k = min(HIT_ENTROPY_TOP, n)
        # descending, as _rank orders them, so the softmax sums in that order
        top = np.sort(np.partition(scores, n - k)[n - k :])[::-1]
        exp = np.exp(top - top.max())
        return float(shannon(exp / exp.sum()))

    def _gazetteer_hits(self, text: str) -> tuple[set[str], set[str]]:
        """(term node ids, matched surfaces) for mentions in the text."""
        surfaces = self._gazetteer.mentioned(text)
        return {self._term_of[s] for s in surfaces}, set(surfaces)

    def entity_matches(self, text: str) -> list[str]:
        """Distinct term nodes mentioned in the text, in node id order."""
        terms, _ = self._gazetteer_hits(text)
        return sorted(terms)

    def entity_count(self, text: str) -> int:
        """Known-term mentions plus all-caps tokens the gazetteer missed."""
        return _entity_count(text, *self._gazetteer_hits(text))

    def features(self, text: str, query: np.ndarray) -> list[float]:
        """Router features of a query's text and its embedded vector."""
        return self._features(self._ask(text, query))

    def _features(self, q: _Question) -> list[float]:
        return [
            float(count_tokens(q.text)),
            float(_entity_count(q.text, q.terms, q.surfaces)),
            1.0 if SYMBOLIC_PATTERN.search(q.text) else 0.0,
            self.hit_entropy(q.scores),
        ]

    def route(self, text: str, query: np.ndarray) -> tuple[Route, list[float]]:
        return self._route(self._ask(text, query))

    def _route(self, q: _Question) -> tuple[Route, list[float]]:
        features = self._features(q)
        return rule_route(features), features

    # -- retrieval --

    def retrieve(
        self, text: str, route: Optional[Route] = None
    ) -> tuple[Route, list[float], list[EvidenceRecord]]:
        q = self._ask(text, self.embed_query(text))
        if route is not None:
            chosen, features = route, self._features(q)
        else:
            chosen, features = self._route(q)
        if chosen == Route.LOW:
            records = self._retrieve_low(q)
        elif chosen == Route.MED:
            records = self._retrieve_med(q)
        else:
            records = self._retrieve_high(q)
        return chosen, features, records

    def _retrieve_low(self, q: _Question) -> list[EvidenceRecord]:
        hits = self._rank(
            q.scores, self.config.budget, types=(NodeType.PARAGRAPH, NodeType.CELL)
        )
        return [
            evidence_record(self.g, nid, score, Route.LOW) for nid, score in hits
        ]

    def _anchors(self, q: _Question) -> list[str]:
        anchors = sorted(q.terms)[:MAX_ANCHORS]
        if len(anchors) < MAX_ANCHORS:
            try:
                hits = self._rank(q.scores, ANCHOR_HITS)
            except EmptyIndex:
                hits = []
            for nid, _ in hits:
                if nid not in anchors:
                    anchors.append(nid)
                if len(anchors) >= MAX_ANCHORS:
                    break
        return anchors

    def _form(self, nid: str) -> _Form:
        """How the med route scores a node: by its index row, by the
        embedding of an unindexed operator's expr, or not at all (None) if
        the node cannot become evidence."""
        node = self.g.nodes[nid]
        if node.type not in VERBALIZABLE_TYPES:
            return None
        if node.type is NodeType.OPERATOR and "expr" not in node.attrs:
            return None
        row = self._row_of.get(nid)
        if row is None:
            return embed_text(retrieval_text(self.g, nid))
        return row

    def _retrieve_med(self, q: _Question) -> list[EvidenceRecord]:
        anchors = self._anchors(q)
        if not anchors:
            return []
        subgraph = khop_expand(
            self.g, set(anchors), self.config.khop, EXPAND_RELATIONS
        )
        hops, forms = subgraph.hops, self._forms
        # candidates keyed (-score, hop, id): ids make every key distinct,
        # so the budget smallest are the fully sorted list's prefix
        keys, indexed, rows = [], [], []
        for nid in subgraph.nodes:
            try:
                form = forms[nid]
            except KeyError:
                form = forms[nid] = self._form(nid)
            if form is None:
                continue
            if type(form) is int:
                indexed.append(nid)
                rows.append(form)
            else:
                keys.append((-float(form @ q.query), hops[nid], nid))
        # indexed candidates read the question's one score product
        for nid, negated in zip(indexed, (-q.scores[rows]).tolist()):
            keys.append((negated, hops[nid], nid))
        return [
            evidence_record(self.g, nid, -negated, Route.MED, hop)
            for negated, hop, nid in heapq.nsmallest(self.config.budget, keys)
        ]

    def _retrieve_high(self, q: _Question) -> list[EvidenceRecord]:
        macro = (NodeType.MACRO_NODE,)
        if not len(self._type_rows(macro)):
            raise NoMacroNodes(
                "summary retrieval requires community summaries in the vector "
                "index; rebuild the bundle"
            )
        hits = self._rank(q.scores, MACRO_LIMIT, types=macro)
        return [
            evidence_record(self.g, nid, score, Route.HIGH) for nid, score in hits
        ]

    # -- relational lookup --

    def lookup(
        self,
        row_path: Sequence[str] = (),
        col_path: Sequence[str] = (),
        predicates: Sequence[str] = (),
    ) -> list[CellHit]:
        return lookup_cell(self.g, row_path, col_path, predicates, self._cells)

    # -- answering --

    def answer(
        self, text: str, client: LlmClient, route: Optional[Route] = None
    ) -> AnswerResult:
        t0 = time.perf_counter()
        chosen, features, records = self.retrieve(text, route=route)
        t1 = time.perf_counter()
        prompt = build_prompt(text, records)
        reply = client.generate(prompt)
        t2 = time.perf_counter()
        return AnswerResult(
            question=text,
            route=chosen.value,
            features=features,
            records=records,
            prompt=prompt,
            answer=reply,
            latency_ms={
                "retrieval_ms": (t1 - t0) * 1000.0,
                "generation_ms": (t2 - t1) * 1000.0,
            },
        )
