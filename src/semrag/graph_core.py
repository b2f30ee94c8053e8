"""Typed multimodal graph: storage, merging, traversal, persistence.

The compilers emit GraphFragment values (typed nodes and edges with
provenance in their attribute maps). merge_units folds fragments into one
TypedGraph, unifying Term nodes that share a normalized surface form across
documents. Edges are stored directed and typed but projected to undirected
form for degrees, volumes, and K-hop traversal. K-hop traversal reads
each node's neighbours over a set of relations from a memo on the graph,
worked out the first time the node is expanded over that set; adding a
node or an edge drops the whole memo.

Node ids are namespaced by document ("{doc}:{block}" and suffixes); unified
terms live under the corpus-wide "term:{key}" namespace; macro nodes under
"macro:{community}". An edge has no id: it is its (src, rel, dst), and
parallel edges, which the formula compiler emits, are kept in the order
they were added. Persistence is two JSONL byte streams, nodes and edges,
see save_graph/load_graph; where they are stored and how they are
checked is the bundle's business (pipeline). A loaded graph keeps one
string per node id, shared by its nodes and edges, and one dict per
distinct provenance, shared by the nodes and edges that carry it; its
attrs are read-only.
"""

from __future__ import annotations

import json
import logging
import marshal
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

from .doc_model import Provenance, canonical_json_bytes, decode_json
from .errors import EmptyAnchors, IdCollisionError, SchemaError

logger = logging.getLogger(__name__)


class NodeType(Enum):
    SECTION = "Section"
    PARAGRAPH = "Paragraph"
    TERM = "Term"
    ROW_HEADER = "RowHeader"
    COL_HEADER = "ColHeader"
    CELL = "Cell"
    PREDICATE = "Predicate"
    OPERATOR = "Operator"
    VARIABLE = "Variable"
    CONSTANT = "Constant"
    MACRO_NODE = "MacroNode"


class RelationType(Enum):
    CONTAINS = "Contains"
    REFERS_TO = "RefersTo"
    DEFINES = "Defines"
    ROW_BIND = "RowBind"
    COL_BIND = "ColBind"
    ACTIVATES = "Activates"
    OPERAND_OF = "OperandOf"
    PRECEDES = "Precedes"
    SRC = "Src"
    MEMBER_OF = "MemberOf"


@dataclass(slots=True)
class Node:
    id: str
    type: NodeType
    text: str
    attrs: dict = field(default_factory=dict)


@dataclass(slots=True)
class Edge:
    src: str
    dst: str
    rel: RelationType
    attrs: dict = field(default_factory=dict)


def prov_attrs(prov: Provenance) -> dict:
    """The attrs of a node or edge compiled from one source block."""
    return {"prov": prov.to_json()}


@dataclass
class GraphFragment:
    """Nodes and edges emitted by one compiler pass, pre-merge."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    # the (src, rel, dst) of every edge added so far
    _keys: set[tuple[str, RelationType, str]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def add_edge(self, src: str, rel: RelationType, dst: str, attrs: Optional[dict] = None) -> Edge:
        self._keys.add((src, rel, dst))
        edge = Edge(src, dst, rel, attrs or {})
        self.edges.append(edge)
        return edge

    def has_edge(self, src: str, rel: RelationType, dst: str) -> bool:
        return (src, rel, dst) in self._keys


def normalize_term(surface: str) -> str:
    """Unification key: lowercase, whitespace collapsed, trailing 's' stripped.

    The 's' is stripped only from a last word longer than one character,
    so a lone "s" survives and no key ends in whitespace, and never from a
    word ending in "sss". No key then ends in exactly "ss", so normalizing
    a key again strips at most its one trailing 's' and then stops.
    """
    key = " ".join(surface.lower().split())
    if (
        key.endswith("s")
        and not key.endswith("sss")
        and len(key.rsplit(" ", 1)[-1]) > 1
    ):
        key = key[:-1]
    return key


class TypedGraph:
    """Directed typed multigraph with per-node adjacency lists.

    ``edges`` lists every edge in the order it was added; ``out_edges`` and
    ``in_edges`` list each node's edges, the same objects, in that order.
    Nodes and edges are added through add_node and add_edge, which drop
    khop_expand's neighbour memo; only load_graph fills a new graph's
    fields directly.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.edges: list[Edge] = []
        self.out_edges: dict[str, list[Edge]] = {}
        self.in_edges: dict[str, list[Edge]] = {}
        # khop_expand's memo: allowed relations -> node -> its sorted
        # distinct neighbours over them, both directions, itself excluded
        self._neighbours: dict[frozenset[RelationType], dict[str, tuple[str, ...]]] = {}

    def add_node(self, node: Node) -> None:
        existing = self.nodes.get(node.id)
        if existing is not None:
            if (existing.type, existing.text, existing.attrs) != (
                node.type,
                node.text,
                node.attrs,
            ):
                raise IdCollisionError(
                    f"node id {node.id!r} claimed by two distinct payloads"
                )
            return
        if self._neighbours:
            self._neighbours.clear()
        self.nodes[node.id] = node
        self.out_edges[node.id] = []
        self.in_edges[node.id] = []

    def add_edge(self, edge: Edge) -> None:
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise ValueError(
                f"edge {edge.src!r} -{edge.rel.value}-> {edge.dst!r} "
                "references a missing endpoint"
            )
        if self._neighbours:
            self._neighbours.clear()
        self.edges.append(edge)
        self.out_edges[edge.src].append(edge)
        self.in_edges[edge.dst].append(edge)

    def incident_edges(self, node_id: str) -> Iterable[Edge]:
        """All edges touching the node; a self-loop appears once."""
        yield from self.out_edges[node_id]
        for edge in self.in_edges[node_id]:
            if edge.src != edge.dst:
                yield edge

    def degree(self, node_id: str) -> int:
        # undirected projection: parallel edges counted, and a self-loop,
        # which sits in both lists, counts 2
        return len(self.out_edges[node_id]) + len(self.in_edges[node_id])

    def nodes_of_type(self, node_type: NodeType) -> list[Node]:
        return [n for n in self.nodes.values() if n.type == node_type]


def degree_vector(g: TypedGraph) -> list[tuple[str, int]]:
    return [(nid, g.degree(nid)) for nid in sorted(g.nodes)]


def volume(g: TypedGraph) -> int:
    return sum(d for _, d in degree_vector(g))


# --- merging ----------------------------------------------------------------

def merge_units(fragments: Iterable[GraphFragment]) -> TypedGraph:
    """Fold compiler fragments into one graph, unifying Term nodes.

    Term nodes sharing a normalized surface form collapse into a single
    corpus-level node "term:{key}" whose payload comes from the member with
    the smallest original id; all edges are redirected. The result is
    independent of fragment order: everything is sorted before insertion,
    edges by (src, rel, dst, k), where k numbers a fragment's parallel
    edges in the order it added them.

    Fragments repeat a node or an edge when a corpus holds a document
    twice. A repeat with an equal payload is kept once; one with another
    payload raises IdCollisionError. An edge repeats when its redirected
    (src, rel, dst, k) does.
    """
    fragments = list(fragments)
    all_nodes = [node for frag in fragments for node in frag.nodes]

    # group term nodes by unification key and pick a deterministic representative
    term_groups: dict[str, list[Node]] = {}
    for node in all_nodes:
        if node.type == NodeType.TERM:
            term_groups.setdefault(normalize_term(node.text), []).append(node)
    redirect: dict[str, str] = {}
    unified: dict[str, Node] = {}
    for key, members in term_groups.items():
        members.sort(key=lambda n: n.id)
        canonical_id = f"term:{key}"
        rep = members[0]
        surfaces = sorted({m.text for m in members})
        attrs = dict(rep.attrs)
        attrs["surfaces"] = surfaces
        unified[canonical_id] = Node(canonical_id, NodeType.TERM, rep.text, attrs)
        for m in members:
            redirect[m.id] = canonical_id

    graph = TypedGraph()
    merged_nodes = [n for n in all_nodes if n.id not in redirect]
    merged_nodes.extend(unified.values())
    for node in sorted(merged_nodes, key=lambda n: n.id):
        graph.add_node(node)

    merged: dict[tuple[str, str, str, int], Edge] = {}
    for frag in fragments:
        parallel: dict[tuple[str, RelationType, str], int] = {}
        for edge in frag.edges:
            k = parallel.get((edge.src, edge.rel, edge.dst), 0)
            parallel[(edge.src, edge.rel, edge.dst)] = k + 1
            src = redirect.get(edge.src, edge.src)
            dst = redirect.get(edge.dst, edge.dst)
            if src != edge.src or dst != edge.dst:
                edge = Edge(src, dst, edge.rel, edge.attrs)
            key = (src, edge.rel.value, dst, k)
            existing = merged.setdefault(key, edge)
            if existing.attrs != edge.attrs:
                raise IdCollisionError(
                    f"edge {src!r} -{edge.rel.value}-> {dst!r} #{k} "
                    "claimed by two distinct payloads"
                )
    for key in sorted(merged):
        graph.add_edge(merged[key])
    return graph


# --- traversal --------------------------------------------------------------

@dataclass
class Subgraph:
    """Members of a bounded K-hop expansion, ordered by (hop, node id),
    and each member's hop distance from the nearest anchor."""

    nodes: list[str]
    hops: dict[str, int]


DEFAULT_KHOP_BUDGET = 512


def khop_expand(
    g: TypedGraph,
    anchors: set[str],
    k: int,
    allowed: Iterable[RelationType],
    budget: int = DEFAULT_KHOP_BUDGET,
) -> Subgraph:
    """Breadth-first ball of radius k over allowed relations, both directions.

    Deterministic: the anchors form level 0 in ascending node id order; each
    level is expanded in the order its members were reached, each member
    adding its not yet reached neighbours in ascending node id order, and
    the node budget cuts the final level in that same order. Anchors not in
    the graph are ignored.

    Each node's neighbours over `allowed` come from the graph's memo, keyed
    by ``frozenset(allowed)``: `allowed` may be any collection of relations,
    and is hashed once per call, to key the memo. A node's entry is worked
    out from its own adjacency lists the first time it is expanded, so the
    cost follows the ball, not the graph, and later calls reuse it.
    add_node and add_edge drop the memo.
    """
    valid = sorted(a for a in anchors if a in g.nodes)
    if not valid:
        raise EmptyAnchors("k-hop expansion requires at least one anchor node")
    key = frozenset(allowed)
    memo = g._neighbours.get(key)
    if memo is None:
        memo = g._neighbours[key] = {}
    hops: dict[str, int] = dict.fromkeys(valid, 0)
    levels = [valid]
    level = valid
    for depth in range(1, k + 1):
        if len(hops) >= budget:
            break
        reached: list[str] = []
        for current in level:
            neighbours = memo.get(current)
            if neighbours is None:
                neighbours = memo[current] = _neighbours(g, current, key)
            for other in neighbours:
                if other not in hops:
                    if len(hops) >= budget:
                        break
                    hops[other] = depth
                    reached.append(other)
        if not reached:
            break
        levels.append(sorted(reached))
        level = reached
    return Subgraph(nodes=[nid for level in levels for nid in level], hops=hops)


def _neighbours(
    g: TypedGraph, node_id: str, allowed: frozenset[RelationType]
) -> tuple[str, ...]:
    """The node's distinct neighbours over allowed relations, both
    directions, itself excluded, in ascending id order. Each edge's relation
    is compared against a tuple of them by identity, never hashed."""
    rels = tuple(allowed)
    found = {e.dst for e in g.out_edges[node_id] if e.rel in rels}
    found.update(e.src for e in g.in_edges[node_id] if e.rel in rels)
    found.discard(node_id)
    return tuple(sorted(found))


# --- persistence ------------------------------------------------------------

def _node_line(node: Node) -> bytes:
    return canonical_json_bytes(
        {"id": node.id, "type": node.type.value, "text": node.text, "attrs": node.attrs}
    )


def _edge_line(edge: Edge) -> bytes:
    return canonical_json_bytes(
        {"src": edge.src, "dst": edge.dst, "rel": edge.rel.value, "attrs": edge.attrs}
    )


def save_graph(g: TypedGraph) -> tuple[bytes, bytes]:
    """The graph as two JSONL blobs, nodes then edges, each line canonical
    JSON. Nodes are sorted by id and edges by (src, rel, dst), parallel
    edges in the graph's order, so equal graphs give equal bytes."""
    nodes_blob = b"\n".join(_node_line(g.nodes[nid]) for nid in sorted(g.nodes))
    if g.nodes:
        nodes_blob += b"\n"
    edges = sorted(g.edges, key=lambda e: (e.src, e.rel.value, e.dst))
    edges_blob = b"\n".join(map(_edge_line, edges))
    if g.edges:
        edges_blob += b"\n"
    return nodes_blob, edges_blob


_NODE_KEYS = {"id": str, "type": str, "text": str, "attrs": dict}
_EDGE_KEYS = {"src": str, "dst": str, "rel": str, "attrs": dict}
_NODE_TYPES = {kind.value: kind for kind in NodeType}
_RELATION_TYPES = {rel.value: rel for rel in RelationType}

# lines parsed per json.loads call; json keeps one string per key within a call
_CHUNK = 1024


def _chunks(blob: bytes, member: str) -> Iterator[tuple[list[int], list]]:
    """The non-blank lines of a JSONL member, _CHUNK at a time: their
    numbers, counted from 1, and the JSON value on each.

    A chunk is parsed as one array. If that fails, or gives other than one
    value per line (a line holding two values), each of its lines is
    parsed alone, and a line that does not parse holds the exception its
    parse raised, for the checks to raise in line order.
    """
    # decoded once: canonical JSON escapes every newline inside a string
    lines = blob.decode("utf-8").split("\n")
    # a blank line strips to nothing; strip gives any other canonical line
    # back as it is, without a copy
    numbers = list(compress(count(1), map(str.strip, lines)))
    for start in range(0, len(numbers), _CHUNK):
        chunk = numbers[start : start + _CHUNK]
        texts = [lines[n - 1] for n in chunk]
        try:
            values = json.loads("[" + ",".join(texts) + "]")
        except (ValueError, RecursionError):  # the array nests one level deeper
            values = None
        if values is None or len(values) != len(texts):
            values = [_line_value(member, n, text) for n, text in zip(chunk, texts)]
        yield chunk, values


def _line_value(member: str, number: int, text: str):
    try:
        return decode_json(text, f"{member} line {number}", f"/{number}")
    except (ValueError, SchemaError) as exc:
        return exc


def _columns(values: list, keys: dict[str, type]) -> Optional[list]:
    """One column per key over a chunk's values, or None unless every
    value is an object holding each key with a value of exactly its type."""
    try:
        rows = list(map(itemgetter(*keys), values))
    except (KeyError, TypeError):  # a value that is no object, or lacks a key
        return None
    columns = list(zip(*rows))
    for column, kind in zip(columns, keys.values()):
        if set(map(type, column)) != {kind}:
            return None
    return columns


def _share(attrs: Sequence[dict], provs: dict[bytes, object]) -> None:
    """Point the prov of each attrs holding one at the dict kept for its
    marshal encoding (version 2, which writes no back-references). On JSON
    values that encoding is equal exactly where repr is, which keeps 1, 1.0
    and True apart, and it is faster to make than repr of floats."""
    holders = [a for a in attrs if "prov" in a]
    found = list(map(itemgetter("prov"), holders))
    keys = map(marshal.dumps, found, repeat(2))
    for holder, prov in zip(holders, map(provs.setdefault, keys, found)):
        holder["prov"] = prov


def _node_chunk(values: list, nodes: dict[str, Node], provs: dict) -> Optional[dict[str, Node]]:
    """The nodes of a chunk's values that the graph lacks, by id in line
    order, checked and built column by column; None if a line fails a
    check. An id given again with an equal payload is kept once."""
    columns = _columns(values, _NODE_KEYS)
    if columns is None:
        return None
    ids, types, texts, attrs = columns
    kinds = list(map(_NODE_TYPES.get, types))
    if None in kinds:
        return None
    _share(attrs, provs)
    built = list(map(Node, ids, kinds, texts, attrs))
    fresh = dict(zip(ids, built))
    if len(fresh) == len(built) and nodes.keys().isdisjoint(fresh):
        return fresh
    fresh = {}
    for node in built:
        first = nodes.get(node.id) or fresh.setdefault(node.id, node)
        if (first.type, first.text, first.attrs) != (node.type, node.text, node.attrs):
            return None
    return {node_id: node for node_id, node in fresh.items() if node_id not in nodes}


def _add_edges(graph: TypedGraph, values: list, ids: dict[str, str], provs: dict) -> bool:
    """Add the edges of a chunk's values to the graph in line order, their
    endpoints the graph's own id strings, checked and built column by
    column; False, adding none, if a line fails a check."""
    columns = _columns(values, _EDGE_KEYS)
    if columns is None:
        return False
    srcs, dsts, rels, attrs = columns
    srcs, dsts = list(map(ids.get, srcs)), list(map(ids.get, dsts))
    rels = list(map(_RELATION_TYPES.get, rels))
    if None in rels or None in srcs or None in dsts:
        return False
    _share(attrs, provs)
    edges = list(map(Edge, srcs, dsts, rels, attrs))
    graph.edges += edges
    out_edges, in_edges = graph.out_edges, graph.in_edges
    for src, dst, edge in zip(srcs, dsts, edges):
        out_edges[src].append(edge)
        in_edges[dst].append(edge)
    return True


def _raise_first_fault(
    member: str, numbers: list[int], values: list, keys: dict[str, type], check
) -> NoReturn:
    """Raise what the earliest bad line of a chunk raises: its parse
    error, or SchemaError for a value that is no object, a key missing or
    of another type, or whatever ``check`` finds in the record. Each line
    is checked whole before the next."""
    for number, obj in zip(numbers, values):
        if isinstance(obj, Exception):
            raise obj
        if type(obj) is not dict:
            raise SchemaError(f"/{number}", f"{member} line {number} is not a JSON object")
        for key, kind in keys.items():
            if type(obj.get(key)) is not kind:
                raise SchemaError(
                    f"/{number}/{key}",
                    f"{member} line {number} {key} is missing or not {kind.__name__}",
                )
        check(number, obj)
    raise AssertionError(f"{member}: a chunk failed a check that none of its lines fails")


def load_graph(nodes_blob: bytes, edges_blob: bytes) -> TypedGraph:
    """The graph save_graph encoded as these two blobs, its edges in line
    order. A line that is not such a record, an edge to no node, a node id
    given two payloads, or a value nested too deeply to decode raises
    SchemaError; a line that is not JSON raises json.JSONDecodeError. Keys
    a line holds beyond its record's are ignored, such as the ``id`` that
    edge lines once carried.

    Each chunk of _CHUNK lines is decoded by one json.loads call, then
    checked and built a column at a time, with no call per record. Only a
    chunk that fails a check is gone through line by line, to raise what
    its earliest bad line raises.

    The graph holds one object per distinct value where the encoding
    repeats it: an edge's src and dst are the id strings that key
    ``graph.nodes``, and nodes and edges whose ``attrs["prov"]`` encode
    alike (see _share, which keeps 1, 1.0 and True apart) share one
    provenance dict. So a loaded graph's attrs are read-only: a change to one
    provenance would change every node and edge that shares it.
    """
    graph = TypedGraph()
    nodes = graph.nodes
    provs: dict[bytes, object] = {}

    # the per-line checks of a rejected chunk add its lines one by one, as
    # add_node and add_edge do, to raise what the first bad line raises
    def check_node(number: int, obj: dict) -> None:
        kind = _NODE_TYPES.get(obj["type"])
        if kind is None:
            raise SchemaError(
                f"/{number}/type", f"nodes.jsonl holds an unknown type {obj['type']!r}"
            )
        try:
            graph.add_node(Node(obj["id"], kind, obj["text"], obj["attrs"]))
        except IdCollisionError as exc:
            raise SchemaError(f"/{number}", f"nodes.jsonl line {number}: {exc}") from None

    def check_edge(number: int, obj: dict) -> None:
        rel = _RELATION_TYPES.get(obj["rel"])
        if rel is None:
            raise SchemaError(
                f"/{number}/rel", f"edges.jsonl holds an unknown rel {obj['rel']!r}"
            )
        try:
            graph.add_edge(Edge(obj["src"], obj["dst"], rel, obj["attrs"]))
        except ValueError as exc:  # no such endpoint
            raise SchemaError(f"/{number}", f"edges.jsonl line {number}: {exc}") from None

    for numbers, values in _chunks(nodes_blob, "nodes.jsonl"):
        fresh = _node_chunk(values, nodes, provs)
        if fresh is None:
            _raise_first_fault("nodes.jsonl", numbers, values, _NODE_KEYS, check_node)
        nodes.update(fresh)
    ids = dict(zip(nodes, nodes))
    graph.out_edges = {node_id: [] for node_id in nodes}
    graph.in_edges = {node_id: [] for node_id in nodes}
    for numbers, values in _chunks(edges_blob, "edges.jsonl"):
        if not _add_edges(graph, values, ids, provs):
            _raise_first_fault("edges.jsonl", numbers, values, _EDGE_KEYS, check_edge)
    return graph


def graphs_equal(a: TypedGraph, b: TypedGraph) -> bool:
    return save_graph(a) == save_graph(b)
