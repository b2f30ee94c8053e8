"""Typed multimodal graph: storage, merging, traversal, persistence.

The compilers emit GraphFragment values (typed nodes and edges with
provenance in their attribute maps). merge_units folds fragments into one
TypedGraph, unifying Term nodes that share a normalized surface form across
documents. Edges are stored directed and typed but projected to undirected
form for degrees, volumes, and K-hop traversal.

Node ids are namespaced by document ("{doc}:{block}" and suffixes); unified
terms live under the corpus-wide "term:{key}" namespace; macro nodes under
"macro:{community}". Persistence is two JSONL byte streams, nodes and
edges, see save_graph/load_graph; where they are stored and how they are
checked is the bundle's business (pipeline). A loaded graph keeps one
string per node id, shared by its nodes and edges, and one dict per
distinct provenance, shared by the nodes and edges that carry it; its
attrs are read-only.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .doc_model import Provenance, canonical_json_bytes
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
    id: str
    src: str
    dst: str
    rel: RelationType
    attrs: dict = field(default_factory=dict)


def prov_attrs(prov: Provenance) -> dict:
    """The attrs of a node or edge compiled from one source block."""
    return {"prov": prov.to_json()}


def edge_id(src: str, rel: RelationType, dst: str, k: int = 0) -> str:
    return f"{src}|{rel.value}|{dst}#{k}"


@dataclass
class GraphFragment:
    """Nodes and edges emitted by one compiler pass, pre-merge."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    # edges added so far per (src, rel, dst); the next one's id suffix
    _counts: dict[tuple[str, RelationType, str], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def add_edge(self, src: str, rel: RelationType, dst: str, attrs: Optional[dict] = None) -> Edge:
        k = self._counts.get((src, rel, dst), 0)
        self._counts[(src, rel, dst)] = k + 1
        edge = Edge(edge_id(src, rel, dst, k), src, dst, rel, attrs or {})
        self.edges.append(edge)
        return edge

    def has_edge(self, src: str, rel: RelationType, dst: str) -> bool:
        return (src, rel, dst) in self._counts


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
    """Directed typed multigraph with per-node adjacency lists."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        self.out_edges: dict[str, list[str]] = {}
        self.in_edges: dict[str, list[str]] = {}

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
        self.nodes[node.id] = node
        self.out_edges[node.id] = []
        self.in_edges[node.id] = []

    def add_edge(self, edge: Edge) -> None:
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise ValueError(
                f"edge {edge.id!r} references missing endpoint "
                f"({edge.src!r} -> {edge.dst!r})"
            )
        existing = self.edges.get(edge.id)
        if existing is not None:
            if (existing.src, existing.dst, existing.rel, existing.attrs) != (
                edge.src,
                edge.dst,
                edge.rel,
                edge.attrs,
            ):
                raise IdCollisionError(
                    f"edge id {edge.id!r} claimed by two distinct payloads"
                )
            return
        self.edges[edge.id] = edge
        self.out_edges[edge.src].append(edge.id)
        self.in_edges[edge.dst].append(edge.id)

    def incident_edges(self, node_id: str) -> Iterable[Edge]:
        """All edges touching the node; a self-loop appears once."""
        for eid in self.out_edges[node_id]:
            yield self.edges[eid]
        for eid in self.in_edges[node_id]:
            edge = self.edges[eid]
            if edge.src != edge.dst:
                yield edge

    def degree(self, node_id: str) -> int:
        # undirected projection: parallel edges counted, self-loops count 2
        d = 0
        for edge in self.incident_edges(node_id):
            d += 2 if edge.src == edge.dst else 1
        return d

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
    independent of fragment order: everything is sorted before insertion.
    """
    all_nodes: list[Node] = []
    all_edges: list[Edge] = []
    for frag in fragments:
        all_nodes.extend(frag.nodes)
        all_edges.extend(frag.edges)

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

    rewritten: list[Edge] = []
    for edge in all_edges:
        src = redirect.get(edge.src, edge.src)
        dst = redirect.get(edge.dst, edge.dst)
        if src != edge.src or dst != edge.dst:
            k = edge.id.rsplit("#", 1)[-1]
            new_id = f"{src}|{edge.rel.value}|{dst}#{k}"
            rewritten.append(Edge(new_id, src, dst, edge.rel, edge.attrs))
        else:
            rewritten.append(edge)
    for edge in sorted(rewritten, key=lambda e: e.id):
        graph.add_edge(edge)
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

    Deterministic: each frontier is processed in ascending node id order and
    the node budget cuts the final frontier in that same order. Anchors not
    in the graph are ignored. Only the members' own incident edges are
    read, so the cost follows the ball, not the graph. `allowed` may be
    any collection of relations: it is read once into a tuple, and each
    edge's relation is compared against it by identity, never hashed.
    """
    valid = sorted(a for a in anchors if a in g.nodes)
    if not valid:
        raise EmptyAnchors("k-hop expansion requires at least one anchor node")
    allowed = tuple(allowed)
    edges = g.edges
    hops: dict[str, int] = {a: 0 for a in valid}
    frontier = deque(valid)
    while frontier:
        current = frontier.popleft()
        depth = hops[current]
        if depth >= k:
            continue
        neighbors = set()
        for eid in g.out_edges[current]:
            edge = edges[eid]
            if edge.rel in allowed and edge.dst not in hops:
                neighbors.add(edge.dst)
        for eid in g.in_edges[current]:
            edge = edges[eid]
            if edge.rel in allowed and edge.src not in hops:
                neighbors.add(edge.src)
        for other in sorted(neighbors):
            if len(hops) >= budget:
                break
            hops[other] = depth + 1
            frontier.append(other)
    return Subgraph(nodes=sorted(hops, key=lambda n: (hops[n], n)), hops=hops)


# --- persistence ------------------------------------------------------------

def _node_line(node: Node) -> bytes:
    return canonical_json_bytes(
        {"id": node.id, "type": node.type.value, "text": node.text, "attrs": node.attrs}
    )


def _edge_line(edge: Edge) -> bytes:
    return canonical_json_bytes(
        {
            "id": edge.id,
            "src": edge.src,
            "dst": edge.dst,
            "rel": edge.rel.value,
            "attrs": edge.attrs,
        }
    )


def save_graph(g: TypedGraph) -> tuple[bytes, bytes]:
    """The graph as two JSONL blobs, nodes then edges, each line canonical
    JSON and each stream sorted by id, so equal graphs give equal bytes."""
    nodes_blob = b"\n".join(_node_line(g.nodes[nid]) for nid in sorted(g.nodes))
    if g.nodes:
        nodes_blob += b"\n"
    edges_blob = b"\n".join(_edge_line(g.edges[eid]) for eid in sorted(g.edges))
    if g.edges:
        edges_blob += b"\n"
    return nodes_blob, edges_blob


_NODE_KEYS = {"id": str, "type": str, "text": str, "attrs": dict}
_EDGE_KEYS = {"id": str, "src": str, "dst": str, "rel": str, "attrs": dict}

# lines parsed per json.loads call; json keeps one string per key within a call
_CHUNK = 1024


def _values(chunk: list[tuple[int, str]]):
    """The JSON value on each numbered line of a chunk.

    The chunk is parsed as one array. If that fails, or gives other than
    one value per line (a line holding two values), it is parsed line by
    line, lazily, so that the line at fault raises what it raises alone.
    """
    try:
        values = json.loads("[" + ",".join(line for _, line in chunk) + "]")
    except (ValueError, RecursionError):  # the array nests one level deeper
        values = None
    if values is None or len(values) != len(chunk):
        return (json.loads(line) for _, line in chunk)
    return values


def _records(blob: bytes, member: str, keys: dict[str, type]):
    """Each non-blank line of a JSONL member, numbered from 1, as an object
    holding keys of the given types; anything else raises SchemaError."""
    names, kinds = tuple(keys), tuple(keys.values())
    # decoded once: canonical JSON escapes every newline inside a string
    lines = [
        (number, line)
        for number, line in enumerate(blob.decode("utf-8").split("\n"), 1)
        if line.strip()
    ]
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start : start + _CHUNK]
        for (number, _), obj in zip(chunk, _values(chunk)):
            if type(obj) is not dict:
                raise SchemaError(f"/{number}", f"{member} line {number} is not a JSON object")
            if tuple(map(type, map(obj.get, names))) != kinds:
                key = next(k for k in names if type(obj.get(k)) is not keys[k])
                raise SchemaError(
                    f"/{number}/{key}",
                    f"{member} line {number} {key} is missing or not {keys[key].__name__}",
                )
            yield number, obj


_NODE_TYPES = {kind.value: kind for kind in NodeType}
_RELATION_TYPES = {rel.value: rel for rel in RelationType}


def load_graph(nodes_blob: bytes, edges_blob: bytes) -> TypedGraph:
    """The graph save_graph encoded as these two blobs. A line that is not
    such a record, an edge to no node, or an id given two payloads raises
    SchemaError.

    The graph holds one object per distinct value where the encoding
    repeats it: an edge's src and dst are the id strings that key
    ``graph.nodes``, and nodes and edges whose ``attrs["prov"]`` are equal
    (by ``repr``, which keeps 1, 1.0 and True apart) share one provenance
    dict. So a loaded graph's attrs are read-only: a change to one
    provenance would change every node and edge that shares it.
    """
    graph = TypedGraph()
    provs: dict[str, object] = {}

    def shared(attrs: dict) -> dict:
        if "prov" in attrs:
            attrs["prov"] = provs.setdefault(repr(attrs["prov"]), attrs["prov"])
        return attrs

    for number, obj in _records(nodes_blob, "nodes.jsonl", _NODE_KEYS):
        kind = _NODE_TYPES.get(obj["type"])
        if kind is None:
            raise SchemaError(
                f"/{number}/type", f"nodes.jsonl holds an unknown type {obj['type']!r}"
            )
        try:
            graph.add_node(Node(obj["id"], kind, obj["text"], shared(obj["attrs"])))
        except IdCollisionError as exc:
            raise SchemaError(f"/{number}", f"nodes.jsonl line {number}: {exc}") from None
    ids = {node_id: node_id for node_id in graph.nodes}
    for number, obj in _records(edges_blob, "edges.jsonl", _EDGE_KEYS):
        rel = _RELATION_TYPES.get(obj["rel"])
        if rel is None:
            raise SchemaError(
                f"/{number}/rel", f"edges.jsonl holds an unknown rel {obj['rel']!r}"
            )
        src, dst = obj["src"], obj["dst"]
        edge = Edge(obj["id"], ids.get(src, src), ids.get(dst, dst), rel, shared(obj["attrs"]))
        try:
            graph.add_edge(edge)
        except (ValueError, IdCollisionError) as exc:  # no such endpoint, or a reused id
            raise SchemaError(f"/{number}", f"edges.jsonl line {number}: {exc}") from None
    return graph


def graphs_equal(a: TypedGraph, b: TypedGraph) -> bool:
    return (
        {k: (n.type, n.text, n.attrs) for k, n in a.nodes.items()}
        == {k: (n.type, n.text, n.attrs) for k, n in b.nodes.items()}
        and {k: (e.src, e.dst, e.rel, e.attrs) for k, e in a.edges.items()}
        == {k: (e.src, e.dst, e.rel, e.attrs) for k, e in b.edges.items()}
    )
