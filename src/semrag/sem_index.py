"""Entropy-guided two-level index over the typed graph.

The indexer partitions the graph into communities by minimizing two-level
structural entropy with one merge loop run twice. The first run merges
freely from singletons; refinement by single-node moves and community
dissolution then improves its partition. The second run merges again from
singletons, only inside the refined communities: its strictly improving
merges are the dendrogram, and its endpoint, which may split a refined
community, is the result. materialize_macronodes attaches one summary
node per final community, the index's one level above the nodes; its
members are the sources of its membership edges, which it does not list
again. A MinimizeResult's h1 and h2 are taken before macros are attached.

Nothing is applied just to price it. A merge is priced from the two
communities' volumes, cuts and edge multiplicity, which the merge loop
keeps in a table it folds on each merge. A move is priced from the node's
edge counts into its neighbouring communities and their statistics, in the
same operations as applying it would take, so every delta and every tie
is what the apply-and-difference computation gives. Refinement prices
again only what a committed move or dissolution touched.

Degrees are taken on the undirected projection where a self-loop adds two;
self-loops never cross a community boundary, so they shape the intra terms
but never the cut terms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import (
    EmptyGraph,
    InvalidPartition,
    NotAdjacent,
    NotADistribution,
    SummarizerError,
)
from .graph_core import Edge, Node, NodeType, RelationType, TypedGraph

EPSILON = 1e-12
PROB_TOLERANCE = 1e-9


def shannon(probabilities: Iterable[float]) -> float:
    """Entropy in bits of a discrete distribution; zero mass contributes zero."""
    ps = list(probabilities)
    if not ps:
        raise NotADistribution("a distribution needs at least one probability")
    if any(p < 0 for p in ps):
        raise NotADistribution(f"negative probability in {ps}")
    total = sum(ps)
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise NotADistribution(f"probabilities sum to {total}, expected 1")
    return -sum(p * math.log2(p) for p in ps if p > 0)


# --- flat and two-level entropy ---------------------------------------------

def _degree_data(g: TypedGraph):
    """Per-node degree, self-loop count, and aggregated neighbor multiplicities."""
    deg: dict[str, int] = {nid: 0 for nid in g.nodes}
    loops: dict[str, int] = {nid: 0 for nid in g.nodes}
    adj: dict[str, dict[str, int]] = {nid: {} for nid in g.nodes}
    for edge in g.edges:
        if edge.src == edge.dst:
            deg[edge.src] += 2
            loops[edge.src] += 1
        else:
            deg[edge.src] += 1
            deg[edge.dst] += 1
            adj[edge.src][edge.dst] = adj[edge.src].get(edge.dst, 0) + 1
            adj[edge.dst][edge.src] = adj[edge.dst].get(edge.src, 0) + 1
    return deg, loops, adj


def h1(g: TypedGraph) -> float:
    """Flat structural entropy of the undirected degree distribution, in bits."""
    if not g.edges:
        raise EmptyGraph("flat entropy requires at least one edge")
    deg, _, _ = _degree_data(g)
    total = float(sum(deg.values()))
    return -sum(
        (d / total) * math.log2(d / total) for d in deg.values() if d > 0
    )


def _check_partition(g: TypedGraph, partition: dict[str, object]) -> None:
    if set(partition) != set(g.nodes):
        missing = sorted(set(g.nodes) - set(partition))[:3]
        extra = sorted(set(partition) - set(g.nodes))[:3]
        raise InvalidPartition(
            f"partition must cover the nodes exactly (missing {missing}, extra {extra})"
        )


def h2(g: TypedGraph, partition: dict[str, object]) -> float:
    """Two-level structural entropy of the partition, in bits.

    Sum over communities of the volume-weighted internal degree entropy,
    plus the boundary term charging each cross edge for the depth of the
    community it enters. Collapses to h1 when every node shares one
    community.
    """
    if not g.edges:
        raise EmptyGraph("two-level entropy requires at least one edge")
    _check_partition(g, partition)
    deg, _, _ = _degree_data(g)
    total = float(sum(deg.values()))
    members: dict[object, list[str]] = {}
    for nid, label in partition.items():
        members.setdefault(label, []).append(nid)
    cut: dict[object, int] = {label: 0 for label in members}
    for edge in g.edges:
        if edge.src == edge.dst:
            continue
        a, b = partition[edge.src], partition[edge.dst]
        if a != b:
            cut[a] += 1
            cut[b] += 1
    value = 0.0
    for label, nodes in members.items():
        vol = sum(deg[n] for n in nodes)
        if vol == 0:
            continue
        intra = -sum(
            (deg[n] / vol) * math.log2(deg[n] / vol) for n in nodes if deg[n] > 0
        )
        value += (vol / total) * intra
        value -= (cut[label] / total) * math.log2(vol / total)
    return value


# --- incremental state ------------------------------------------------------

@dataclass
class PartitionState:
    """Per-community sufficient statistics for exact merge and move deltas.

    Per community: volume, boundary edge count, and the degree-weighted log
    sum that closes the intra term. The identity used throughout:
    contribution(C) = (Vc*log2(Vc) - S_C - g_C*(log2(Vc) - log2(V))) / V
    and h2 is the sum of contributions.

    A merge delta is O(1) given the two communities' edge multiplicity;
    cross() finds it by scanning the smaller community, and the merge loop
    keeps its own table instead. A move delta reads the node's edge counts
    into its neighbouring communities, one pass over its neighbours, and
    those communities' statistics; nothing is moved to price a move.
    """

    volume: float
    deg: dict[str, int]
    loops: dict[str, int]
    adj: dict[str, dict[str, int]]
    node_comm: dict[str, int]
    members: dict[int, set[str]]
    comm_vol: dict[int, int]
    comm_cut: dict[int, int]
    comm_s: dict[int, float]
    next_id: int

    @classmethod
    def from_partition(cls, g: TypedGraph, partition: dict[str, int]) -> "PartitionState":
        if not g.edges:
            raise EmptyGraph("partition state requires at least one edge")
        _check_partition(g, partition)
        deg, loops, adj = _degree_data(g)
        members: dict[int, set[str]] = {}
        for nid, label in partition.items():
            members.setdefault(label, set()).add(nid)
        comm_vol = {c: sum(deg[n] for n in ns) for c, ns in members.items()}
        comm_s = {
            c: sum(deg[n] * math.log2(deg[n]) for n in ns if deg[n] > 0)
            for c, ns in members.items()
        }
        comm_cut = {c: 0 for c in members}
        for edge in g.edges:
            if edge.src == edge.dst:
                continue
            a, b = partition[edge.src], partition[edge.dst]
            if a != b:
                comm_cut[a] += 1
                comm_cut[b] += 1
        return cls(
            volume=float(sum(deg.values())),
            deg=deg,
            loops=loops,
            adj=adj,
            node_comm=dict(partition),
            members=members,
            comm_vol=comm_vol,
            comm_cut=comm_cut,
            comm_s=comm_s,
            next_id=max(members) + 1 if members else 0,
        )

    @classmethod
    def singletons(cls, g: TypedGraph) -> "PartitionState":
        order = sorted(g.nodes)
        return cls.from_partition(g, {nid: i for i, nid in enumerate(order)})

    def _contribution(self, vol: int, s: float, cut: int) -> float:
        if vol <= 0:
            return 0.0
        return (
            vol * math.log2(vol)
            - s
            - cut * (math.log2(vol) - math.log2(self.volume))
        ) / self.volume

    def contribution(self, comm: int) -> float:
        return self._contribution(self.comm_vol[comm], self.comm_s[comm], self.comm_cut[comm])

    def h2(self) -> float:
        return sum(self.contribution(c) for c in self.members)

    def cross(self, a: int, b: int) -> int:
        """Edge multiplicity between two communities; O(smaller boundary)."""
        members_a, members_b = self.members[a], self.members[b]
        if len(members_a) > len(members_b):
            members_a, members_b = members_b, members_a
        count = 0
        for nid in members_a:
            for other, mult in self.adj[nid].items():
                if other in members_b:
                    count += mult
        return count

    def merge_delta(self, a: int, b: int, cross: Optional[int] = None) -> float:
        """Exact change in h2 from merging communities a and b."""
        if cross is None:
            cross = self.cross(a, b)
        v = self.volume
        va, vb = self.comm_vol[a], self.comm_vol[b]
        ga, gb = self.comm_cut[a], self.comm_cut[b]
        vm = va + vb
        gm = ga + gb - 2 * cross
        delta = 0.0
        if vm > 0:
            delta -= (gm / v) * math.log2(vm / v)
        if va > 0:
            delta += (ga / v) * math.log2(va / v)
            delta -= (va / v) * math.log2(va / vm)
        if vb > 0:
            delta += (gb / v) * math.log2(vb / v)
            delta -= (vb / v) * math.log2(vb / vm)
        return delta

    def merge(self, a: int, b: int, cross: Optional[int] = None) -> int:
        if cross is None:
            cross = self.cross(a, b)
        merged = self.next_id
        self.next_id += 1
        self.members[merged] = self.members.pop(a) | self.members.pop(b)
        for nid in self.members[merged]:
            self.node_comm[nid] = merged
        self.comm_vol[merged] = self.comm_vol.pop(a) + self.comm_vol.pop(b)
        self.comm_s[merged] = self.comm_s.pop(a) + self.comm_s.pop(b)
        self.comm_cut[merged] = self.comm_cut.pop(a) + self.comm_cut.pop(b) - 2 * cross
        return merged

    def edge_counts(self, nid: str) -> dict[int, int]:
        """Multiplicity of the node's non-loop edges into each community."""
        node_comm = self.node_comm
        counts: dict[int, int] = {}
        for other, mult in self.adj[nid].items():
            comm = node_comm[other]
            counts[comm] = counts.get(comm, 0) + mult
        return counts

    def move_deltas(
        self, nid: str, counts: dict[int, int], targets: Iterable[int]
    ) -> list[float]:
        """Exact change in h2 from moving the node into each target.

        counts is edge_counts(nid). Each delta evaluates the contribution
        formula on the source's and the target's statistics before and
        after the move, the same values in the same order as applying the
        move would give, so it is bit-identical to that difference.
        """
        source = self.node_comm[nid]
        d = self.deg[nid]
        d_out = d - 2 * self.loops[nid]
        s_term = d * math.log2(d) if d > 0 else 0.0
        contribution = self._contribution
        vol, s, cut = self.comm_vol[source], self.comm_s[source], self.comm_cut[source]
        source_before = contribution(vol, s, cut)
        source_after = contribution(vol - d, s - s_term, cut + 2 * counts.get(source, 0) - d_out)
        deltas = []
        for target in targets:
            vol, s, cut = self.comm_vol[target], self.comm_s[target], self.comm_cut[target]
            before = source_before + contribution(vol, s, cut)
            after = source_after + contribution(
                vol + d, s + s_term, cut - (2 * counts.get(target, 0) - d_out)
            )
            deltas.append(after - before)
        return deltas

    def move_delta(self, nid: str, target: int) -> float:
        if self.node_comm[nid] == target:
            return 0.0
        return self.move_deltas(nid, self.edge_counts(nid), (target,))[0]

    def move(self, nid: str, target: int, counts: dict[int, int]) -> None:
        """Move the node into another live community; counts is edge_counts(nid)."""
        source = self.node_comm[nid]
        # adj holds no self entries, so these counts exclude self-loops and
        # (for the source side) the node's own former membership
        d = self.deg[nid]
        d_out = d - 2 * self.loops[nid]
        s_term = d * math.log2(d) if d > 0 else 0.0
        self.members[source].discard(nid)
        self.members[target].add(nid)
        self.node_comm[nid] = target
        self.comm_vol[source] -= d
        self.comm_vol[target] += d
        self.comm_s[source] -= s_term
        self.comm_s[target] += s_term
        self.comm_cut[source] += 2 * counts.get(source, 0) - d_out
        self.comm_cut[target] -= 2 * counts.get(target, 0) - d_out
        if not self.members[source]:
            del self.members[source]
            del self.comm_vol[source]
            del self.comm_cut[source]
            del self.comm_s[source]

    def partition_sets(self) -> set[frozenset[str]]:
        return {frozenset(ns) for ns in self.members.values()}

    def labels_by_min_member(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for ns in self.members.values():
            key = min(ns)
            for nid in ns:
                out[nid] = key
        return out


def delta_h2_merge(state: PartitionState, a: int, b: int) -> float:
    """Public merge delta; requires two distinct communities sharing an edge."""
    if a == b or a not in state.members or b not in state.members:
        raise InvalidPartition(f"communities {a} and {b} are not two live communities")
    cross = state.cross(a, b)
    if cross == 0:
        raise NotAdjacent(f"communities {a} and {b} share no edge")
    return state.merge_delta(a, b, cross)


# --- minimization -----------------------------------------------------------

@dataclass(frozen=True)
class Merge:
    """One strictly improving dendrogram step: a + b -> merged."""

    a: int
    b: int
    merged: int
    delta: float


@dataclass
class MinimizeResult:
    """Final partition with its certifying dendrogram.

    partition maps node id to a stable community key (the smallest member
    id); communities, derived from it, maps each key to its sorted
    members. Replaying the dendrogram from singletons reaches exactly this
    partition. Every merge lowered h2 by more than EPSILON. A bundle does
    not record the dendrogram, so an index that load_bundle decodes has an
    empty one.
    """

    partition: dict[str, str]
    dendrogram: list[Merge]
    h1: float
    h2: float
    communities: dict[str, list[str]] = field(init=False)

    def __post_init__(self) -> None:
        self.communities = {}
        for nid, key in self.partition.items():
            self.communities.setdefault(key, []).append(nid)
        for members in self.communities.values():
            members.sort()


def _community_adjacency(
    state: PartitionState, group_of: Optional[dict[str, str]] = None
) -> dict[int, dict[int, int]]:
    """For each community, its edge multiplicity with each adjacent one.

    With group_of (node id to group key, constant on each community), only
    pairs of communities in one group are listed.
    """
    rows: dict[int, dict[int, int]] = {comm: {} for comm in state.members}
    for nid, neighbours in state.adj.items():
        comm = state.node_comm[nid]
        row = rows[comm]
        for other, mult in neighbours.items():
            c = state.node_comm[other]
            if c != comm and (group_of is None or group_of[other] == group_of[nid]):
                row[c] = row.get(c, 0) + mult
    return rows


def _fold_rows(rows: dict[int, dict[int, int]], a: int, b: int, merged: int) -> None:
    """Replace the rows of a and b by one row for merged, folding the
    smaller row into the larger, and rename a and b to merged in each
    neighbour's row."""
    big, small = rows.pop(a), rows.pop(b)
    if len(big) < len(small):
        big, small = small, big
    big.pop(a, None)
    big.pop(b, None)
    for comm, mult in small.items():
        if comm != a and comm != b:
            big[comm] = big.get(comm, 0) + mult
    for comm, mult in big.items():
        row = rows[comm]
        row.pop(a, None)
        row.pop(b, None)
        row[merged] = mult
    rows[merged] = big


def _greedy_merge(
    state: PartitionState,
    epsilon: float,
    group_of: Optional[dict[str, str]] = None,
) -> list[Merge]:
    """Largest-decrease-first pairwise merging with a lazily invalidated heap.

    With group_of (node id to group key, constant on each community of the
    starting state), only two communities of one group may merge. Returns
    the merges made, each of which lowered h2 by more than epsilon. The
    table of mergeable adjacent pairs is built once and folded on each
    merge, so a pair's cross count is a lookup.
    """
    rows = _community_adjacency(state, group_of)
    heap: list[tuple[float, int, int]] = []
    for comm in sorted(state.members):
        for other, cross in rows[comm].items():
            if comm < other:
                heap.append((state.merge_delta(comm, other, cross), comm, other))
    heapq.heapify(heap)
    merges: list[Merge] = []
    while heap:
        delta, a, b = heapq.heappop(heap)
        if a not in state.members or b not in state.members:
            continue  # stale: a side was already merged away
        if delta >= -epsilon:
            break
        merged = state.merge(a, b, rows[a][b])
        merges.append(Merge(a, b, merged, delta))
        _fold_rows(rows, a, b, merged)
        # every key is a distinct (delta, a, b) pair, so push order is moot
        for other, cross in rows[merged].items():
            lo, hi = min(merged, other), max(merged, other)
            heapq.heappush(heap, (state.merge_delta(lo, hi, cross), lo, hi))
    return merges


def _best_move(
    state: PartitionState, nid: str, counts: dict[int, int]
) -> tuple[Optional[int], Optional[float]]:
    """Lowest-delta move into a neighbouring community, the smallest id on a
    tie; (None, None) when every neighbour shares the node's community."""
    source = state.node_comm[nid]
    targets = sorted(c for c in counts if c != source)
    if not targets:
        return None, None
    best_delta, best_target = None, None
    for target, delta in zip(targets, state.move_deltas(nid, counts, targets)):
        if best_delta is None or delta < best_delta:
            best_delta, best_target = delta, target
    return best_target, best_delta


def _dissolve(state: PartitionState, comm: int, epsilon: float) -> list[int]:
    """Move each member of comm, in id order, to its best neighbouring
    community. Keep the moves if their summed delta lowers h2 by more than
    epsilon and return the communities they touched; otherwise put the
    members back, give every touched community its statistics back
    exactly, and return []."""
    saved = {comm: (state.comm_vol[comm], state.comm_cut[comm], state.comm_s[comm])}
    moved: list[str] = []
    total = 0.0
    for nid in sorted(state.members[comm]):
        counts = state.edge_counts(nid)
        best_target, best_delta = _best_move(state, nid, counts)
        if best_target is None:
            break
        if best_target not in saved:
            saved[best_target] = (
                state.comm_vol[best_target],
                state.comm_cut[best_target],
                state.comm_s[best_target],
            )
        moved.append(nid)
        total += best_delta
        state.move(nid, best_target, counts)
    else:
        if total < -epsilon:
            return list(saved)
    members = state.members.setdefault(comm, set())
    for nid in moved:
        state.members[state.node_comm[nid]].discard(nid)
        members.add(nid)
        state.node_comm[nid] = comm
    for c, (vol, cut, s) in saved.items():
        state.comm_vol[c], state.comm_cut[c], state.comm_s[c] = vol, cut, s
    return []


def _refine(state: PartitionState, epsilon: float) -> None:
    """Single-node moves plus community dissolution until a quiet pass.

    A pass offers each node, in id order, its best move, and then tries to
    dissolve each community, in order of smallest member, by moving every
    member to its best neighbouring community; the dissolution is kept if
    its summed delta lowers h2 by more than epsilon and rolled back exactly
    otherwise.

    Work whose inputs did not change is skipped. Each committed change (a
    single move, or a kept dissolution) stamps the communities it touched
    with a new clock value. A node is priced only if its community, or a
    community it has an edge into, was stamped since it was last priced; a
    dissolution is tried only if the community, or one adjacent to a
    member, was stamped since its last failed trial. A price reads the
    node's edge counts and the statistics of its own and its neighbours'
    communities, and any change to those stamps a community the node
    touches now, so a skipped item would price to the same deltas and make
    the same choice: no move, or a failed trial. Skipping is exact.
    """
    node_comm, adj = state.node_comm, state.adj
    order = sorted(node_comm)
    stamp = dict.fromkeys(state.members, 0)  # community -> clock of its last change
    priced = dict.fromkeys(order, -1)  # node -> clock when last priced
    tried: dict[int, int] = {}  # community -> clock of its last failed dissolution
    clock = 0

    improved = True
    while improved:
        improved = False
        for nid in order:
            seen = priced[nid]
            if stamp[node_comm[nid]] <= seen and all(
                stamp[node_comm[o]] <= seen for o in adj[nid]
            ):
                continue
            priced[nid] = clock
            counts = state.edge_counts(nid)
            best_target, best_delta = _best_move(state, nid, counts)
            if best_target is not None and best_delta < -epsilon:
                source = node_comm[nid]
                state.move(nid, best_target, counts)
                clock += 1
                stamp[source] = stamp[best_target] = clock
                improved = True
        for comm in sorted(state.members, key=lambda c: min(state.members[c])):
            if comm not in state.members or len(state.members[comm]) <= 1:
                continue
            seen = tried.get(comm, -1)
            if stamp[comm] <= seen and all(
                stamp[node_comm[o]] <= seen for nid in state.members[comm] for o in adj[nid]
            ):
                continue
            touched = _dissolve(state, comm, epsilon)
            if touched:
                clock += 1
                for c in touched:
                    stamp[c] = clock
                improved = True
            else:
                tried[comm] = clock


def sem_minimize(g: TypedGraph) -> MinimizeResult:
    """Partition the graph by minimizing two-level structural entropy.

    One merge loop runs twice. It first merges freely from singletons;
    refinement by single-node moves and community dissolution then lowers
    h2 further. The loop then runs again from fresh singletons, merging
    only inside a refined community. Its merges are the dendrogram and its
    endpoint is the result, which may split a refined community where no
    strictly improving merge joins its parts. Deterministic for a given
    graph: ties break on community ids, nodes are visited in sorted order.
    """
    if not g.edges:
        raise EmptyGraph("minimization requires at least one edge")
    state = PartitionState.singletons(g)
    _greedy_merge(state, EPSILON)
    _refine(state, EPSILON)
    final_state = PartitionState.singletons(g)
    merges = _greedy_merge(final_state, EPSILON, group_of=state.labels_by_min_member())
    partition = final_state.labels_by_min_member()
    return MinimizeResult(
        partition=partition,
        dendrogram=merges,
        h1=h1(g),
        h2=final_state.h2(),
    )


def replay_dendrogram(g: TypedGraph, dendrogram: list[Merge]) -> set[frozenset[str]]:
    """Re-run recorded merges from singletons; returns the partition reached."""
    order = sorted(g.nodes)
    members: dict[int, set[str]] = {i: {nid} for i, nid in enumerate(order)}
    next_id = len(order)
    for step in dendrogram:
        if step.a not in members or step.b not in members or step.merged != next_id:
            raise InvalidPartition(
                f"dendrogram step {step} does not apply to the current state"
            )
        members[next_id] = members.pop(step.a) | members.pop(step.b)
        next_id += 1
    return {frozenset(ns) for ns in members.values()}


# --- macro materialization --------------------------------------------------

SUMMARY_BUDGET_TOKENS = 500

Summarize = Callable[[str, int], tuple[str, int]]


def community_text(g: TypedGraph, members: list[str]) -> str:
    """Member texts joined by newlines, highest degree first, ties by id.

    Operator nodes that carry a rendered expression contribute that
    expression instead of their bare symbol, so formula communities read
    as equations rather than punctuation.
    """
    ranked = sorted(members, key=lambda nid: (-g.degree(nid), nid))
    parts = []
    for nid in ranked:
        node = g.nodes[nid]
        text = node.attrs.get("expr") or node.text
        if text:
            parts.append(text)
    return "\n".join(parts)


def materialize_macronodes(
    g: TypedGraph,
    index: MinimizeResult,
    summarize: Summarize,
    budget_tokens: int = SUMMARY_BUDGET_TOKENS,
) -> list[str]:
    """Attach one summary node per community to a graph that holds none yet.

    Each macro node's id is derived from its community key, and its attrs
    hold that key and the tokens its summary used. Members point at their
    macro with membership edges, the one record of who the members are
    and how many. A node belongs to one community, so no membership edge
    is attached before its community's text is read, and members rank by
    the degrees the index was built on.
    """
    macro_ids = []
    for key in sorted(index.communities):
        members = index.communities[key]
        macro_id = f"macro:{key}"
        text = community_text(g, members)
        try:
            summary, tokens_used = summarize(text, budget_tokens)
        except Exception as exc:
            raise SummarizerError(key, exc) from exc
        g.add_node(
            Node(
                macro_id,
                NodeType.MACRO_NODE,
                summary,
                {"community": key, "tokens_used": tokens_used},
            )
        )
        for nid in members:
            g.add_edge(Edge(nid, macro_id, RelationType.MEMBER_OF))
        macro_ids.append(macro_id)
    return macro_ids
