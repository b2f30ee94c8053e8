"""Entropy statistics, merge deltas, and the two-level minimizer.

Every numeric expectation is either computed by the independent oracles in
conftest (plain textbook formulas over explicit edge lists) or asserted as a
frozen constant that those oracles produced. The minimizer's own output is
also pinned in ``golden/sem_minimize.json``: the partition, merges and h2
on three random graphs whose final merge pass splits a refined community,
and the sha256 of a small bundle's ``index.json``. Regenerate it only for
an intended change of behaviour, from the root of a checkout:

    PYTHONPATH=src python tests/test_sem_index.py

The minimizer's local move pricing, skipping refinement and merge table are
checked against the scanning references they replaced, which are kept here.
"""

import hashlib
import heapq
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_graph,
    node_labels,
    offline_summarizer,
    oracle_h1,
    oracle_h2,
    random_graph,
    two_k5_bridge,
    two_triangle_bridge,
)
from semrag.errors import EmptyGraph, InvalidPartition, NotADistribution, NotAdjacent
from semrag.graph_core import NodeType, RelationType, TypedGraph
from semrag.pipeline import build_bundle
from semrag.sem_index import (
    EPSILON,
    PartitionState,
    _community_adjacency,
    _dissolve,
    _fold_rows,
    _greedy_merge,
    _refine,
    delta_h2_merge,
    h1,
    h2,
    materialize_macronodes,
    replay_dendrogram,
    sem_minimize,
    shannon,
)
from semrag.synth import planted_graph, synthetic_corpus

# Frozen outputs of the conftest oracles on the two handmade graphs.
TRIANGLES_H1 = 2.556656707462823
TRIANGLES_MIN_H2 = 1.6995138503199656
K5_H1 = 3.3156678763770073
K5_MIN_H2 = 2.3632869239960543

GOLDEN_MINIMIZE = Path(__file__).parent / "golden" / "sem_minimize.json"
# random_graph(seed, n_max=40) graphs on which the last merge pass ends
# with more communities than refinement made (8 -> 9, 4 -> 5, 4 -> 5).
SPLIT_SEEDS = (6, 7, 80)


# ---------------------------------------------------------------------------
# shannon


def test_shannon_uniform_four_is_two_bits():
    assert shannon([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-12)


def test_shannon_point_mass_is_zero():
    assert shannon([1.0, 0.0, 0.0]) == 0.0


def test_shannon_rejects_empty_and_negative():
    with pytest.raises(NotADistribution):
        shannon([])
    with pytest.raises(NotADistribution):
        shannon([0.5, -0.5, 1.0])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12).filter(
        lambda ps: sum(ps) > 1e-9
    )
)
def test_shannon_bounded_by_log_support(ps):
    total = sum(ps)
    value = shannon([p / total for p in ps])
    assert -1e-9 <= value <= math.log2(len(ps)) + 1e-9


# ---------------------------------------------------------------------------
# h1 against the oracle


def test_h1_two_triangles_frozen():
    g, _ = two_triangle_bridge()
    assert h1(g) == pytest.approx(TRIANGLES_H1, abs=1e-12)


def test_h1_two_k5_frozen():
    g, _ = two_k5_bridge()
    assert h1(g) == pytest.approx(K5_H1, abs=1e-12)


def test_h1_empty_graph_raises():
    with pytest.raises(EmptyGraph):
        h1(TypedGraph())


@pytest.mark.parametrize("seed", range(40))
def test_h1_matches_oracle_on_random_graphs(seed):
    g, edges, n = random_graph(seed, n_max=30, allow_loops=(seed % 3 == 0))
    assert h1(g) == pytest.approx(oracle_h1(n, edges), abs=1e-9)


def test_h1_counts_self_loop_degree_twice():
    # One node with a self loop: volume 2, single degree 2, entropy 0.
    g = make_graph(1, [(0, 0)])
    assert h1(g) == pytest.approx(0.0, abs=1e-12)
    # Self loop plus a pendant edge: degrees (3, 1) over volume 4.
    g2 = make_graph(2, [(0, 0), (0, 1)])
    expected = -(3 / 4) * math.log2(3 / 4) - (1 / 4) * math.log2(1 / 4)
    assert h1(g2) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# h2 against the oracle


@pytest.mark.parametrize("seed", range(40))
def test_h2_matches_oracle_on_random_partitions(seed):
    g, edges, n = random_graph(seed, n_max=20, allow_loops=(seed % 4 == 0))
    rng = random.Random(seed * 7 + 1)
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    partition = {f"n{i}": labels[i] for i in range(n)}
    assert h2(g, partition) == pytest.approx(oracle_h2(n, edges, labels), abs=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_h2_identities_on_loop_free_graphs(seed):
    g, edges, n = random_graph(seed + 1000, n_max=30, allow_loops=False)
    base = h1(g)
    singles = {f"n{i}": i for i in range(n)}
    together = {f"n{i}": 0 for i in range(n)}
    assert h2(g, singles) == pytest.approx(base, abs=1e-9)
    assert h2(g, together) == pytest.approx(base, abs=1e-9)


def test_h2_rejects_partition_not_covering_nodes():
    g, _ = two_triangle_bridge()
    with pytest.raises(InvalidPartition):
        h2(g, {"n0": 0})
    full = {f"n{i}": 0 for i in range(6)}
    with pytest.raises(InvalidPartition):
        h2(g, {**full, "ghost": 1})


def test_h2_self_loop_never_counts_as_cut():
    # Two communities of one node each, one carrying a self loop; the loop
    # contributes to volume and intra degree but never to the boundary.
    g = make_graph(2, [(0, 0), (0, 1)])
    labels = [0, 1]
    partition = {"n0": 0, "n1": 1}
    assert h2(g, partition) == pytest.approx(oracle_h2(2, [(0, 0), (0, 1)], labels), abs=1e-12)


# ---------------------------------------------------------------------------
# PartitionState and merge deltas


def test_partition_state_h2_matches_function():
    g, edges = two_triangle_bridge()
    state = PartitionState.from_partition(g, {f"n{i}": i // 3 for i in range(6)})
    expected = h2(g, {f"n{i}": i // 3 for i in range(6)})
    assert state.h2() == pytest.approx(expected, abs=1e-12)


def test_merge_delta_k2_is_exactly_zero():
    # A single edge: merging the two singletons leaves the entropy untouched
    # because the intra gain and the boundary relief cancel exactly.
    g = make_graph(2, [(0, 1)])
    state = PartitionState.singletons(g)
    assert delta_h2_merge(state, 0, 1) == 0.0


def test_merge_delta_rejects_same_and_nonadjacent():
    g = make_graph(4, [(0, 1), (2, 3)])
    state = PartitionState.singletons(g)
    with pytest.raises(InvalidPartition):
        delta_h2_merge(state, 0, 0)
    with pytest.raises(NotAdjacent):
        delta_h2_merge(state, 0, 2)


@pytest.mark.parametrize("seed", range(60))
def test_merge_delta_matches_full_recompute(seed):
    g, edges, n = random_graph(seed + 2000, n_max=12, allow_loops=(seed % 5 == 0))
    state = PartitionState.singletons(g)
    labels0 = node_labels(g, state.partition_sets())
    before = oracle_h2(n, edges, labels0)
    pairs = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
    for a, b in pairs:
        ca, cb = state.node_comm[f"n{a}"], state.node_comm[f"n{b}"]
        if ca == cb:
            continue
        delta = delta_h2_merge(state, ca, cb)
        merged_labels = list(labels0)
        la, lb = merged_labels[a], merged_labels[b]
        merged_labels = [la if x == lb else x for x in merged_labels]
        after = oracle_h2(n, edges, merged_labels)
        assert delta == pytest.approx(after - before, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_merge_delta_consistent_along_random_merge_chains(seed):
    # Apply a random sequence of merges and verify each incremental delta
    # against the from-scratch recompute at every step.
    g, edges, n = random_graph(seed + 3000, n_max=12, allow_loops=(seed % 4 == 0))
    state = PartitionState.singletons(g)
    rng = random.Random(seed)
    current = oracle_h2(n, edges, node_labels(g, state.partition_sets()))
    for _ in range(n):
        live = sorted(state.members)
        candidates = [
            (a, b)
            for i, a in enumerate(live)
            for b in live[i + 1 :]
            if state.cross(a, b) > 0
        ]
        if not candidates:
            break
        a, b = rng.choice(candidates)
        delta = delta_h2_merge(state, a, b)
        state.merge(a, b)
        current += delta
        truth = oracle_h2(n, edges, node_labels(g, state.partition_sets()))
        assert current == pytest.approx(truth, abs=1e-9)
        assert state.h2() == pytest.approx(truth, abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_merging_communities_that_share_no_edge_never_lowers_h2(seed):
    # With cross = 0 the merged cut is g_a + g_b, and merge_delta reduces to
    #   delta = sum over i in {a, b} of (g_i - v_i) / V * log2(v_i / (v_a + v_b)).
    # A cut never exceeds its volume (g_i <= v_i) and v_i <= v_a + v_b, so
    # every term is >= 0: only adjacent pairs can improve h2, which is why
    # the merge loop never looks beyond community neighbours.
    g, _, n = random_graph(seed + 6000, n_max=20, allow_loops=(seed % 3 == 0))
    rng = random.Random(seed)
    k = rng.randrange(1, n + 1)
    state = PartitionState.from_partition(
        g, {f"n{i}": rng.randrange(k) for i in range(n)}
    )
    live = sorted(state.members)
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            if state.cross(a, b) == 0:
                assert state.merge_delta(a, b, 0) >= -EPSILON


# ---------------------------------------------------------------------------
# Local move pricing, refinement that skips unchanged work, and the merge
# loop's community table, each against the scanning code it replaced. The
# references apply a move to price it and revert it, and put comm_s back
# exactly afterwards (a bare revert leaves (s - t) + t rounding behind).


def _random_state(g, n: int, rng: random.Random) -> PartitionState:
    k = rng.randint(1, n)
    return PartitionState.from_partition(g, {f"n{i}": rng.randrange(k) for i in range(n)})


def _edges_into(state: PartitionState, nid: str, comm: int) -> int:
    return sum(m for other, m in state.adj[nid].items() if state.node_comm[other] == comm)


def _reference_apply(state: PartitionState, nid: str, source: int, target: int) -> None:
    d = state.deg[nid]
    d_out = d - 2 * state.loops[nid]
    s_term = d * math.log2(d) if d > 0 else 0.0
    e_src, e_dst = _edges_into(state, nid, source), _edges_into(state, nid, target)
    state.members[source].discard(nid)
    state.members[target].add(nid)
    state.node_comm[nid] = target
    state.comm_vol[source] -= d
    state.comm_vol[target] += d
    state.comm_s[source] -= s_term
    state.comm_s[target] += s_term
    state.comm_cut[source] += 2 * e_src - d_out
    state.comm_cut[target] -= 2 * e_dst - d_out


def _reference_move_delta(state: PartitionState, nid: str, target: int) -> float:
    source = state.node_comm[nid]
    saved = state.comm_s[source], state.comm_s[target]
    before = state.contribution(source) + state.contribution(target)
    _reference_apply(state, nid, source, target)
    after = state.contribution(source) + state.contribution(target)
    _reference_apply(state, nid, target, source)
    state.comm_s[source], state.comm_s[target] = saved
    return after - before


def _reference_move(state: PartitionState, nid: str, target: int) -> None:
    source = state.node_comm[nid]
    if target not in state.members:  # revived by a rollback
        state.members[target] = set()
        state.comm_vol[target] = state.comm_cut[target] = 0
        state.comm_s[target] = 0.0
    _reference_apply(state, nid, source, target)
    if not state.members[source]:
        for table in (state.members, state.comm_vol, state.comm_cut, state.comm_s):
            del table[source]


def _reference_refine(state: PartitionState, epsilon: float) -> None:
    """Every pass prices every node and trial-dissolves every community."""
    improved = True
    while improved:
        improved = False
        for nid in sorted(state.node_comm):
            source = state.node_comm[nid]
            best_delta, best_target = 0.0, None
            for target in sorted({state.node_comm[o] for o in state.adj[nid]} - {source}):
                delta = _reference_move_delta(state, nid, target)
                if delta < best_delta:
                    best_delta, best_target = delta, target
            if best_target is not None and best_delta < -epsilon:
                _reference_move(state, nid, best_target)
                improved = True
        for comm in sorted(state.members, key=lambda c: min(state.members[c])):
            if comm not in state.members or len(state.members[comm]) <= 1:
                continue
            saved = dict(state.comm_s)
            plan: list[str] = []
            total = 0.0
            feasible = True
            for nid in sorted(state.members[comm]):
                targets = sorted({state.node_comm[o] for o in state.adj[nid]} - {comm})
                if not targets:
                    feasible = False
                    break
                deltas = [_reference_move_delta(state, nid, t) for t in targets]
                best = min(range(len(targets)), key=deltas.__getitem__)
                plan.append(nid)
                total += deltas[best]
                _reference_move(state, nid, targets[best])
            if feasible and total < -epsilon:
                improved = True
            else:
                for nid in reversed(plan):
                    _reference_move(state, nid, comm)
                for c in state.comm_s:
                    state.comm_s[c] = saved[c]


def _reference_greedy_merge(state: PartitionState, epsilon: float) -> list:
    """The merge loop that scans members for neighbours and cross counts."""

    def neighbours(comm: int) -> set[int]:
        return {
            state.node_comm[o] for nid in state.members[comm] for o in state.adj[nid]
        } - {comm}

    heap = [
        (state.merge_delta(a, b), a, b)
        for a in sorted(state.members)
        for b in neighbours(a)
        if a < b
    ]
    heapq.heapify(heap)
    merges = []
    while heap:
        delta, a, b = heapq.heappop(heap)
        if a not in state.members or b not in state.members:
            continue
        if delta >= -epsilon:
            break
        merged = state.merge(a, b)
        merges.append((a, b, merged, delta))
        for other in sorted(neighbours(merged)):
            pair = (min(merged, other), max(merged, other))
            heapq.heappush(heap, (state.merge_delta(*pair), *pair))
    return merges


def _snapshot(state: PartitionState):
    return (
        {c: frozenset(ns) for c, ns in state.members.items()},
        dict(state.node_comm),
        dict(state.comm_vol),
        dict(state.comm_cut),
        {c: s.hex() for c, s in state.comm_s.items()},
    )


@settings(deadline=None)
@given(st.integers(0, 10**6))
def test_move_delta_matches_apply_and_revert_reference(seed):
    g, _, n = random_graph(seed, n_max=14, allow_loops=(seed % 3 == 0))
    state = _random_state(g, n, random.Random(seed))
    partition = dict(state.node_comm)
    base = h2(g, partition)
    for nid in sorted(partition):
        for target in sorted(set(state.members) - {partition[nid]}):
            delta = state.move_delta(nid, target)
            assert delta.hex() == _reference_move_delta(state, nid, target).hex()
            assert abs(delta - (h2(g, {**partition, nid: target}) - base)) <= 1e-12


@settings(deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_refine_matches_full_rescan_reference(seed, from_merge):
    g, _, n = random_graph(seed, n_max=40, allow_loops=(seed % 3 == 0))

    def start() -> PartitionState:
        if not from_merge:
            return _random_state(g, n, random.Random(seed))
        state = PartitionState.singletons(g)
        _greedy_merge(state, EPSILON)
        return state

    fast, slow = start(), start()
    _refine(fast, EPSILON)
    _reference_refine(slow, EPSILON)
    assert fast.partition_sets() == slow.partition_sets()
    assert _snapshot(fast) == _snapshot(slow)


@settings(deadline=None)
@given(st.integers(0, 10**6))
def test_pricing_and_rejected_dissolution_leave_statistics_bit_identical(seed):
    g, _, n = random_graph(seed, n_max=30, allow_loops=(seed % 3 == 0))
    state = _random_state(g, n, random.Random(seed))
    before = _snapshot(state)
    for nid in sorted(state.node_comm):
        counts = state.edge_counts(nid)
        state.move_deltas(nid, counts, sorted(counts))
        for target in sorted(state.members):
            state.move_delta(nid, target)
    assert _snapshot(state) == before
    for comm in sorted(state.members):
        if comm in state.members and len(state.members[comm]) > 1:
            before = _snapshot(state)
            if not _dissolve(state, comm, EPSILON):
                assert _snapshot(state) == before


@settings(deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_merge_table_matches_scanned_cross_after_every_merge(seed, grouped):
    g, _, n = random_graph(seed, n_max=16, allow_loops=(seed % 3 == 0))
    rng = random.Random(seed)
    group_of = {f"n{i}": rng.randrange(3) for i in range(n)} if grouped else None
    state = PartitionState.singletons(g)
    rows = _community_adjacency(state, group_of)

    def mergeable(a: int, b: int) -> bool:
        if group_of is None:
            return True
        return group_of[min(state.members[a])] == group_of[min(state.members[b])]

    def check() -> None:
        assert set(rows) == set(state.members)
        for a in state.members:
            for b in state.members:
                expected = state.cross(a, b) if a != b and mergeable(a, b) else 0
                assert rows[a].get(b, 0) == expected
                assert rows[a].get(b) != 0

    check()
    while any(rows.values()):
        a = rng.choice(sorted(c for c, row in rows.items() if row))
        b = rng.choice(sorted(rows[a]))
        merged = state.merge(a, b, rows[a][b])
        _fold_rows(rows, a, b, merged)
        check()


@settings(deadline=None)
@given(st.integers(0, 10**6))
def test_merge_loop_matches_scanning_reference(seed):
    g, _, _ = random_graph(seed, n_max=40, allow_loops=(seed % 3 == 0))
    fast, slow = PartitionState.singletons(g), PartitionState.singletons(g)
    merges = [(m.a, m.b, m.merged, m.delta.hex()) for m in _greedy_merge(fast, EPSILON)]
    expected = [(a, b, c, d.hex()) for a, b, c, d in _reference_greedy_merge(slow, EPSILON)]
    assert merges == expected
    assert _snapshot(fast) == _snapshot(slow)


# ---------------------------------------------------------------------------
# sem_minimize


def test_minimize_two_triangles_recovers_cliques():
    g, _ = two_triangle_bridge()
    result = sem_minimize(g)
    communities = {frozenset(m) for m in result.communities.values()}
    assert communities == {
        frozenset({"n0", "n1", "n2"}),
        frozenset({"n3", "n4", "n5"}),
    }
    assert result.h2 == pytest.approx(TRIANGLES_MIN_H2, abs=1e-9)
    assert result.h1 == pytest.approx(TRIANGLES_H1, abs=1e-12)


def test_minimize_two_k5_recovers_cliques():
    g, _ = two_k5_bridge()
    result = sem_minimize(g)
    communities = {frozenset(m) for m in result.communities.values()}
    assert communities == {
        frozenset({f"n{i}" for i in range(5)}),
        frozenset({f"n{i}" for i in range(5, 10)}),
    }
    assert result.h2 == pytest.approx(K5_MIN_H2, abs=1e-9)


@pytest.mark.parametrize("n_communities", [50, 200])
def test_minimize_recovers_a_planted_partition(n_communities):
    size = 8
    g = planted_graph(n_communities, size)
    # the cliques, the bridge ring and n_communities // 10 cross edges
    assert len(g.edges) == n_communities * (size * (size - 1) // 2 + 1) + n_communities // 10
    communities = {frozenset(m) for m in sem_minimize(g).communities.values()}
    # node v is planted in community v // size
    assert communities == {
        frozenset(f"v{c * size + i:06d}" for i in range(size)) for c in range(n_communities)
    }


@pytest.mark.parametrize("seed", range(25))
def test_minimize_invariants_on_random_graphs(seed):
    g, edges, n = random_graph(seed + 4000, n_max=25, allow_loops=(seed % 6 == 0))
    result = sem_minimize(g)
    # Every recorded merge strictly lowers the entropy.
    for step in result.dendrogram:
        assert step.delta < 0.0
    # The final entropy never exceeds the flat entropy and matches a full
    # recompute from the reported partition.
    assert result.h2 <= result.h1 + 1e-12
    labels = [result.partition[f"n{i}"] for i in range(n)]
    assert result.h2 == pytest.approx(oracle_h2(n, edges, labels), abs=1e-9)
    assert result.h1 == pytest.approx(oracle_h1(n, edges), abs=1e-9)


@pytest.mark.parametrize("seed", range(15))
def test_dendrogram_replay_reaches_final_partition(seed):
    g, _, _ = random_graph(seed + 5000, n_max=25, allow_loops=False)
    result = sem_minimize(g)
    replayed = replay_dendrogram(g, result.dendrogram)
    final = {frozenset(m) for m in result.communities.values()}
    assert replayed == final


def test_partition_keys_are_smallest_member_ids():
    g, _ = two_triangle_bridge()
    result = sem_minimize(g)
    for key, members in result.communities.items():
        assert key == min(members)
        for nid in members:
            assert result.partition[nid] == key


def test_minimize_empty_graph_raises():
    with pytest.raises(EmptyGraph):
        sem_minimize(TypedGraph())


def test_minimize_is_deterministic():
    g, _ = two_k5_bridge()
    first = sem_minimize(g)
    second = sem_minimize(g)
    assert first.partition == second.partition
    assert [
        (m.a, m.b, m.merged) for m in first.dendrogram
    ] == [(m.a, m.b, m.merged) for m in second.dendrogram]


def _minimize_record(result) -> dict:
    return {
        "partition": result.partition,
        "merges": [[m.a, m.b, m.merged] for m in result.dendrogram],
        "h2": result.h2,
    }


def _index_json_sha256(out: Path) -> str:
    corpus = synthetic_corpus(n_docs=3, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, out)
    return hashlib.sha256((out / "index.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SPLIT_SEEDS)
def test_minimize_matches_golden_where_the_last_pass_splits(seed):
    expected = json.loads(GOLDEN_MINIMIZE.read_text("utf-8"))["random_graph"][str(seed)]
    g, _, _ = random_graph(seed, n_max=40)
    result = sem_minimize(g)
    assert _minimize_record(result) == expected
    assert replay_dendrogram(g, result.dendrogram) == {
        frozenset(m) for m in result.communities.values()
    }
    assert all(step.delta < 0.0 for step in result.dendrogram)
    refined = PartitionState.singletons(g)
    _greedy_merge(refined, EPSILON)
    _refine(refined, EPSILON)
    assert len(result.communities) > len(refined.members)


def test_index_json_matches_golden(tmp_path):
    expected = json.loads(GOLDEN_MINIMIZE.read_text("utf-8"))["index_json_sha256"]
    assert _index_json_sha256(tmp_path) == expected


# ---------------------------------------------------------------------------
# macro node materialization


def _lettered_graph():
    g, _ = two_triangle_bridge()
    return g


def test_materialize_attaches_one_macro_per_community():
    g = _lettered_graph()
    result = sem_minimize(g)
    macro_ids = materialize_macronodes(g, result, offline_summarizer())
    assert len(macro_ids) == len(result.communities)
    for mid in macro_ids:
        node = g.nodes[mid]
        assert node.type is NodeType.MACRO_NODE
        assert node.text


def test_materialize_twice_replaces_instead_of_duplicating():
    g = _lettered_graph()
    result = sem_minimize(g)
    first = materialize_macronodes(g, result, offline_summarizer())
    second = materialize_macronodes(g, result, offline_summarizer())
    assert first == second
    macros = [n for n in g.nodes_of_type(NodeType.MACRO_NODE)]
    assert len(macros) == len(result.communities)


def test_membership_edges_connect_members_to_their_macro():
    g = _lettered_graph()
    result = sem_minimize(g)
    macro_ids = set(materialize_macronodes(g, result, offline_summarizer()))
    for key, members in result.communities.items():
        macro_id = f"macro:{key}"
        assert macro_id in macro_ids
        linked = {
            e.src for e in g.in_edges[macro_id] if e.rel is RelationType.MEMBER_OF
        }
        assert linked == set(members)


def _write_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sha = _index_json_sha256(Path(tmp))
    graphs = []
    for seed in SPLIT_SEEDS:
        record = _minimize_record(sem_minimize(random_graph(seed, n_max=40)[0]))
        graphs.append(f'  "{seed}": {json.dumps(record, sort_keys=True)}')
    text = (
        f'{{\n "index_json_sha256": "{sha}",\n "random_graph": {{\n'
        + ",\n".join(graphs)
        + "\n }\n}\n"
    )
    GOLDEN_MINIMIZE.parent.mkdir(exist_ok=True)
    GOLDEN_MINIMIZE.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN_MINIMIZE}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden()
