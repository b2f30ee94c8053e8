"""Token accounting: summary context against per-level prompting.

The hierarchical side pays for the summaries a query actually reads: at
most k community summaries of at most the per-summary budget each, so its
cost is bounded by k times that budget no matter how large the corpus
grows. The naive side pays a full prompt for every community at every
level of the hierarchy, so it grows with both corpus size and hierarchy
depth. ``semrag bench-indexing`` prints this comparison over planted
corpora of growing size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from .graph_core import NodeType, TypedGraph
from .llm_clients import offline_summarize
from .sem_index import MinimizeResult, materialize_macronodes

DEFAULT_SUMMARY_TOKENS = 500
DEFAULT_PROMPT_TOKENS = 500
DEFAULT_CONTEXT_SUMMARIES = 5


# --- summary token accounting -----------------------------------------------

def _ranked_communities(result: MinimizeResult) -> list[str]:
    """Community keys largest first, ties by key; the heaviest plausible
    query context is the first k of these."""
    return sorted(result.communities, key=lambda k: (-len(result.communities[k]), k))


def simulate_baseline_hierarchy(
    level_sizes: Sequence[int], prompt_tokens: int = DEFAULT_PROMPT_TOKENS
) -> int:
    """Naive per-level cost: one full prompt for every community at every
    level, with no calls made."""
    return prompt_tokens * sum(level_sizes)


def level_sizes(result: MinimizeResult) -> list[int]:
    return [len(set(level.values())) for level in result.levels]


def _offline_summary(text: str, budget: int) -> tuple[str, int]:
    summary = offline_summarize(text, budget)
    return summary.text, summary.tokens_used


@dataclass(frozen=True)
class CostReport:
    """Token cost of answering from summaries versus per-level prompting."""

    sem_tokens: int
    baseline_tokens: int
    level_sizes: tuple[int, ...]
    ratio: float
    wall_ms: dict[str, float]


def compare_costs(
    g: TypedGraph,
    result: MinimizeResult,
    k: int = DEFAULT_CONTEXT_SUMMARIES,
    summary_tokens: int = DEFAULT_SUMMARY_TOKENS,
    prompt_tokens: int = DEFAULT_PROMPT_TOKENS,
) -> CostReport:
    """Materialize summaries under the deterministic fallback and compare
    the k-summary context cost against per-level prompting.

    The summary side reads the token usage actually recorded on the
    attached summary nodes, so the report reflects what materialization
    paid, not a re-derivation.
    """
    t0 = time.perf_counter()
    materialize_macronodes(g, result, _offline_summary, budget_tokens=summary_tokens)
    summarize_ms = (time.perf_counter() - t0) * 1000.0
    used = {
        node.attrs["community"]: int(node.attrs["tokens_used"])
        for node in g.nodes_of_type(NodeType.MACRO_NODE)
    }
    sem = sum(used[key] for key in _ranked_communities(result)[:k])
    t1 = time.perf_counter()
    sizes = tuple(level_sizes(result))
    baseline = simulate_baseline_hierarchy(sizes, prompt_tokens)
    baseline_ms = (time.perf_counter() - t1) * 1000.0
    ratio = baseline / sem if sem else math.inf
    return CostReport(
        sem_tokens=sem,
        baseline_tokens=baseline,
        level_sizes=sizes,
        ratio=ratio,
        wall_ms={"summarize_ms": summarize_ms, "baseline_ms": baseline_ms},
    )


def scaling_curve(
    corpus_sizes: Sequence[int],
    k: int = DEFAULT_CONTEXT_SUMMARIES,
    summary_tokens: int = DEFAULT_SUMMARY_TOKENS,
    prompt_tokens: int = DEFAULT_PROMPT_TOKENS,
    community_size: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Cost comparison across planted-community corpora of growing size.

    The summary column stays bounded while the baseline grows with size;
    build time is reported, not asserted.
    """
    from .sem_index import sem_minimize
    from .synth import planted_graph

    rows = []
    for size in corpus_sizes:
        t0 = time.perf_counter()
        g = planted_graph(max(size // community_size, 1), community_size, seed=seed)
        result = sem_minimize(g)
        build_ms = (time.perf_counter() - t0) * 1000.0
        report = compare_costs(g, result, k, summary_tokens, prompt_tokens)
        rows.append(
            {
                "size": size,
                "sem_tokens": report.sem_tokens,
                "baseline_tokens": report.baseline_tokens,
                "build_ms": round(build_ms, 3),
            }
        )
    return rows
