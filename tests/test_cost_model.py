"""Token accounting: the summary side stays bounded, the baseline counts
one prompt per community per level, and bench-indexing prints the curve."""

from __future__ import annotations

import pytest
from click.testing import CliRunner

from semrag.cli import cli
from semrag.cost_model import compare_costs
from semrag.sem_index import sem_minimize
from semrag.synth import planted_graph


def _indexed(size: int, seed: int = 0):
    g = planted_graph(size // 10, 10, seed=seed)
    return g, sem_minimize(g)


@pytest.mark.parametrize("size", [100, 200, 400])
@pytest.mark.parametrize("k,budget", [(1, 500), (3, 7), (5, 500), (50, 3)])
def test_summary_tokens_are_bounded_by_k_summaries(size, k, budget):
    g, result = _indexed(size)
    report = compare_costs(g, result, k=k, summary_tokens=budget)
    assert 0 < report.sem_tokens <= k * budget


@pytest.mark.parametrize("size", [100, 200, 400])
@pytest.mark.parametrize("prompt_tokens", [1, 500])
def test_baseline_pays_one_prompt_per_community_per_level(size, prompt_tokens):
    g, result = _indexed(size)
    report = compare_costs(g, result, prompt_tokens=prompt_tokens)
    sizes = [len(set(level.values())) for level in result.levels]
    assert list(report.level_sizes) == sizes
    assert report.baseline_tokens == prompt_tokens * sum(sizes)


def test_bench_indexing_prints_header_and_one_row_per_size():
    result = CliRunner().invoke(cli, ["bench-indexing", "--sizes", "100,200"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "size,sem_tokens,baseline_tokens,build_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["100", "200"]
