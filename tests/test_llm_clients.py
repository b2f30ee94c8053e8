"""The offline generator against the prompt layout build_prompt writes,
the extractive summarizer, summarizing through a client, and the token
ledger's CSV. No test reaches the network."""

from __future__ import annotations

import csv
import re

import pytest

from semrag.graph_core import Edge, Node, NodeType, RelationType, TypedGraph
from semrag.llm_clients import (
    NO_EVIDENCE_ANSWER,
    OfflineLlmClient,
    Summary,
    TokenLedger,
    count_tokens,
    offline_summarize,
    summarize_with,
)
from semrag.query_engine import Route, build_prompt, evidence_record

QUESTION = "What does the specification say?"


def _prov(clause: str) -> dict:
    return {
        "doc_id": "TS01",
        "clause_id": clause,
        "page": 3,
        "bbox": [36.0, 80.0, 560.0, 92.0],
        "release_tag": "Rel-17",
    }


def _link(g: TypedGraph, src: str, rel: RelationType, dst: str) -> None:
    g.add_edge(Edge(src, dst, rel))


@pytest.fixture(scope="module")
def graph() -> TypedGraph:
    """One node of each statement form, plus a guarded cell."""
    g = TypedGraph()
    g.add_node(Node("TS01:s1", NodeType.SECTION, "Retransmission", {"prov": _prov("5")}))
    g.add_node(
        Node("TS01:p1", NodeType.PARAGRAPH, "The UE shall retry once.", {"prov": _prov("5.1")})
    )
    _link(g, "TS01:s1", RelationType.CONTAINS, "TS01:p1")
    cell_attrs = {"row_path": ["T300"], "col_path": ["Timer", "Max"], "unit": "ms"}
    g.add_node(
        Node("TS01:t1:cell0_0", NodeType.CELL, "100",
             {**cell_attrs, "value": "100", "prov": _prov("5.2")})
    )
    g.add_node(
        Node("TS01:t1:cell1_0", NodeType.CELL, "200",
             {**cell_attrs, "row_path": ["T301"], "value": "200", "prov": _prov("5.2")})
    )
    g.add_node(
        Node("TS01:t1:pred_a", NodeType.PREDICATE, "if the cell is barred",
             {"marker": "a", "prov": _prov("5.2a")})
    )
    _link(g, "TS01:t1:pred_a", RelationType.ACTIVATES, "TS01:t1:cell1_0")
    g.add_node(
        Node("TS01:f1:op0", NodeType.OPERATOR, "=",
             {"expr": "P = min(Pmax, P0 + alpha)", "prov": _prov("5.3")})
    )
    g.add_node(
        Node("c7", NodeType.MACRO_NODE, "Timers and retries.", {"community": "c7"})
    )
    for member in ("TS01:p1", "TS01:t1:cell0_0"):
        _link(g, member, RelationType.MEMBER_OF, "c7")
    return g


FORMS = {
    "cell": ("TS01:t1:cell0_0", "Timer / Max = 100 ms", "5.2"),
    "paragraph": ("TS01:p1", "The UE shall retry once.", "5.1"),
    "predicate": ("TS01:t1:pred_a", "if the cell is barred", "5.2a"),
    "operator": ("TS01:f1:op0", "min(Pmax, P0 + alpha)", "5.3"),
    "macro": ("c7", "Timers and retries.", "c7"),
}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_offline_answer_is_the_first_records_object_and_clause(graph, form):
    node_id, obj, clause = FORMS[form]
    record = evidence_record(graph, node_id, 0.5, Route.LOW)
    assert (record.object, record.clause) == (obj, clause)
    answer = OfflineLlmClient().generate(build_prompt(QUESTION, [record]))
    assert answer == f"{obj} (clause {clause})"


def test_a_macro_without_a_summary_reads_its_members_off_member_of_edges():
    """The statement counts the macro's MemberOf sources, and its provenance
    is the highest-degree member's."""
    g = TypedGraph()
    g.add_node(Node("TS01:s1", NodeType.SECTION, "Retransmission", {"prov": _prov("5")}))
    for nid, clause in (("TS01:p1", "5.1"), ("TS01:p2", "5.4")):
        g.add_node(Node(nid, NodeType.PARAGRAPH, "text", {"prov": _prov(clause)}))
    g.add_node(Node("c9", NodeType.MACRO_NODE, "", {"community": "c9"}))
    _link(g, "TS01:s1", RelationType.CONTAINS, "TS01:p2")
    for member in ("TS01:p1", "TS01:p2"):
        _link(g, member, RelationType.MEMBER_OF, "c9")
    record = evidence_record(g, "c9", 0.5, Route.HIGH)
    assert (record.object, record.clause) == ("a community of 2 nodes", "c9")
    assert record.provenance == _prov("5.4")


def test_offline_answer_carries_the_guard_and_reads_only_the_first_record(graph):
    guarded = evidence_record(graph, "TS01:t1:cell1_0", 0.5, Route.MED, hop=1)
    other = evidence_record(graph, "TS01:p1", 0.4, Route.MED, hop=2)
    answer = OfflineLlmClient().generate(build_prompt(QUESTION, [guarded, other]))
    assert answer == "Timer / Max = 200 ms, given if the cell is barred (clause 5.2)"


def test_evidence_free_prompt_gives_the_no_evidence_answer():
    assert OfflineLlmClient().generate(build_prompt(QUESTION, [])) == NO_EVIDENCE_ANSWER


def test_answer_is_cut_to_max_tokens(graph):
    prompt = build_prompt(QUESTION, [evidence_record(graph, "TS01:p1", 0.5, Route.LOW)])
    client = OfflineLlmClient()
    full = client.generate(prompt)
    assert count_tokens(full) == 7
    assert client.generate(prompt, max_tokens=7) == full
    assert client.generate(prompt, max_tokens=3) == "The UE shall"


@pytest.mark.parametrize(
    "text, budget, summary",
    [
        ("First sentence here. Second one.\nNext line.", 100, Summary("First sentence here.", 7)),
        ("one two three four. five six", 2, Summary("one two", 2)),
        ("header without stop\nbody line. more", 100, Summary("body line.", 6)),
        ("header without stop\nbody line. more", 3, Summary("header without stop", 3)),
        ("no punctuation at all", 100, Summary("no punctuation at all", 4)),
        ("   \n  ", 10, Summary("", 0)),
    ],
    ids=["first-sentence", "budget-cut", "first-punctuated-line", "cut-before-punctuation",
         "unpunctuated", "blank"],
)
def test_offline_summarize(text, budget, summary):
    assert offline_summarize(text, budget) == summary


class _RecordingClient:
    """A non-offline client that records what it is asked."""

    def __init__(self):
        self.calls: list[tuple[str, int]] = []

    def generate(self, prompt: str, max_tokens: int = 256) -> str:
        self.calls.append((prompt, max_tokens))
        return "a summary"


def test_summarize_with_a_client_sends_the_budget_cut_text():
    client = _RecordingClient()
    summary = summarize_with(client, "alpha beta gamma delta epsilon", 3)
    assert summary == Summary("a summary", 3)
    assert client.calls == [("Summarize the following in one sentence.\n\nalpha beta gamma", 64)]


def test_summarize_with_the_offline_client_is_extractive():
    text = "Alpha beta. Gamma delta."
    assert summarize_with(OfflineLlmClient(), text, 10) == offline_summarize(text, 10)
    assert summarize_with(None, text, 10) == offline_summarize(text, 10)


def test_ledger_csv_has_a_header_then_one_row_per_generate_call(graph, tmp_path):
    ledger = TokenLedger()
    client = OfflineLlmClient(ledger=ledger)
    prompts = [
        build_prompt(QUESTION, [evidence_record(graph, "TS01:p1", 0.5, Route.LOW)]),
        build_prompt(QUESTION, []),
    ]
    answers = [client.generate(prompt) for prompt in prompts]
    OfflineLlmClient().generate(prompts[0])  # no ledger, no row
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["op", "tokens_in", "tokens_out", "wall_ms"]
    assert len(rows) == 1 + len(prompts)
    for row, prompt, answer in zip(rows[1:], prompts, answers):
        assert row[:3] == ["generate", str(count_tokens(prompt)), str(count_tokens(answer))]
        assert re.fullmatch(r"\d+\.\d{3}", row[3]), row[3]
