"""Text and table compilation: terms, references, headers, cell lookup."""

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spanned_table
from semrag.doc_model import (
    CellSpec,
    ParagraphBlock,
    Provenance,
    SectionBlock,
    SourceDocument,
    TableBlock,
    load_document,
)
from semrag.errors import HeaderAmbiguityError, NotFound
from semrag.graph_core import NodeType, RelationType, TypedGraph, merge_units
from semrag.layout_compiler import (
    Gazetteer,
    compile_table,
    compile_text,
    lookup_cell,
    resolve_header_paths,
)


def prov(clause="4.1", page=1, slot=0):
    return Provenance("DOC", clause, page, (10.0, 20.0 + 12 * slot, 200.0, 30.0 + 12 * slot))


def make_doc(blocks):
    return SourceDocument("DOC", tuple(blocks), tuple(range(len(blocks))))


def graph_of(fragment) -> TypedGraph:
    return merge_units([fragment])


# ---------------------------------------------------------------------------
# compile_text


def test_sections_paragraphs_and_containment():
    doc = make_doc(
        [
            SectionBlock("s1", prov(), 1, "Overview"),
            SectionBlock("s2", prov("4.2"), 2, "Details"),
            ParagraphBlock("p1", prov("4.2", slot=1), "Detail body.", "s2"),
        ]
    )
    result = compile_text(doc)
    g = merge_units([result.fragment])
    assert g.nodes["DOC:s1"].type is NodeType.SECTION
    assert g.nodes["DOC:p1"].type is NodeType.PARAGRAPH
    contains = {(e.src, e.dst) for e in g.edges if e.rel is RelationType.CONTAINS}
    assert ("DOC:s1", "DOC:s2") in contains  # deeper level nests under shallower
    assert ("DOC:s2", "DOC:p1") in contains


def test_gazetteer_terms_link_with_reference_edges():
    doc = make_doc(
        [
            SectionBlock("s1", prov(), 1, "Overview"),
            ParagraphBlock("p1", prov(slot=1), "The HARQ process retransmits.", "s1"),
            ParagraphBlock("p2", prov(slot=2), "HARQ interacts with CQI reports.", "s1"),
        ]
    )
    result = compile_text(doc, gazetteer=["HARQ", "CQI"])
    g = merge_units([result.fragment])
    refers = {(e.src, e.dst) for e in g.edges if e.rel is RelationType.REFERS_TO}
    assert ("DOC:p1", "term:harq") in refers
    assert ("DOC:p2", "term:harq") in refers
    assert ("DOC:p2", "term:cqi") in refers
    # one term node per normalized surface, not per mention
    assert len(g.nodes_of_type(NodeType.TERM)) == 2


def test_longest_gazetteer_surface_wins_overlaps():
    doc = make_doc(
        [
            SectionBlock("s1", prov(), 1, "Overview"),
            ParagraphBlock(
                "p1", prov(slot=1), "Spectral efficiency improves with power.", "s1"
            ),
        ]
    )
    result = compile_text(doc, gazetteer=["spectral efficiency", "efficiency"])
    g = merge_units([result.fragment])
    refers = {e.dst for e in g.edges if e.rel is RelationType.REFERS_TO}
    assert "term:spectral efficiency" in refers
    assert "term:efficiency" not in refers


def test_definitional_sentences_emit_definition_edges():
    doc = make_doc(
        [
            SectionBlock("s1", prov(), 1, "Terms"),
            ParagraphBlock(
                "p1", prov(slot=1), "HARQ is a retransmission scheme.", "s1"
            ),
            ParagraphBlock("p2", prov(slot=2), "Later HARQ appears again.", "s1"),
        ]
    )
    result = compile_text(doc, gazetteer=["HARQ"])
    g = merge_units([result.fragment])
    defines = {(e.src, e.dst) for e in g.edges if e.rel is RelationType.DEFINES}
    assert defines == {("term:harq", "DOC:p1")}


SURFACES = [
    "HARQ", "HARQ-ACK", "ACK", "spectral efficiency", "efficiency", "C++",
    ".NET", "++", "\u017ftate", "\u212aelvin", "\u0130nit", "\u00b5s",
    "stra\u00dfe", "x\u03b9", "x\u0345y",
]
WORDS = SURFACES + [
    "STATE", "kelvin", "INIT", "\u03bcs", "STRA\u1e9eE", "x\u0345", "harq",
    "is", "means", ":", "(", ")", "the", "11",
]


@st.composite
def paragraph_texts(draw):
    """Surfaces, their case partners and punctuation run together, some
    opening the way a definition does."""
    frame = draw(st.sampled_from(["{} ", "{} is ", "{}: ", "Long Form ({}) "]))
    text = frame.format(draw(st.sampled_from(WORDS)))
    pieces = draw(st.lists(st.sampled_from(WORDS), max_size=10))
    return text + "".join(piece + draw(st.sampled_from([" ", "", "-", ". "])) for piece in pieces)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(paragraph_texts(), min_size=1, max_size=4),
    st.lists(st.sampled_from(SURFACES), max_size=8),
)
def test_term_links_equal_a_loop_over_every_pattern(texts, surfaces):
    """The word index only skips patterns that cannot match: compile_text
    emits the same term nodes and edges as running every pattern."""
    blocks = [SectionBlock("s1", prov(), 1, "Terms")] + [
        ParagraphBlock(f"p{i}", prov(slot=i + 1), text, "s1")
        for i, text in enumerate(texts)
    ]
    doc = make_doc(blocks)
    indexed = compile_text(doc, gazetteer=surfaces).fragment
    with mock.patch.object(Gazetteer, "candidates", lambda self, text: self.patterns):
        every = compile_text(doc, gazetteer=surfaces).fragment
    assert [(n.id, n.text) for n in indexed.nodes] == [(n.id, n.text) for n in every.nodes]
    assert [(e.src, e.rel, e.dst) for e in indexed.edges] == [
        (e.src, e.rel, e.dst) for e in every.edges
    ]


def test_clause_references_resolve_to_sections():
    doc = make_doc(
        [
            SectionBlock("s1", prov("4.1"), 1, "One"),
            SectionBlock("s2", prov("4.2"), 1, "Two"),
            ParagraphBlock("p1", prov("4.1", slot=1), "See clause 4.2 for rules.", "s1"),
        ]
    )
    result = compile_text(doc)
    g = merge_units([result.fragment])
    refers = {(e.src, e.dst) for e in g.edges if e.rel is RelationType.REFERS_TO}
    assert ("DOC:p1", "DOC:s2") in refers
    assert result.diagnostics == []


def test_unresolved_references_go_to_diagnostics():
    doc = make_doc(
        [
            SectionBlock("s1", prov("4.1"), 1, "One"),
            ParagraphBlock("p1", prov("4.1", slot=1), "See clause 9.9 instead.", "s1"),
        ]
    )
    result = compile_text(doc)
    assert any("9.9" in d for d in result.diagnostics)


# ---------------------------------------------------------------------------
# header detection and paths


def _plain_table(rows, footnotes=(), flag=False):
    spec_rows = tuple(
        tuple(
            CellSpec(text, is_header=flag and (r == 0 or c == 0))
            for c, text in enumerate(row)
        )
        for r, row in enumerate(rows)
    )
    return TableBlock("t1", prov("7.1", 2), spec_rows, "Table 1: fixture", tuple(footnotes))


def test_heuristic_header_detection_on_unflagged_table():
    t = _plain_table([["Name", "Max"], ["alpha", "10"], ["beta", "20"]])
    row_paths, col_paths = resolve_header_paths(t)
    assert row_paths == [("alpha",), ("beta",)]
    assert col_paths == [("Max",)]


def test_flagged_headers_override_heuristic():
    t = _plain_table([["Name", "10"], ["alpha", "20"]], flag=True)
    row_paths, col_paths = resolve_header_paths(t)
    assert row_paths == [("alpha",)]
    assert col_paths == [("10",)]


def test_two_level_header_paths_through_spans():
    rows = (
        (
            CellSpec("Item", is_header=True, row_span=2),
            CellSpec("Limits", is_header=True, col_span=2),
        ),
        (CellSpec("Min", is_header=True), CellSpec("Max", is_header=True)),
        (CellSpec("alpha", is_header=True), CellSpec("1"), CellSpec("9")),
    )
    t = TableBlock("t1", prov(), rows, "Table 1: levels", ())
    row_paths, col_paths = resolve_header_paths(t)
    assert row_paths == [("alpha",)]
    assert col_paths == [("Limits", "Min"), ("Limits", "Max")]


def test_vertical_header_span_collapses_duplicate_segments():
    rows = (
        (
            CellSpec("Item", is_header=True, row_span=2),
            CellSpec("Only", is_header=True, row_span=2),
        ),
        (),
        (CellSpec("alpha", is_header=True), CellSpec("5")),
    )
    t = TableBlock("t1", prov(), rows, "Table 1: tall", ())
    _, col_paths = resolve_header_paths(t)
    assert col_paths == [("Only",)]


def test_header_ambiguity_when_no_headers():
    t = _plain_table([["1", "2"], ["3", "4"]])
    with pytest.raises(HeaderAmbiguityError):
        resolve_header_paths(t)


def test_header_ambiguity_when_everything_is_header():
    rows = tuple(
        tuple(CellSpec(f"h{r}{c}", is_header=True) for c in range(2)) for r in range(2)
    )
    t = TableBlock("t1", prov(), rows, "Table 1: all header", ())
    with pytest.raises(HeaderAmbiguityError):
        resolve_header_paths(t)


# ---------------------------------------------------------------------------
# compile_table


def _fixture_table():
    rows = (
        (CellSpec("Parameter", is_header=True), CellSpec("Maximum", is_header=True)),
        (CellSpec("alpha", is_header=True), CellSpec("23", footnote_markers=("1",), unit="dBm")),
        (CellSpec("beta", is_header=True), CellSpec("26", unit="dBm")),
        (CellSpec("gamma", is_header=True), CellSpec("")),
    )
    return TableBlock(
        "t1",
        prov("7.1", 2),
        rows,
        "Table 1: power limits",
        (("1", "NOTE 1: Applies to band n78 only."),),
    )


def test_compile_table_node_counts_are_determined():
    sub = compile_table("DOC", _fixture_table())
    g = merge_units([sub.fragment])
    assert len(g.nodes_of_type(NodeType.ROW_HEADER)) == 3
    assert len(g.nodes_of_type(NodeType.COL_HEADER)) == 1
    assert len(g.nodes_of_type(NodeType.CELL)) == 2  # the empty cell is skipped
    assert len(g.nodes_of_type(NodeType.PREDICATE)) == 1


def test_compile_table_cells_carry_provenance_self_loop():
    sub = compile_table("DOC", _fixture_table())
    g = merge_units([sub.fragment])
    for cell in g.nodes_of_type(NodeType.CELL):
        loops = [
            e
            for e in g.edges
            if e.rel is RelationType.SRC and e.src == cell.id and e.dst == cell.id
        ]
        assert len(loops) == 1
        assert loops[0].attrs["prov"]["doc_id"] == "DOC"
        assert cell.attrs["prov"]["clause_id"] == "7.1"


def test_compile_table_binds_cells_to_headers_and_predicates():
    sub = compile_table("DOC", _fixture_table())
    g = merge_units([sub.fragment])
    hits = lookup_cell(g, row_path=("alpha",), col_path=("Maximum",))
    assert len(hits) == 1
    assert hits[0].value == "23"
    assert hits[0].unit == "dBm"
    assert hits[0].condition == "NOTE 1: Applies to band n78 only."
    # asserting the predicate clears the condition
    cleared = lookup_cell(g, row_path=("alpha",), col_path=("Maximum",), predicates=("1",))
    assert cleared[0].condition is None


def test_lookup_with_one_side_open_matches_whole_axis():
    sub = compile_table("DOC", _fixture_table())
    g = merge_units([sub.fragment])
    col_only = lookup_cell(g, col_path=("Maximum",))
    assert [h.value for h in col_only] == ["23", "26"]


def test_lookup_raises_when_nothing_matches():
    sub = compile_table("DOC", _fixture_table())
    g = merge_units([sub.fragment])
    with pytest.raises(NotFound):
        lookup_cell(g, row_path=("missing",), col_path=("Maximum",))


def test_lookup_strips_whitespace_in_query_paths():
    sub = compile_table("DOC", _fixture_table())
    g = merge_units([sub.fragment])
    hits = lookup_cell(g, row_path=(" alpha ",), col_path=("Maximum ",))
    assert hits[0].value == "23"


# ---------------------------------------------------------------------------
# randomized span round trips


@pytest.mark.parametrize("seed", range(30))
def test_random_spanned_tables_recover_every_cell(seed):
    rng = random.Random(seed)
    table, expected = random_spanned_table(rng)
    sub = compile_table("RT", table)
    g = merge_units([sub.fragment])
    emitted = {n.id for n in g.nodes_of_type(NodeType.CELL)}
    assert len(emitted) == len(expected)
    for (dr, dc), want in expected.items():
        hits = lookup_cell(g, row_path=want["row_path"], col_path=want["col_path"])
        assert len(hits) == 1
        hit = hits[0]
        assert hit.node_id == f"RT:{table.id}:cell{dr}_{dc}"
        assert hit.value == want["value"]
        assert hit.unit == want["unit"]
        assert hit.condition == want["condition"]
        if want["markers"]:
            sat = lookup_cell(
                g,
                row_path=want["row_path"],
                col_path=want["col_path"],
                predicates=want["markers"],
            )
            assert sat[0].condition is None


def test_random_table_survives_serialization(tmp_path):
    rng = random.Random(99)
    table, expected = random_spanned_table(rng)
    doc = SourceDocument("RT", (table,), (0,))
    reloaded = load_document(json.dumps(doc.to_json()))
    sub = compile_table("RT", reloaded.blocks[0])
    g = merge_units([sub.fragment])
    for (dr, dc), want in expected.items():
        hits = lookup_cell(g, row_path=want["row_path"], col_path=want["col_path"])
        assert hits[0].value == want["value"]
