"""Compile text and table blocks into typed graph fragments.

compile_text walks a document in reading order and emits Section, Paragraph,
and Term nodes with Contains, RefersTo, and Defines edges, resolving textual
cross-references (clause numbers, table captions, equation labels) against
the document's own structure. compile_table turns one table into header,
cell, and predicate nodes whose bind edges make cell lookup a set
intersection over header paths: cell_index collects, in one pass over the
header nodes' bind edges, the cells bound to each header path, and
lookup_cell intersects a row path's set with a column path's. A cell's
guard, the text of the footnote predicates activating it, comes from
cell_condition alone.

Every node carries its block's provenance under attrs["prov"]. Each Cell
node additionally carries a Src self-loop edge holding the same payload, so
evidence extraction can read provenance without leaving the graph.
"""

from __future__ import annotations

import _sre
import logging
import re
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence, Union

try:
    from re._casefix import _EXTRA_CASES
except ImportError:  # Python 3.10 keeps the same table in sre_compile
    from sre_compile import _ignorecase_fixes as _EXTRA_CASES

from .doc_model import (
    EquationBlock,
    ParagraphBlock,
    SectionBlock,
    SourceDocument,
    TableBlock,
    expand_grid,
)
from .errors import HeaderAmbiguityError, NotFound
from .graph_core import (
    GraphFragment,
    Node,
    NodeType,
    RelationType,
    TypedGraph,
    normalize_term,
    prov_attrs,
)

logger = logging.getLogger(__name__)

HeaderPath = tuple[str, ...]

# fraction of non-numeric cells a row/column prefix needs to count as header
HEADER_TEXT_FRACTION = 0.8

_CLAUSE_REF = re.compile(r"\bclause\s+(\d+(?:\.\d+){0,2})\b", re.IGNORECASE)
_SECTION_REF = re.compile(r"§\s*(\d+(?:\.\d+){0,2})")
_TABLE_REF = re.compile(r"\bTable\s+(\d+[A-Za-z]?(?:[.-]\d+)*)\b")
_EQ_REF = re.compile(r"\b(?:Eq\.|Equation)\s*\((\d+)\)")


@dataclass
class TextPrimitiveSet:
    """Sections, paragraphs, and terms of one document plus diagnostics."""

    doc_id: str
    fragment: GraphFragment
    term_ids: dict[str, str] = field(default_factory=dict)  # normalized key -> node id
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class TableSubgraph:
    """Header, cell, and predicate nodes compiled from one table block."""

    doc_id: str
    block_id: str
    fragment: GraphFragment
    row_paths: list[HeaderPath]
    col_paths: list[HeaderPath]
    cell_ids: list[str] = field(default_factory=list)


# re.IGNORECASE puts U+0345, which is not a word character, in one case
# class with the word characters U+0399, U+03B9 and U+1FBE. It is the only
# class that mixes the two, so only a surface holding one of them can
# match where the text's words do not spell the surface's own words.
_IOTA_CLASS = re.compile("[\u0345\u0399\u03b9\u1fbe]")
_WORD = re.compile(r"\w+")


def _fold(word: str) -> str:
    """A word as re.IGNORECASE compares it: two words fold alike exactly
    when each matches the other case-insensitively.

    str.lower and str.casefold do not: both part İ and ı from i, and lower
    also parts ſ from s and µ from μ. Each character folds to the least
    member of its re.IGNORECASE class; for ASCII that is its lowercase.
    """
    if word.isascii():
        return word.lower()
    folded = []
    for char in word:
        low = _sre.unicode_tolower(ord(char))
        folded.append(chr(min((low,) + _EXTRA_CASES.get(low, ()))))
    return "".join(folded)


class Gazetteer:
    """Term surfaces, longest first, each with its compiled whole-word,
    case-insensitive pattern, filed under the longest word it spells.

    Compiling is the expensive part of matching: Python's own pattern
    cache holds 512 entries, so a larger gazetteer would miss it on every
    use. Compile one per build or per engine and reuse it.

    Scanning is the other part: every surface's pattern over every text
    grows as texts x surfaces. A surface can only match a text one of
    whose words folds (as re.IGNORECASE folds it) to the surface's
    longest word, because a whole-word match keeps each of the surface's
    words a whole word of the text. So candidates(text) runs only the
    patterns filed under the text's own words, and each pattern stays the
    one definition of a match. Surfaces without a word character, and
    surfaces holding the one case class that mixes word and non-word
    characters, are candidates for every text.
    """

    def __init__(self, surfaces: Iterable[str]):
        # longest surfaces first so overlapping entries match greedily
        vocab = sorted(set(surfaces), key=lambda s: (-len(s), s))
        self.patterns: list[tuple[str, re.Pattern]] = [
            (surface, re.compile(rf"\b{re.escape(surface)}\b", re.IGNORECASE))
            for surface in vocab
            if surface.strip()
        ]
        self._always: list[int] = []  # positions in self.patterns
        self._by_word: dict[str, list[int]] = {}
        for position, (surface, _) in enumerate(self.patterns):
            words = _WORD.findall(surface)
            if not words or _IOTA_CLASS.search(surface):
                self._always.append(position)
            else:
                longest = _fold(max(words, key=len))
                self._by_word.setdefault(longest, []).append(position)
        # the definition patterns of each matched spelling, compiled once
        self._definitions: dict[str, tuple[re.Pattern, re.Pattern, re.Pattern]] = {}

    def candidates(self, text: str) -> list[tuple[str, re.Pattern]]:
        """The (surface, pattern) pairs that can match the text, longest
        first; a match is still whatever the pattern finds."""
        positions = set(self._always)
        for word in {_fold(word) for word in _WORD.findall(text)}:
            positions.update(self._by_word.get(word, ()))
        return [self.patterns[position] for position in sorted(positions)]

    def mentioned(self, text: str) -> list[str]:
        """Surfaces found anywhere in the text, longest first."""
        return [
            surface for surface, pattern in self.candidates(text) if pattern.search(text)
        ]

    def defines(self, spelling: str, text: str) -> bool:
        """True when the paragraph introduces the term, spelt as it was
        matched there, rather than just using it."""
        patterns = self._definitions.get(spelling)
        if patterns is None:
            escaped = re.escape(spelling)
            patterns = (
                re.compile(rf"\s*{escaped}\s+(?:is|are|denotes|means)\b", re.IGNORECASE),
                re.compile(rf"\s*{escaped}\s*:", re.IGNORECASE),
                # expansion pattern: "Long Form (ABBR)" introduces the abbreviation
                re.compile(rf"\w[\w-]*(?:\s+[\w-]+)*\s+\({escaped}\)"),
            )
            self._definitions[spelling] = patterns
        verb, colon, expansion = patterns
        return bool(verb.match(text) or colon.match(text) or expansion.search(text))


# --- text compilation -------------------------------------------------------

def _enclosing_section(doc: SourceDocument, block_id: str) -> Optional[SectionBlock]:
    """Nearest section preceding the block in reading order."""
    current: Optional[SectionBlock] = None
    for block in doc.ordered_blocks():
        if isinstance(block, SectionBlock):
            current = block
        if block.id == block_id:
            return current
    return None


def compile_text(
    doc: SourceDocument, gazetteer: Union[Gazetteer, Sequence[str]] = ()
) -> TextPrimitiveSet:
    """Emit section/paragraph/term nodes and containment/reference edges.

    ``gazetteer`` is a compiled Gazetteer, which compile_corpus builds once
    for all documents, or plain surfaces, compiled on entry for this one
    document. Longer surfaces match first, and a match overlapping one
    already taken in the paragraph is skipped.

    Cross-references that name a clause, table, or equation absent from the
    document are reported in diagnostics instead of raising; downstream
    consumers decide whether dangling references are fatal.
    """
    frag = GraphFragment()
    out = TextPrimitiveSet(doc_id=doc.id, fragment=frag)

    sections: list[SectionBlock] = []
    section_node: dict[str, str] = {}
    by_clause: dict[str, str] = {}
    for block in doc.ordered_blocks():
        if isinstance(block, SectionBlock):
            node_id = f"{doc.id}:{block.id}"
            attrs = prov_attrs(block.prov)
            attrs["level"] = block.level
            frag.add_node(Node(node_id, NodeType.SECTION, block.title, attrs))
            section_node[block.id] = node_id
            if block.prov.clause_id:
                by_clause.setdefault(block.prov.clause_id, node_id)
            sections.append(block)

    # nesting edges: each section is contained by the closest shallower one
    stack: list[SectionBlock] = []
    for block in sections:
        while stack and stack[-1].level >= block.level:
            stack.pop()
        if stack:
            frag.add_edge(
                section_node[stack[-1].id],
                RelationType.CONTAINS,
                section_node[block.id],
            )
        stack.append(block)

    # targets for caption/label references
    table_section: dict[str, str] = {}  # caption -> enclosing section node id
    eq_section: dict[str, str] = {}  # label -> enclosing section node id
    for block in doc.ordered_blocks():
        if isinstance(block, (TableBlock, EquationBlock)):
            enclosing = _enclosing_section(doc, block.id)
            if enclosing is None:
                continue
            target = section_node[enclosing.id]
            if isinstance(block, TableBlock):
                table_section[block.caption] = target
            elif block.label:
                eq_section[block.label.strip("()")] = target

    if not isinstance(gazetteer, Gazetteer):
        gazetteer = Gazetteer(gazetteer)

    for block in doc.ordered_blocks():
        if not isinstance(block, ParagraphBlock):
            continue
        para_id = f"{doc.id}:{block.id}"
        frag.add_node(Node(para_id, NodeType.PARAGRAPH, block.text, prov_attrs(block.prov)))
        frag.add_edge(section_node[block.parent_section], RelationType.CONTAINS, para_id)

        covered: list[tuple[int, int]] = []
        for surface, pattern in gazetteer.candidates(block.text):
            for m in pattern.finditer(block.text):
                span = (m.start(), m.end())
                if any(s < span[1] and span[0] < e for s, e in covered):
                    continue  # inside a longer term already matched
                covered.append(span)
                key = normalize_term(surface)
                term_id = out.term_ids.get(key)
                if term_id is None:
                    term_id = f"{doc.id}:term:{key}"
                    frag.add_node(
                        Node(term_id, NodeType.TERM, surface, prov_attrs(block.prov))
                    )
                    out.term_ids[key] = term_id
                if not frag.has_edge(para_id, RelationType.REFERS_TO, term_id):
                    frag.add_edge(para_id, RelationType.REFERS_TO, term_id)
                if gazetteer.defines(m.group(0), block.text) and not frag.has_edge(
                    term_id, RelationType.DEFINES, para_id
                ):
                    frag.add_edge(term_id, RelationType.DEFINES, para_id)

        # structural cross-references
        for m in list(_CLAUSE_REF.finditer(block.text)) + list(
            _SECTION_REF.finditer(block.text)
        ):
            target = by_clause.get(m.group(1))
            if target is None:
                out.diagnostics.append(
                    f"{para_id}: unresolved reference to clause {m.group(1)}"
                )
            else:
                frag.add_edge(para_id, RelationType.REFERS_TO, target)
        for m in _TABLE_REF.finditer(block.text):
            hits = [sec for cap, sec in table_section.items() if cap.startswith(m.group(0))]
            if hits:
                frag.add_edge(para_id, RelationType.REFERS_TO, hits[0])
            else:
                out.diagnostics.append(
                    f"{para_id}: unresolved reference to {m.group(0)!r}"
                )
        for m in _EQ_REF.finditer(block.text):
            target = eq_section.get(m.group(1))
            if target is None:
                out.diagnostics.append(
                    f"{para_id}: unresolved reference to equation ({m.group(1)})"
                )
            else:
                frag.add_edge(para_id, RelationType.REFERS_TO, target)
    return out


# --- header detection -------------------------------------------------------

def _is_numeric(text: str) -> bool:
    stripped = text.strip().replace(",", "")
    if not stripped:
        return False
    try:
        float(stripped)
        return True
    except ValueError:
        return False


def _text_fraction(cells: list[str]) -> float:
    filled = [c for c in cells if c.strip()]
    if not filled:
        return 0.0
    return sum(1 for c in filled if not _is_numeric(c)) / len(filled)


def _header_extent(table: TableBlock, grid: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """Number of header rows and header columns (flags first, else heuristic)."""
    n_rows = len(grid)
    n_cols = len(grid[0])

    def spec_at(r: int, c: int):
        ri, ci = grid[r][c]
        return table.rows[ri][ci]

    flagged = any(
        cell.is_header for row in table.rows for cell in row
    )
    if flagged:
        header_rows = 0
        while header_rows < n_rows and all(
            spec_at(header_rows, c).is_header for c in range(n_cols)
        ):
            header_rows += 1
        header_cols = 0
        while header_cols < n_cols and all(
            spec_at(r, header_cols).is_header for r in range(header_rows, n_rows)
        ):
            header_cols += 1
    else:
        header_rows = 0
        while header_rows < n_rows and (
            _text_fraction([spec_at(header_rows, c).text for c in range(n_cols)])
            >= HEADER_TEXT_FRACTION
        ):
            header_rows += 1
        header_cols = 0
        while header_cols < n_cols and (
            _text_fraction(
                [spec_at(r, header_cols).text for r in range(header_rows, n_rows)]
            )
            >= HEADER_TEXT_FRACTION
        ):
            header_cols += 1

    if header_rows == 0 and header_cols == 0:
        raise HeaderAmbiguityError(
            f"table {table.id!r}: no header rows or header columns detected"
        )
    if header_rows >= n_rows or header_cols >= n_cols:
        raise HeaderAmbiguityError(
            f"table {table.id!r}: detected headers leave no data cells"
        )
    return header_rows, header_cols


def _collapse(path: list[str]) -> HeaderPath:
    out: list[str] = []
    for segment in path:
        segment = segment.strip()
        if not segment:
            continue
        if not out or out[-1] != segment:
            out.append(segment)
    return tuple(out)


def resolve_header_paths(table: TableBlock) -> tuple[list[HeaderPath], list[HeaderPath]]:
    """Header path per data row and per data column, spans expanded.

    A spanning header cell contributes its text to every row or column it
    covers; consecutive duplicate segments inside one path collapse so a
    vertical span does not repeat itself. Tables without header columns get
    an empty row-path list (the row side is then unconstrained in lookups).
    """
    grid = expand_grid(table)
    return _header_paths(table, grid, *_header_extent(table, grid))


def _header_paths(
    table: TableBlock,
    grid: list[list[tuple[int, int]]],
    header_rows: int,
    header_cols: int,
) -> tuple[list[HeaderPath], list[HeaderPath]]:
    n_rows = len(grid)
    n_cols = len(grid[0])

    def text_at(r: int, c: int) -> str:
        ri, ci = grid[r][c]
        return table.rows[ri][ci].text

    row_paths = []
    if header_cols > 0:
        for r in range(header_rows, n_rows):
            row_paths.append(_collapse([text_at(r, c) for c in range(header_cols)]))
    col_paths = []
    if header_rows > 0:
        for c in range(header_cols, n_cols):
            col_paths.append(_collapse([text_at(r, c) for r in range(header_rows)]))
    return row_paths, col_paths


# --- table compilation ------------------------------------------------------

def _strip_markers(text: str, markers: Sequence[str]) -> str:
    for marker in markers:
        text = text.replace(f"[{marker}]", "")
    return text.strip()


def compile_table(doc_id: str, table: TableBlock) -> TableSubgraph:
    """One table block to header/cell/predicate nodes and bind edges.

    Node counts are fully determined: one RowHeader per distinct row path,
    one ColHeader per distinct column path, one Cell per non-empty data
    cell, and one Predicate per footnote referenced by at least one cell.
    A Cell's attrs hold its value, unit, header paths and footnote markers
    beside the table's provenance (release tag included, under "prov"
    only), and each Cell carries a Src self-loop with that provenance.
    """
    frag = GraphFragment()
    grid = expand_grid(table)
    header_rows, header_cols = _header_extent(table, grid)
    row_paths, col_paths = _header_paths(table, grid, header_rows, header_cols)
    out = TableSubgraph(
        doc_id=doc_id,
        block_id=table.id,
        fragment=frag,
        row_paths=row_paths,
        col_paths=col_paths,
    )
    base = f"{doc_id}:{table.id}"
    prov = table.prov

    row_header_id: dict[HeaderPath, str] = {}
    for path in row_paths:
        if path and path not in row_header_id:
            node_id = f"{base}:r{len(row_header_id)}"
            attrs = prov_attrs(prov)
            attrs["path"] = list(path)
            frag.add_node(Node(node_id, NodeType.ROW_HEADER, " | ".join(path), attrs))
            row_header_id[path] = node_id
    col_header_id: dict[HeaderPath, str] = {}
    for path in col_paths:
        if path and path not in col_header_id:
            node_id = f"{base}:c{len(col_header_id)}"
            attrs = prov_attrs(prov)
            attrs["path"] = list(path)
            frag.add_node(Node(node_id, NodeType.COL_HEADER, " | ".join(path), attrs))
            col_header_id[path] = node_id

    footnote_text = dict(table.footnotes)
    predicate_id: dict[str, str] = {}
    pending_activations: list[tuple[str, str]] = []  # (marker, cell id)

    n_rows = len(grid)
    n_cols = len(grid[0])
    emitted: set[tuple[int, int]] = set()
    for r in range(header_rows, n_rows):
        for c in range(header_cols, n_cols):
            owner = grid[r][c]
            if owner in emitted:
                continue  # spanned continuation of a cell already emitted
            emitted.add(owner)
            spec = table.rows[owner[0]][owner[1]]
            value = _strip_markers(spec.text, spec.footnote_markers)
            if not value:
                continue
            dr, dc = r - header_rows, c - header_cols
            cell_id = f"{base}:cell{dr}_{dc}"
            row_path = row_paths[dr] if row_paths else ()
            col_path = col_paths[dc] if col_paths else ()
            attrs = prov_attrs(prov)
            attrs.update(
                {
                    "value": value,
                    "unit": spec.unit,
                    "row_path": list(row_path),
                    "col_path": list(col_path),
                    "markers": list(spec.footnote_markers),
                }
            )
            frag.add_node(Node(cell_id, NodeType.CELL, value, attrs))
            out.cell_ids.append(cell_id)
            frag.add_edge(cell_id, RelationType.SRC, cell_id, prov_attrs(prov))
            if row_path in row_header_id:
                frag.add_edge(cell_id, RelationType.ROW_BIND, row_header_id[row_path])
            if col_path in col_header_id:
                frag.add_edge(cell_id, RelationType.COL_BIND, col_header_id[col_path])
            for marker in spec.footnote_markers:
                if marker in footnote_text:
                    pending_activations.append((marker, cell_id))

    for marker, _ in pending_activations:
        if marker not in predicate_id:
            index = [m for m, _ in table.footnotes].index(marker)
            node_id = f"{base}:p{index}"
            attrs = prov_attrs(prov)
            attrs["marker"] = marker
            frag.add_node(
                Node(node_id, NodeType.PREDICATE, footnote_text[marker], attrs)
            )
            predicate_id[marker] = node_id
    for marker, cell_id in pending_activations:
        frag.add_edge(predicate_id[marker], RelationType.ACTIVATES, cell_id)
    return out


# --- cell lookup ------------------------------------------------------------

@dataclass
class CellHit:
    """One table cell matched by header paths, with its guard if any."""

    node_id: str
    value: str
    unit: Optional[str]
    condition: Optional[str]
    prov: dict


CellIndex = dict[tuple[NodeType, HeaderPath], frozenset[str]]

_BIND_OF = {
    NodeType.ROW_HEADER: RelationType.ROW_BIND,
    NodeType.COL_HEADER: RelationType.COL_BIND,
}
_NO_CELLS: frozenset[str] = frozenset()


def cell_index(g: TypedGraph) -> CellIndex:
    """Cells bound to any header of each (header type, path), from one pass
    over the header nodes: the sources of a row header's RowBind in-edges
    and of a column header's ColBind in-edges, pooled by path."""
    bound: dict[tuple[NodeType, HeaderPath], set[str]] = {}
    for node in g.nodes.values():
        rel = _BIND_OF.get(node.type)
        if rel is None:
            continue
        cells = bound.setdefault((node.type, tuple(node.attrs.get("path", ()))), set())
        for edge in g.in_edges[node.id]:
            if edge.rel is rel:
                cells.add(edge.src)
    return {key: frozenset(cells) for key, cells in bound.items()}


def cell_condition(
    g: TypedGraph, cell_id: str, satisfied: Collection[str] = ()
) -> Optional[str]:
    """Guard texts of the predicates activating a cell whose markers are
    not satisfied, in marker order and joined by "; "; None when no guard
    remains or every remaining guard's text is empty."""
    guards = []
    for edge in g.in_edges[cell_id]:
        if edge.rel is RelationType.ACTIVATES:
            pred = g.nodes[edge.src]
            if pred.attrs.get("marker") not in satisfied:
                guards.append((pred.attrs.get("marker", ""), pred.text))
    return "; ".join(text for _, text in sorted(guards)) or None


def lookup_cell(
    g: TypedGraph,
    row_path: Sequence[str] = (),
    col_path: Sequence[str] = (),
    predicates: Sequence[str] = (),
    cells: Optional[CellIndex] = None,
) -> list[CellHit]:
    """Cells whose row and column header paths match; empty side matches all.

    `predicates` lists footnote markers the caller asserts are satisfied;
    any remaining guard on a hit is surfaced as its condition text
    (cell_condition). Hits are ordered by source position (doc, page,
    bbox). `cells` is the graph's cell_index, which a caller making many
    lookups builds once; without it each call indexes the graph afresh.
    The candidates are one index set, or the intersection of two, so a
    lookup's cost follows the sizes of its two index sets and its hits,
    not the in-degree of the path's headers. Raises NotFound when no cell
    matches.
    """
    row_path = tuple(s.strip() for s in row_path)
    col_path = tuple(s.strip() for s in col_path)
    if cells is None:
        cells = cell_index(g)

    row_cells = cells.get((NodeType.ROW_HEADER, row_path), _NO_CELLS)
    col_cells = cells.get((NodeType.COL_HEADER, col_path), _NO_CELLS)
    if row_path and col_path:
        candidates = row_cells & col_cells
    elif row_path:
        candidates = row_cells
    elif col_path:
        candidates = col_cells
    else:
        candidates = {n.id for n in g.nodes_of_type(NodeType.CELL)}
    if not candidates:
        raise NotFound(
            f"no cell matches row path {list(row_path)} and column path {list(col_path)}"
        )

    satisfied = set(predicates)
    hits = []
    for cell_id in candidates:
        node = g.nodes[cell_id]
        hits.append(
            CellHit(
                node_id=cell_id,
                value=node.attrs.get("value", node.text),
                unit=node.attrs.get("unit"),
                condition=cell_condition(g, cell_id, satisfied),
                prov=node.attrs.get("prov", {}),
            )
        )
    hits.sort(
        key=lambda h: (
            h.prov.get("doc_id", ""),
            h.prov.get("page", 0),
            tuple(h.prov.get("bbox", ())),
            h.node_id,
        )
    )
    return hits
