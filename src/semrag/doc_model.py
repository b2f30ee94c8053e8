"""Intermediate document representation and validation.

Upstream PDF conversion produces one JSON file per standards document. This
module turns those bytes into immutable SourceDocument values, enforces the
schema strictly (unknown or missing keys are rejected with a JSON-pointer
path), expands table cell spans into a rectangular ownership grid, and
provides the canonical serialization used by every golden test: UTF-8,
sorted object keys, compact separators, shortest round-trip floats.

Schema field names are frozen. load_document and the _parse_* readers it
calls define them, with the required keys of each object; serialize
writes the same layout back.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from .errors import OrderError, SchemaError, SpanError

logger = logging.getLogger(__name__)

BLOCK_KINDS = ("section", "paragraph", "table", "equation")


@dataclass(frozen=True)
class Provenance:
    """Source coordinates for one block: document, clause, page, bbox."""

    doc_id: str
    clause_id: str
    page: int
    bbox: tuple[float, float, float, float]
    release_tag: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "clause_id": self.clause_id,
            "page": self.page,
            "bbox": list(self.bbox),
            "release_tag": self.release_tag,
        }


@dataclass(frozen=True)
class CellSpec:
    """One grid cell before span expansion."""

    text: str
    row_span: int = 1
    col_span: int = 1
    is_header: bool = False
    footnote_markers: tuple[str, ...] = ()
    unit: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "text": self.text,
            "row_span": self.row_span,
            "col_span": self.col_span,
            "is_header": self.is_header,
            "footnotes": list(self.footnote_markers),
            "unit": self.unit,
        }


@dataclass(frozen=True)
class SectionBlock:
    id: str
    prov: Provenance
    level: int
    title: str
    kind: str = "section"

    def to_json(self) -> dict:
        return {
            "kind": "section",
            "id": self.id,
            "prov": self.prov.to_json(),
            "level": self.level,
            "title": self.title,
        }


@dataclass(frozen=True)
class ParagraphBlock:
    id: str
    prov: Provenance
    text: str
    parent_section: str
    kind: str = "paragraph"

    def to_json(self) -> dict:
        return {
            "kind": "paragraph",
            "id": self.id,
            "prov": self.prov.to_json(),
            "text": self.text,
            "parent_section": self.parent_section,
        }


@dataclass(frozen=True)
class TableBlock:
    id: str
    prov: Provenance
    rows: tuple[tuple[CellSpec, ...], ...]
    caption: str
    footnotes: tuple[tuple[str, str], ...]  # (marker, text) pairs
    kind: str = "table"

    def to_json(self) -> dict:
        return {
            "kind": "table",
            "id": self.id,
            "prov": self.prov.to_json(),
            "rows": [[c.to_json() for c in row] for row in self.rows],
            "caption": self.caption,
            "footnotes": [{"marker": m, "text": t} for m, t in self.footnotes],
        }


@dataclass(frozen=True)
class EquationBlock:
    id: str
    prov: Provenance
    math_src: str
    label: Optional[str]
    kind: str = "equation"

    def to_json(self) -> dict:
        return {
            "kind": "equation",
            "id": self.id,
            "prov": self.prov.to_json(),
            "math_src": self.math_src,
            "label": self.label,
        }


Block = Union[SectionBlock, ParagraphBlock, TableBlock, EquationBlock]


@dataclass(frozen=True)
class SourceDocument:
    id: str
    blocks: tuple[Block, ...]
    reading_order: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "blocks": [b.to_json() for b in self.blocks],
            "reading_order": list(self.reading_order),
        }

    def ordered_blocks(self) -> Iterator[Block]:
        for i in self.reading_order:
            yield self.blocks[i]

    def block_by_id(self, block_id: str) -> Block:
        for b in self.blocks:
            if b.id == block_id:
                return b
        raise KeyError(block_id)


@dataclass
class CorpusReport:
    """Findings from validate_corpus; report-only, never raises."""

    duplicate_ids: list[str] = field(default_factory=list)
    dangling_markers: list[tuple[str, str, str]] = field(default_factory=list)
    empty_clauses: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.duplicate_ids or self.dangling_markers or self.empty_clauses)


# --- canonical JSON ---------------------------------------------------------

def canonical_json_bytes(obj: Any) -> bytes:
    """UTF-8, sorted keys, compact separators, shortest round-trip floats."""
    return json.dumps(
        obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")


def serialize(doc: SourceDocument) -> bytes:
    return canonical_json_bytes(doc.to_json())


# --- strict schema walking --------------------------------------------------

def _require_keys(obj: dict, keys: tuple[str, ...], path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(path, f"missing required field(s) {missing}")
    extra = [k for k in obj if k not in keys]
    if extra:
        raise SchemaError(path, f"unexpected field(s) {extra}")


def _check_str(v: Any, path: str) -> str:
    if not isinstance(v, str):
        raise SchemaError(path, f"expected string, got {type(v).__name__}")
    return v


def _check_opt_str(v: Any, path: str) -> Optional[str]:
    if v is None:
        return None
    return _check_str(v, path)


def _check_int(v: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(path, f"expected integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise SchemaError(path, f"expected integer >= {minimum}, got {v}")
    return v


def _check_number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected number, got {type(v).__name__}")
    return v


def _parse_prov(obj: Any, path: str, require_clause: bool) -> Provenance:
    _require_keys(obj, ("doc_id", "clause_id", "page", "bbox", "release_tag"), path)
    doc_id = _check_str(obj["doc_id"], f"{path}/doc_id")
    clause_id = _check_str(obj["clause_id"], f"{path}/clause_id")
    if require_clause and not clause_id:
        raise SchemaError(f"{path}/clause_id", "empty clause_id on normative block")
    page = _check_int(obj["page"], f"{path}/page", minimum=0)
    bbox = obj["bbox"]
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise SchemaError(f"{path}/bbox", "expected array of 4 numbers")
    coords = tuple(_check_number(v, f"{path}/bbox/{i}") for i, v in enumerate(bbox))
    if coords[0] > coords[2] or coords[1] > coords[3]:
        raise SchemaError(f"{path}/bbox", "bbox must satisfy x0 <= x1 and y0 <= y1")
    release = _check_opt_str(obj["release_tag"], f"{path}/release_tag")
    return Provenance(doc_id, clause_id, page, coords, release)


def _parse_cell(obj: Any, path: str) -> CellSpec:
    _require_keys(
        obj, ("text", "row_span", "col_span", "is_header", "footnotes", "unit"), path
    )
    text = _check_str(obj["text"], f"{path}/text")
    row_span = _check_int(obj["row_span"], f"{path}/row_span", minimum=1)
    col_span = _check_int(obj["col_span"], f"{path}/col_span", minimum=1)
    if not isinstance(obj["is_header"], bool):
        raise SchemaError(f"{path}/is_header", "expected boolean")
    marks = obj["footnotes"]
    if not isinstance(marks, list):
        raise SchemaError(f"{path}/footnotes", "expected array of marker strings")
    markers = tuple(
        _check_str(m, f"{path}/footnotes/{i}") for i, m in enumerate(marks)
    )
    unit = _check_opt_str(obj["unit"], f"{path}/unit")
    return CellSpec(text, row_span, col_span, obj["is_header"], markers, unit)


def _parse_block(obj: Any, path: str) -> Block:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in BLOCK_KINDS:
        raise SchemaError(f"{path}/kind", f"expected one of {list(BLOCK_KINDS)}")
    if kind == "section":
        _require_keys(obj, ("kind", "id", "prov", "level", "title"), path)
        return SectionBlock(
            id=_check_str(obj["id"], f"{path}/id"),
            prov=_parse_prov(obj["prov"], f"{path}/prov", require_clause=False),
            level=_check_int(obj["level"], f"{path}/level", minimum=1),
            title=_check_str(obj["title"], f"{path}/title"),
        )
    if kind == "paragraph":
        _require_keys(obj, ("kind", "id", "prov", "text", "parent_section"), path)
        return ParagraphBlock(
            id=_check_str(obj["id"], f"{path}/id"),
            prov=_parse_prov(obj["prov"], f"{path}/prov", require_clause=True),
            text=_check_str(obj["text"], f"{path}/text"),
            parent_section=_check_str(obj["parent_section"], f"{path}/parent_section"),
        )
    if kind == "table":
        _require_keys(obj, ("kind", "id", "prov", "rows", "caption", "footnotes"), path)
        rows_obj = obj["rows"]
        if not isinstance(rows_obj, list) or not rows_obj:
            raise SchemaError(f"{path}/rows", "expected non-empty array of rows")
        rows = []
        for r, row in enumerate(rows_obj):
            if not isinstance(row, list):
                raise SchemaError(f"{path}/rows/{r}", "expected array of cells")
            rows.append(
                tuple(_parse_cell(c, f"{path}/rows/{r}/{j}") for j, c in enumerate(row))
            )
        foot_obj = obj["footnotes"]
        if not isinstance(foot_obj, list):
            raise SchemaError(f"{path}/footnotes", "expected array")
        footnotes = []
        for i, fn in enumerate(foot_obj):
            _require_keys(fn, ("marker", "text"), f"{path}/footnotes/{i}")
            footnotes.append(
                (
                    _check_str(fn["marker"], f"{path}/footnotes/{i}/marker"),
                    _check_str(fn["text"], f"{path}/footnotes/{i}/text"),
                )
            )
        table = TableBlock(
            id=_check_str(obj["id"], f"{path}/id"),
            prov=_parse_prov(obj["prov"], f"{path}/prov", require_clause=True),
            rows=tuple(rows),
            caption=_check_str(obj["caption"], f"{path}/caption"),
            footnotes=tuple(footnotes),
        )
        expand_grid(table)  # raises SpanError on bad spans
        return table
    # equation
    _require_keys(obj, ("kind", "id", "prov", "math_src", "label"), path)
    return EquationBlock(
        id=_check_str(obj["id"], f"{path}/id"),
        prov=_parse_prov(obj["prov"], f"{path}/prov", require_clause=True),
        math_src=_check_str(obj["math_src"], f"{path}/math_src"),
        label=_check_opt_str(obj["label"], f"{path}/label"),
    )


def load_document(data: Union[bytes, str]) -> SourceDocument:
    """Parse and validate one intermediate-JSON document.

    Raises SchemaError (with a JSON-pointer path), SpanError for table spans
    that exit the grid or leave holes, and OrderError when reading_order is
    not a permutation of block indices.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from exc
    _require_keys(obj, ("id", "blocks", "reading_order"), "")
    doc_id = _check_str(obj["id"], "/id")
    if not isinstance(obj["blocks"], list):
        raise SchemaError("/blocks", "expected array")
    blocks = tuple(
        _parse_block(b, f"/blocks/{i}") for i, b in enumerate(obj["blocks"])
    )
    order_obj = obj["reading_order"]
    if not isinstance(order_obj, list):
        raise SchemaError("/reading_order", "expected array")
    order = tuple(_check_int(v, f"/reading_order/{i}") for i, v in enumerate(order_obj))
    if sorted(order) != list(range(len(blocks))):
        raise OrderError(
            f"reading_order {list(order)} is not a permutation of 0..{len(blocks) - 1}"
        )
    seen_ids = set()
    for i, b in enumerate(blocks):
        if b.id in seen_ids:
            raise SchemaError(f"/blocks/{i}/id", f"duplicate block id {b.id!r}")
        seen_ids.add(b.id)
    for i, b in enumerate(blocks):
        if isinstance(b, ParagraphBlock):
            parent = next((x for x in blocks if x.id == b.parent_section), None)
            if parent is None or not isinstance(parent, SectionBlock):
                raise SchemaError(
                    f"/blocks/{i}/parent_section",
                    f"parent_section {b.parent_section!r} is not a section block id",
                )
    return SourceDocument(id=doc_id, blocks=blocks, reading_order=order)


# --- span expansion ---------------------------------------------------------

def expand_grid(table: TableBlock) -> list[list[tuple[int, int]]]:
    """Expand row/col spans into a rectangular ownership matrix.

    Each output position holds the (row_index, cell_index) of the CellSpec
    that owns it. Placement follows first-free-column order per row. Raises
    SpanError when a span exits the grid, overlaps another cell, or leaves
    the expanded grid non-rectangular.
    """
    height = len(table.rows)
    owner: dict[tuple[int, int], tuple[int, int]] = {}
    for r, row in enumerate(table.rows):
        c = 0
        for j, cell in enumerate(row):
            while (r, c) in owner:
                c += 1
            if r + cell.row_span > height:
                raise SpanError(
                    f"cell at row {r} position {j} spans below the last row"
                )
            for dr in range(cell.row_span):
                for dc in range(cell.col_span):
                    pos = (r + dr, c + dc)
                    if pos in owner:
                        raise SpanError(
                            f"cell at row {r} position {j} overlaps cell "
                            f"{owner[pos]} at grid position {pos}"
                        )
                    owner[pos] = (r, j)
            c += cell.col_span
    if not owner:
        raise SpanError("table grid is empty after expansion")
    width = max(c for (_, c) in owner) + 1
    for r in range(height):
        for c in range(width):
            if (r, c) not in owner:
                raise SpanError(
                    f"grid is not rectangular: hole at position ({r}, {c})"
                )
    return [[owner[(r, c)] for c in range(width)] for r in range(height)]


# --- corpus validation ------------------------------------------------------

def validate_corpus(docs: list[SourceDocument]) -> CorpusReport:
    """Report duplicate doc ids, dangling footnote markers, empty clauses.

    Pure function: inspects, never mutates, never raises.
    """
    report = CorpusReport()
    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen and doc.id not in report.duplicate_ids:
            report.duplicate_ids.append(doc.id)
        seen.add(doc.id)
    for doc in docs:
        for block in doc.blocks:
            if isinstance(block, TableBlock):
                known = {m for m, _ in block.footnotes}
                for row in block.rows:
                    for cell in row:
                        for marker in cell.footnote_markers:
                            if marker not in known:
                                report.dangling_markers.append(
                                    (doc.id, block.id, marker)
                                )
        # a section is an empty clause when nothing references or inhabits it
        for block in doc.blocks:
            if not isinstance(block, SectionBlock):
                continue
            has_content = any(
                (isinstance(b, ParagraphBlock) and b.parent_section == block.id)
                or (
                    not isinstance(b, SectionBlock)
                    and b.prov.clause_id == block.prov.clause_id
                    and block.prov.clause_id != ""
                )
                for b in doc.blocks
            )
            if not has_content:
                report.empty_clauses.append((doc.id, block.id))
    return report
