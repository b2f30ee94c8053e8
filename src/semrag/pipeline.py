"""End-to-end orchestration: documents in, queryable bundle out.

compile_corpus runs every compiler over every document and merges the
fragments; build_bundle adds the entropy index and community summaries
and writes the bundle. This module alone holds the bundle's on-disk
contract: which members a config writes, the format version, and the
manifest.json that records a sha256 for every member, byte-identical
across offline runs (no timestamps, sorted keys). A member holds only what
the graph does not: the graph itself, the partition with its entropies,
and the vector counts, whose row order is the graph's (indexed_ids) and
whose row count the manifest records. A build is written to a fresh
directory beside the target and renamed onto it whole. load_bundle reads
each member once, checks it against the manifest, and decodes those same
bytes, failing closed on a missing member, one the build does not write,
or one that does not match. make_engine wires the loaded graph and
vectors to the retrieval engine. An aligned build also trains and saves
the view aligner (align.json); retrieval does not read it.

Opening a bundle, and compiling and minimizing a corpus, run with the
cyclic garbage collector paused (_CollectorPaused). These phases make
objects for every node and edge and no reference cycle, so the collector's
repeated passes over them would free nothing; reference counting frees
what they drop, as always. A test pins that they leave no cyclic garbage.
The collector is left as it was found when the phase ends, also when it
raises.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .doc_model import (
    EquationBlock,
    SourceDocument,
    TableBlock,
    canonical_json_bytes,
    validate_corpus,
)
from .errors import ChecksumError, FormatVersionError, SchemaError
from .formula_compiler import Var, compile_formula, link_symbol_definitions
from .graph_core import (
    NodeType, RelationType, TypedGraph, load_graph, merge_units, save_graph
)
from .layout_compiler import Gazetteer, compile_table, compile_text
from .llm_clients import Clients, TokenLedger, make_clients, summarize_with
from .query_engine import (
    QueryEngine, RetrievalConfig, index_vectors, indexed_ids, retrieval_text
)
from .sem_index import MinimizeResult, materialize_macronodes, sem_minimize
from .vector_align import (
    AlignConfig,
    AlignResult,
    align_views,
    embed_text,
    load_alignment,
    load_vectors,
    save_alignment,
    save_vectors,
    topo_feature,
)

logger = logging.getLogger(__name__)

BUNDLE_FORMAT_VERSION = 2

# config field annotation -> accepted JSON value types; bool is not an int here
_JSON_TYPES = {"int": (int,), "bool": (bool,)}


@dataclass
class PipelineConfig:
    budget: int = 5
    summary_budget_tokens: int = 500
    khop: int = 3
    offline: bool = True
    align: bool = False

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj) -> "PipelineConfig":
        """The config a manifest records; every field present, no other,
        each of its field's type, and no int negative."""
        if not isinstance(obj, dict):
            raise SchemaError("/config", "bundle manifest holds no config object")
        expected = {f.name: f.type for f in fields(cls)}
        missing = sorted(expected.keys() - obj.keys())
        unknown = sorted(obj.keys() - expected.keys())
        if missing or unknown:
            raise SchemaError(
                "/config", f"config keys missing {missing}, unknown {unknown}"
            )
        for name, type_name in expected.items():
            if type(obj[name]) not in _JSON_TYPES[type_name]:
                raise SchemaError(
                    f"/config/{name}",
                    f"expected {type_name}, found {type(obj[name]).__name__}",
                )
            if type_name == "int" and obj[name] < 0:
                raise SchemaError(
                    f"/config/{name}", f"expected a non-negative int, found {obj[name]}"
                )
        return cls(**obj)


def _members(cfg: PipelineConfig) -> list[str]:
    """The checksummed files build_bundle writes under a config."""
    members = ["nodes.jsonl", "edges.jsonl", "index.json", "vectors.bin"]
    if cfg.align:
        members.append("align.json")
    return members


def compile_corpus(
    docs: Sequence[SourceDocument], gazetteer: Sequence[str] = ()
) -> TypedGraph:
    """All compilers over all documents, merged into one graph."""
    report = validate_corpus(list(docs))
    if not report.ok:
        logger.warning(
            "corpus validation found issues: duplicates=%s dangling=%s empty=%s",
            report.duplicate_ids,
            report.dangling_markers,
            report.empty_clauses,
        )
    patterns = Gazetteer(gazetteer)
    fragments = []
    for doc in docs:
        fragments.append(compile_text(doc, patterns).fragment)
        for block in doc.ordered_blocks():
            if isinstance(block, TableBlock):
                fragments.append(compile_table(doc.id, block).fragment)
            elif isinstance(block, EquationBlock):
                sub = compile_formula(doc.id, block)
                symbols = [Var(name) for name in sorted(sub.variables)]
                pairs, diags = link_symbol_definitions(symbols, doc, block)
                for symbol, para_block_id in pairs:
                    sub.fragment.add_edge(
                        sub.variables[symbol],
                        RelationType.DEFINES,
                        f"{doc.id}:{para_block_id}",
                    )
                for line in diags:
                    logger.debug("symbol linking: %s", line)
                fragments.append(sub.fragment)
    return merge_units(fragments)


# --- bundle persistence -----------------------------------------------------

def _index_to_json(result: MinimizeResult) -> dict:
    return {"partition": result.partition, "h1": result.h1, "h2": result.h2}


def _field(obj: dict, key: str, types: tuple) -> object:
    value = obj.get(key)
    if type(value) not in types:
        kinds = " or ".join(t.__name__ for t in types)
        raise SchemaError(f"/{key}", f"index.json {key} is missing or not {kinds}")
    return value


def _index_from_json(obj, graph: TypedGraph) -> MinimizeResult:
    """The index index.json records over the graph, with no dendrogram; a
    key that is missing or of the wrong type, or a partition that does not
    name exactly the graph's non-macro nodes, raises SchemaError."""
    if not isinstance(obj, dict):
        raise SchemaError("", "index.json is not a JSON object")
    partition = _field(obj, "partition", (dict,))
    if not all(isinstance(v, str) for v in partition.values()):
        raise SchemaError("/partition", "index.json maps a node to no community key")
    nodes = {nid for nid, n in graph.nodes.items() if n.type is not NodeType.MACRO_NODE}
    if partition.keys() != nodes:
        raise SchemaError(
            "/partition",
            "index.json partition does not name the graph's nodes exactly (missing "
            f"{sorted(nodes - partition.keys())[:3]}, unknown "
            f"{sorted(partition.keys() - nodes)[:3]})",
        )
    return MinimizeResult(
        partition=partition,
        dendrogram=[],
        h1=_field(obj, "h1", (int, float)),
        h2=_field(obj, "h2", (int, float)),
    )


def _json(blob: bytes):
    return json.loads(blob.decode("utf-8"))


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Bundle:
    """A built or loaded bundle. ``vectors`` is the matrix QueryEngine
    takes, one row per indexed_ids entry: index_vectors' int32 counts
    after a build, load_vectors' float64 unit rows after a load, which the
    engine then shares rather than copies. ``index`` carries the
    minimizer's dendrogram after a build and an empty one after a load,
    since the bundle does not record it."""

    path: Path
    graph: TypedGraph
    index: MinimizeResult
    config: PipelineConfig
    vectors: np.ndarray
    clients: Optional[Clients] = None
    alignment: Optional[AlignResult] = None


class _CollectorPaused:
    """A block that runs with the cyclic garbage collector disabled, and
    leaves it enabled or disabled as it was found, also when the block
    raises. Nothing is collected on the way out: the young generation's
    next pass, at an allocation after the block, covers what it made."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


@contextmanager
def _landing(out: Path) -> Iterator[Path]:
    """A fresh directory beside ``out`` to write a bundle into, renamed
    onto ``out`` when the block ends without error and removed either way.

    ``out`` may be absent, an empty directory or a bundle; anything else
    is refused with an OSError before a file is written.
    """
    if out.exists() and not (
        out.is_dir() and ((out / "manifest.json").is_file() or not any(out.iterdir()))
    ):
        raise FileExistsError(
            f"{out} holds files but no bundle manifest; not replacing it"
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        new, old = stage / "new", stage / "old"
        new.mkdir()  # under the umask, as a plain mkdir of out would be
        yield new
        if out.exists():
            out.rename(old)
        try:
            new.rename(out)
        except BaseException:
            if old.exists():
                old.rename(out)
            raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def build_bundle(
    docs: Sequence[SourceDocument],
    gazetteer: Sequence[str],
    out_dir: str | Path,
    config: Optional[PipelineConfig] = None,
    clients: Optional[Clients] = None,
) -> Bundle:
    """Compile, index, summarize, and persist one corpus.

    The bundle directory holds the graph (nodes and edges), the community
    partition with its entropies, the vector index, the optional
    alignment model, and a manifest with configuration, counts (the
    vector rows among them), and a checksum of each of them. The
    gazetteer lives on as the graph's Term nodes, and the dendrogram only
    in the returned index. Wall-clock data goes to a separate ledger file
    outside the checksummed set, so two offline runs over the same input
    produce byte-identical bundles.

    ``out_dir`` gets the whole bundle or keeps what it held: the files are
    written into a fresh directory beside it, which is then renamed onto
    it. It may be absent, empty, or a bundle; any other directory is
    refused with an OSError.

    Given clients are used and returned as they are. Otherwise the build
    makes clients with a ledger for the ledger file, and returns clients
    without one, as load_bundle does, so that answering from the returned
    bundle holds no memory per question.

    Compiling and minimizing run with the cyclic garbage collector paused:
    they make no reference cycle, so its passes over the growing graph
    would free nothing. Its state is restored afterwards, also on error.
    """
    cfg = config or PipelineConfig()
    given = clients
    clients = given or make_clients(offline=cfg.offline, ledger=TokenLedger())
    out = Path(out_dir)
    with _landing(out) as new:
        with _CollectorPaused():
            graph = compile_corpus(docs, gazetteer)
            index = sem_minimize(graph)
        materialize_macronodes(
            graph,
            index,
            lambda text, budget: _summary_tuple(clients, text, budget),
            budget_tokens=cfg.summary_budget_tokens,
        )
        members = dict(zip(("nodes.jsonl", "edges.jsonl"), save_graph(graph)))
        members["index.json"] = canonical_json_bytes(_index_to_json(index)) + b"\n"
        alignment = None
        if cfg.align:
            alignment = train_alignment(graph)
            members["align.json"] = save_alignment(alignment)
        counts = index_vectors(graph)
        members["vectors.bin"] = save_vectors(counts)
        for name, blob in members.items():
            (new / name).write_bytes(blob)
        manifest = {
            "format_version": BUNDLE_FORMAT_VERSION,
            "config": cfg.to_json(),
            "counts": {
                "documents": len(docs),
                "nodes": len(graph.nodes),
                "edges": len(graph.edges),
                "communities": len(index.communities),
                "vectors": len(counts),
            },
            "checksums": {name: _sha256(members[name]) for name in _members(cfg)},
        }
        (new / "manifest.json").write_bytes(canonical_json_bytes(manifest) + b"\n")
        # clients without a ledger recorded no call: a header-only file
        (clients.ledger or TokenLedger()).to_csv(new / "token_ledger.csv")
    return Bundle(
        path=out,
        graph=graph,
        index=index,
        config=cfg,
        clients=given or make_clients(offline=cfg.offline),
        vectors=counts,
        alignment=alignment,
    )


def _summary_tuple(clients: Clients, text: str, budget: int) -> tuple[str, int]:
    summary = summarize_with(clients.llm, text, budget)
    return summary.text, summary.tokens_used


def load_bundle(path: str | Path, clients: Optional[Clients] = None) -> Bundle:
    """Open a bundle: each member is read once, checked against its
    manifest checksum, and decoded from the bytes that were checked. The
    manifest's vector row count must be the graph's indexable node count,
    checked before the rows are allocated; the rows are in indexed_ids
    order. The index has an empty dendrogram. Clients made for it keep no
    token ledger, so that answering from it holds no memory per question.

    The whole open runs with the cyclic garbage collector paused: decoding
    makes no reference cycle, so its passes over the graph being decoded
    would free nothing. Its state is restored afterwards, also on error.
    """
    with _CollectorPaused():
        src = Path(path)
        manifest = _json((src / "manifest.json").read_bytes())
        if not isinstance(manifest, dict):
            raise SchemaError("", "bundle manifest is not a JSON object")
        if manifest.get("format_version") != BUNDLE_FORMAT_VERSION:
            raise FormatVersionError(
                f"unknown bundle format version {manifest.get('format_version')!r}"
            )
        cfg = PipelineConfig.from_json(manifest.get("config"))
        members = manifest.get("checksums")
        if not isinstance(members, dict) or not all(
            isinstance(v, str) for v in members.values()
        ):
            raise SchemaError(
                "/checksums", "bundle manifest holds no member-to-checksum object"
            )
        written = _members(cfg)
        for name in written:
            if name not in members:
                raise SchemaError("/checksums", f"bundle manifest lists no {name}")
        unknown = sorted(members.keys() - set(written))
        if unknown:
            raise SchemaError(
                "/checksums",
                f"bundle manifest lists members its config does not write: {unknown}",
            )
        blobs = {}
        for name, expected in members.items():
            blobs[name] = (src / name).read_bytes()
            if _sha256(blobs[name]) != expected:
                raise ChecksumError(f"bundle member {name} does not match its checksum")
        # each member's bytes are dropped once decoded, so that no two copies
        # of the graph are held at once
        graph = load_graph(blobs.pop("nodes.jsonl"), blobs.pop("edges.jsonl"))
        index = _index_from_json(_json(blobs.pop("index.json")), graph)
        counts = manifest.get("counts")
        rows = counts.get("vectors") if isinstance(counts, dict) else None
        indexable = len(indexed_ids(graph))
        if type(rows) is not int or rows != indexable:
            raise SchemaError(
                "/counts/vectors",
                f"bundle manifest records {rows!r} vector rows, not the graph's "
                f"{indexable} indexable nodes",
            )
        vectors = load_vectors(blobs.pop("vectors.bin"), rows)
        alignment = load_alignment(blobs.pop("align.json")) if cfg.align else None
        return Bundle(
            path=src,
            graph=graph,
            index=index,
            config=cfg,
            clients=clients or make_clients(offline=cfg.offline),
            vectors=vectors,
            alignment=alignment,
        )


# --- engine assembly --------------------------------------------------------

def make_engine(bundle: Bundle) -> QueryEngine:
    """Retrieval engine over a bundle's graph and vectors."""
    cfg = bundle.config
    return QueryEngine(
        bundle.graph,
        bundle.vectors,
        config=RetrievalConfig(budget=cfg.budget, khop=cfg.khop),
    )


def train_alignment(graph: TypedGraph, sample_limit: int = 256) -> AlignResult:
    """Fit the view aligner on the graph's own (text, topology) pairs."""
    ids = [nid for nid in indexed_ids(graph) if graph.nodes[nid].text][:sample_limit]
    texts = [embed_text(retrieval_text(graph, nid)) for nid in ids]
    topos = [topo_feature(graph, nid) for nid in ids]
    return align_views(texts, topos, AlignConfig())
