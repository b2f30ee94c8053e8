"""End-to-end orchestration: documents in, queryable bundle out.

compile_corpus runs every compiler over every document and merges the
fragments; build_bundle adds the entropy index, community summaries, and a
checksummed on-disk bundle whose manifest is byte-identical across offline
runs (no timestamps, sorted keys). load_bundle verifies the checksums
and fails closed on a missing member or one the build does not write,
and make_engine wires the loaded graph and vectors to the retrieval
engine. An aligned build also trains and saves the view aligner
(align.json); retrieval does not read it.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from .doc_model import (
    EquationBlock,
    SourceDocument,
    TableBlock,
    canonical_json_bytes,
    validate_corpus,
)
from .errors import ChecksumError, FormatVersionError, SchemaError
from .formula_compiler import Var, compile_formula, link_symbol_definitions
from .graph_core import RelationType, TypedGraph, load_graph, merge_units, save_graph
from .layout_compiler import Gazetteer, compile_table, compile_text
from .llm_clients import Clients, make_clients, summarize_with
from .query_engine import QueryEngine, RetrievalConfig, index_vectors
from .sem_index import Merge, MinimizeResult, materialize_macronodes, sem_minimize
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

BUNDLE_FORMAT_VERSION = 1

# config field annotation -> accepted JSON value types; bool is not an int here
_JSON_TYPES = {"int": (int,), "bool": (bool,)}


@dataclass
class PipelineConfig:
    budget: int = 5
    summary_budget_tokens: int = 500
    khop: int = 3
    offline: bool = True
    seed: int = 0
    align: bool = False

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj) -> "PipelineConfig":
        """The config a manifest records; every field present, no other,
        each of its field's type."""
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
        return cls(**obj)


def _members(cfg: PipelineConfig) -> list[str]:
    """The checksummed files build_bundle writes under a config."""
    members = [
        "nodes.jsonl",
        "edges.jsonl",
        "index.json",
        "gazetteer.json",
        "vectors.json",
        "vectors.bin",
    ]
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
    return {
        "partition": result.partition,
        "dendrogram": [[m.a, m.b, m.merged, m.delta] for m in result.dendrogram],
        "h1": result.h1,
        "h2": result.h2,
        "epsilon": result.epsilon,
    }


def _index_from_json(obj: dict) -> MinimizeResult:
    communities: dict[str, list[str]] = {}
    for nid, key in obj["partition"].items():
        communities.setdefault(key, []).append(nid)
    for key in communities:
        communities[key].sort()
    return MinimizeResult(
        partition=dict(obj["partition"]),
        communities=communities,
        dendrogram=[Merge(a, b, m, d) for a, b, m, d in obj["dendrogram"]],
        h1=obj["h1"],
        h2=obj["h2"],
        epsilon=obj["epsilon"],
    )


@dataclass
class Bundle:
    path: Path
    graph: TypedGraph
    index: MinimizeResult
    config: PipelineConfig
    vectors: tuple
    clients: Optional[Clients] = None
    alignment: Optional[AlignResult] = None


def build_bundle(
    docs: Sequence[SourceDocument],
    gazetteer: Sequence[str],
    out_dir: str | Path,
    config: Optional[PipelineConfig] = None,
    clients: Optional[Clients] = None,
) -> Bundle:
    """Compile, index, summarize, and persist one corpus.

    The bundle directory holds the graph (nodes and edges plus their own
    manifest), the community index with its dendrogram, the vector index
    sidecar, the optional alignment model, and a manifest
    with configuration, counts, and content checksums. Wall-clock data
    goes to a separate ledger file outside the checksummed set, so two
    offline runs over the same input produce byte-identical manifests.
    """
    cfg = config or PipelineConfig()
    clients = clients or make_clients(offline=cfg.offline)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = compile_corpus(docs, gazetteer)
    index = sem_minimize(graph)
    materialize_macronodes(
        graph,
        index,
        lambda text, budget: _summary_tuple(clients, text, budget),
        budget_tokens=cfg.summary_budget_tokens,
    )
    save_graph(graph, out)
    index_bytes = canonical_json_bytes(_index_to_json(index)) + b"\n"
    (out / "index.json").write_bytes(index_bytes)
    gaz_bytes = canonical_json_bytes(sorted(set(gazetteer))) + b"\n"
    (out / "gazetteer.json").write_bytes(gaz_bytes)
    alignment = None
    if cfg.align:
        alignment = train_alignment(graph, seed=cfg.seed)
        save_alignment(out / "align.json", alignment)
    ids, counts = index_vectors(graph)
    save_vectors(out, ids, counts)
    checksums = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in _members(cfg)
    }
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "config": cfg.to_json(),
        "counts": {
            "documents": len(docs),
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "communities": len(index.communities),
        },
        "checksums": checksums,
    }
    (out / "manifest.json").write_bytes(canonical_json_bytes(manifest) + b"\n")
    clients.ledger.to_csv(out / "token_ledger.csv")
    return Bundle(
        path=out,
        graph=graph,
        index=index,
        config=cfg,
        clients=clients,
        vectors=(ids, counts),
        alignment=alignment,
    )


def _summary_tuple(clients: Clients, text: str, budget: int) -> tuple[str, int]:
    summary = summarize_with(clients.llm, text, budget)
    return summary.text, summary.tokens_used


def load_bundle(path: str | Path, clients: Optional[Clients] = None) -> Bundle:
    src = Path(path)
    manifest = json.loads((src / "manifest.json").read_text("utf-8"))
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
    for name, expected in members.items():
        actual = hashlib.sha256((src / name).read_bytes()).hexdigest()
        if actual != expected:
            raise ChecksumError(f"bundle member {name} does not match its checksum")
    graph = load_graph(src)
    index = _index_from_json(json.loads((src / "index.json").read_text("utf-8")))
    alignment = load_alignment(src / "align.json") if cfg.align else None
    return Bundle(
        path=src,
        graph=graph,
        index=index,
        config=cfg,
        clients=clients or make_clients(offline=cfg.offline),
        vectors=load_vectors(src),
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


def train_alignment(
    graph: TypedGraph, seed: int = 0, sample_limit: int = 256
) -> AlignResult:
    """Fit the view aligner on the graph's own (text, topology) pairs."""
    from .query_engine import INDEXED_TYPES, retrieval_text

    indexed = set(INDEXED_TYPES)
    ids = [
        nid
        for nid in sorted(graph.nodes)
        if graph.nodes[nid].type in indexed and graph.nodes[nid].text
    ][:sample_limit]
    texts = [embed_text(retrieval_text(graph, nid)) for nid in ids]
    topos = [topo_feature(graph, nid) for nid in ids]
    return align_views(texts, topos, AlignConfig(seed=seed))
