"""Command-line interface: index, query, stats, export-graph.

Exit codes are part of the contract: 0 success, 1 user error (bad input
files, bad bundle, nothing to index, a route that the bundle cannot
serve, online generation with no endpoint set), 2 internal processing
failure, 3 upstream service failure (the generation endpoint). Indexing
takes a corpus directory of intermediate-JSON documents; every other
command takes a bundle directory produced by `semrag index`.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .doc_model import canonical_json_bytes, decode_json, load_document
from .errors import (
    ChecksumError,
    EmptyGraph,
    EmptyIndex,
    FormatVersionError,
    HeaderAmbiguityError,
    HttpError,
    MissingEndpoint,
    NoMacroNodes,
    NotFound,
    OrderError,
    ParseError,
    SchemaError,
    SemragError,
    SpanError,
    SummarizerError,
    UnsupportedConstructError,
)
from .graph_core import NodeType
from .pipeline import PipelineConfig, build_bundle, load_bundle, make_engine
from .query_engine import Route

logger = logging.getLogger(__name__)

EXIT_USER_ERROR = 1
EXIT_INTERNAL_ERROR = 2
EXIT_UPSTREAM_ERROR = 3

_USER_ERRORS = (
    SchemaError,
    SpanError,
    OrderError,
    HeaderAmbiguityError,
    UnsupportedConstructError,
    ParseError,
    EmptyGraph,
    NotFound,
    EmptyIndex,
    NoMacroNodes,
    FormatVersionError,
    ChecksumError,
    MissingEndpoint,
    OSError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)
_UPSTREAM_ERRORS = (HttpError, SummarizerError, TimeoutError)

# budgets and hop bounds: a negative value is a usage error
_COUNT = click.IntRange(min=0)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _UPSTREAM_ERRORS as exc:
            _fail(str(exc), EXIT_UPSTREAM_ERROR)
        except _USER_ERRORS as exc:
            _fail(str(exc), EXIT_USER_ERROR)
        except SemragError as exc:
            _fail(str(exc), EXIT_INTERNAL_ERROR)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
def cli():
    """Structure-preserving retrieval over standards documents."""


def _read_corpus(corpus_dir: Path) -> tuple[list, list[str]]:
    """Load every intermediate-JSON document in a directory, sorted by name.

    A gazetteer.json file (a JSON array of strings) rides along as the
    entity gazetteer; it is not itself a document. Anything else in it
    raises SchemaError.
    """
    docs = []
    gazetteer: list[str] = []
    for path in sorted(corpus_dir.glob("*.json")):
        if path.name == "gazetteer.json":
            terms = decode_json(path.read_text("utf-8"), "gazetteer.json")
            if type(terms) is not list:
                raise SchemaError("", "gazetteer.json is not a JSON array of strings")
            for i, term in enumerate(terms):
                if type(term) is not str:
                    raise SchemaError(f"/{i}", f"gazetteer.json term {i} is not a string")
            gazetteer = [term for term in terms if term.strip()]
            continue
        docs.append(load_document(path.read_bytes()))
    return docs, gazetteer


@cli.command("index")
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option(
    "--gazetteer",
    "gazetteer_path",
    type=click.Path(exists=True, dir_okay=False),
    help="entity list, one term per line (overrides corpus gazetteer.json)",
)
@click.option(
    "--k", default=5, show_default=True, type=_COUNT, help="evidence budget per query"
)
@click.option(
    "--ts", default=500, show_default=True, type=_COUNT, help="summary token budget"
)
@click.option(
    "--khop", default=3, show_default=True, type=_COUNT, help="expansion hop bound"
)
@click.option("--offline/--online", default=True, show_default=True)
@click.option("--align/--no-align", default=False, show_default=True)
@_guard
def cmd_index(corpus_dir, out_dir, gazetteer_path, k, ts, khop, offline, align):
    """Compile a corpus directory into an indexed bundle directory.

    The bundle lands whole or not at all: it replaces an existing bundle
    or an empty directory, and a failed run leaves --out as it was.
    """
    docs, gazetteer = _read_corpus(Path(corpus_dir))
    if not docs:
        _fail("no documents found", EXIT_USER_ERROR)
    if gazetteer_path:
        gazetteer = [
            line.strip()
            for line in Path(gazetteer_path).read_text("utf-8").splitlines()
            if line.strip()
        ]
    config = PipelineConfig(
        budget=k,
        summary_budget_tokens=ts,
        khop=khop,
        offline=offline,
        align=align,
    )
    bundle = build_bundle(docs, gazetteer, out_dir, config=config)
    click.echo(
        f"bundle written to {bundle.path}: "
        f"{len(bundle.graph.nodes)} nodes, {len(bundle.graph.edges)} edges, "
        f"{len(bundle.index.communities)} communities"
    )


@cli.command("query")
@click.argument("bundle_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("question", required=False)
@click.option("--row", help="comma-separated row header path")
@click.option("--col", help="comma-separated column header path")
@click.option("--given", help="comma-separated footnote markers taken as satisfied")
@click.option(
    "--route",
    "route_name",
    type=click.Choice(["low", "med", "high"]),
    help="bypass the router and force this retrieval route",
)
@click.option("--json", "as_json", is_flag=True, help="print canonical JSON")
@click.option("--k", default=None, type=_COUNT, help="override evidence budget")
@_guard
def cmd_query(bundle_dir, question, row, col, given, route_name, as_json, k):
    """Answer a question, or look up a table cell by header paths."""
    bundle = load_bundle(bundle_dir)
    if k is not None:
        bundle.config.budget = k
    engine = make_engine(bundle)
    if row or col:
        hits = engine.lookup(
            tuple(part for part in (row or "").split(",") if part),
            tuple(part for part in (col or "").split(",") if part),
            tuple(part for part in (given or "").split(",") if part),
        )
        if as_json:
            payload = [
                {
                    "node_id": h.node_id,
                    "value": h.value,
                    "unit": h.unit,
                    "condition": h.condition,
                    "prov": h.prov,
                }
                for h in hits
            ]
            click.echo(canonical_json_bytes(payload).decode("utf-8"))
        else:
            for h in hits:
                condition = f" [when: {h.condition}]" if h.condition else ""
                unit = f" {h.unit}" if h.unit else ""
                click.echo(
                    f"{h.value}{unit}{condition} "
                    f"(clause {h.prov.get('clause_id')}, {h.prov.get('doc_id')})"
                )
        return
    if not question:
        raise click.UsageError("provide a question or --row/--col header paths")
    route = Route(route_name) if route_name else None
    result = engine.answer(question, bundle.clients.llm, route=route)
    if as_json:
        click.echo(canonical_json_bytes(result.to_json()).decode("utf-8"))
    else:
        click.echo(f"route: {result.route}")
        for i, record in enumerate(result.records, start=1):
            guard = f" [given: {record.condition}]" if record.condition else ""
            click.echo(
                f"[{i}] {record.statement}{guard} "
                f"(clause {record.clause}, {record.doc_id} p.{record.page})"
            )
        click.echo(f"answer: {result.answer}")


@cli.command("stats")
@click.argument("bundle_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--json", "as_json", is_flag=True)
@_guard
def cmd_stats(bundle_dir, as_json):
    """Entropy, community and indexing-token statistics.

    The entropies are the h1 and h2 that index.json records, taken when
    the graph was indexed, before its macro nodes were attached.
    index_tokens is what summarizing the communities cost: the tokens_used
    recorded on the macro nodes.
    """
    bundle = load_bundle(bundle_dir)
    node_counts: dict[str, int] = {}
    for node in bundle.graph.nodes.values():
        node_counts[node.type.value] = node_counts.get(node.type.value, 0) + 1
    edge_counts: dict[str, int] = {}
    for edge in bundle.graph.edges:
        edge_counts[edge.rel.value] = edge_counts.get(edge.rel.value, 0) + 1
    flat, partitioned = bundle.index.h1, bundle.index.h2
    histogram: dict[int, int] = {}
    for members in bundle.index.communities.values():
        histogram[len(members)] = histogram.get(len(members), 0) + 1
    index_tokens = 0
    for node in bundle.graph.nodes_of_type(NodeType.MACRO_NODE):
        tokens = node.attrs.get("tokens_used")
        if type(tokens) is not int:
            raise SchemaError(
                f"/{node.id}/attrs/tokens_used",
                f"macro node {node.id!r} records no int tokens_used",
            )
        index_tokens += tokens
    payload = {
        "nodes": len(bundle.graph.nodes),
        "edges": len(bundle.graph.edges),
        "node_types": dict(sorted(node_counts.items())),
        "relations": dict(sorted(edge_counts.items())),
        "flat_entropy_bits": round(flat, 9),
        "partition_entropy_bits": round(partitioned, 9),
        "communities": len(bundle.index.communities),
        "index_tokens": index_tokens,
        "community_size_histogram": {
            str(size): count for size, count in sorted(histogram.items())
        },
    }
    if as_json:
        click.echo(canonical_json_bytes(payload).decode("utf-8"))
        return
    click.echo(f"nodes: {payload['nodes']}")
    click.echo(f"edges: {payload['edges']}")
    for name, count in payload["node_types"].items():
        click.echo(f"  node type {name}: {count}")
    for name, count in payload["relations"].items():
        click.echo(f"  relation {name}: {count}")
    click.echo(f"flat entropy: {flat:.6f} bits")
    click.echo(f"partition entropy: {partitioned:.6f} bits")
    click.echo(f"communities: {payload['communities']}")
    click.echo(f"index tokens: {index_tokens}")
    sizes = " ".join(
        f"{size}x{count}" for size, count in sorted(histogram.items())
    )
    click.echo(f"community sizes: {sizes or '(none)'}")


@cli.command("export-graph")
@click.argument("bundle_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_guard
def cmd_export_graph(bundle_dir, out_dir):
    """Copy a bundle's graph members, nodes.jsonl and edges.jsonl, byte for
    byte, once the bundle has opened: every member matches its checksum
    and the graph decodes."""
    bundle = load_bundle(bundle_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("nodes.jsonl", "edges.jsonl"):
        (out / name).write_bytes((bundle.path / name).read_bytes())
    click.echo(
        f"graph exported to {out}: "
        f"{len(bundle.graph.nodes)} nodes, {len(bundle.graph.edges)} edges"
    )


def main():
    try:
        cli(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USER_ERROR)
    except click.Abort:
        sys.exit(EXIT_USER_ERROR)


if __name__ == "__main__":
    main()
