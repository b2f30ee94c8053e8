"""The CLI exit-code contract and client selection.

0 success, 1 user error, 2 internal failure, 3 upstream failure. No test
reaches the network: ``requests.post`` is replaced in every test that
builds an online client.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import requests
from click.testing import CliRunner

from semrag.cli import EXIT_UPSTREAM_ERROR, EXIT_USER_ERROR, cli, main
from semrag.doc_model import canonical_json_bytes, serialize
from semrag.graph_core import NodeType
from semrag.llm_clients import (
    ENV_LLM_ENDPOINT,
    ENV_OFFLINE,
    HttpLlmClient,
    OfflineLlmClient,
    make_clients,
)
from conftest import rewrite_member
from semrag.pipeline import PipelineConfig, build_bundle, load_bundle
from semrag.query_engine import index_vectors, indexed_ids
from semrag.synth import synthetic_corpus
from semrag.vector_align import load_vectors, save_vectors

QUESTION = "value of param000 under Limit00 Maximum"
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_STATS = GOLDEN / "cli_stats.json"
GOLDEN_LOOKUPS = GOLDEN / "cli_lookups.json"


@pytest.fixture
def env(monkeypatch):
    for name in (ENV_LLM_ENDPOINT, ENV_OFFLINE):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


@pytest.fixture
def online_bundle(tmp_path, env):
    """A bundle whose config asks for the remote generator at query time."""
    corpus = synthetic_corpus(n_docs=3, seed=0)
    out = tmp_path / "bundle"
    build_bundle(
        corpus.docs, corpus.gazetteer, out,
        config=PipelineConfig(offline=False),
        clients=make_clients(offline=True),
    )
    env.setenv(ENV_LLM_ENDPOINT, "http://localhost:9")
    return out


def _response(status: int, body: bytes) -> requests.Response:
    response = requests.Response()
    response.status_code = status
    response._content = body
    return response


def _query(bundle: Path):
    return CliRunner().invoke(cli, ["query", str(bundle), QUESTION])


def test_connection_error_at_query_time_is_upstream(online_bundle, env):
    def refuse(*args, **kwargs):
        raise requests.ConnectionError("connection refused")

    env.setattr(requests, "post", refuse)
    result = _query(online_bundle)
    assert result.exit_code == EXIT_UPSTREAM_ERROR, result.output


def test_undecodable_body_is_upstream(online_bundle, env):
    env.setattr(requests, "post", lambda *a, **k: _response(200, b"<html>busy</html>"))
    result = _query(online_bundle)
    assert result.exit_code == EXIT_UPSTREAM_ERROR, result.output


def test_body_without_completion_is_upstream(online_bundle, env):
    env.setattr(requests, "post", lambda *a, **k: _response(200, b'{"error": "busy"}'))
    result = _query(online_bundle)
    assert result.exit_code == EXIT_UPSTREAM_ERROR, result.output


def test_error_status_is_upstream(online_bundle, env):
    env.setattr(requests, "post", lambda *a, **k: _response(503, b"overloaded"))
    result = _query(online_bundle)
    assert result.exit_code == EXIT_UPSTREAM_ERROR, result.output


def test_remote_answer_is_printed(online_bundle, env):
    reply = {"choices": [{"message": {"content": "10 dBm (clause 1.2)"}}]}
    env.setattr(requests, "post", lambda *a, **k: _response(200, json.dumps(reply).encode()))
    result = _query(online_bundle)
    assert result.exit_code == 0, result.output
    assert "answer: 10 dBm (clause 1.2)" in result.output


def test_empty_corpus_directory_is_user_error(tmp_path, env):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    result = CliRunner().invoke(cli, ["index", str(corpus), "--out", str(tmp_path / "out")])
    assert result.exit_code == EXIT_USER_ERROR, result.output


def test_corrupted_bundle_is_user_error(tmp_path, env):
    corpus = synthetic_corpus(n_docs=2, seed=0)
    src = tmp_path / "corpus"
    src.mkdir()
    for doc in corpus.docs:
        (src / f"{doc.id}.json").write_bytes(serialize(doc))
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(src), "--out", str(out)])
    assert built.exit_code == 0, built.output
    assert runner.invoke(cli, ["query", str(out), QUESTION]).exit_code == 0
    nodes = out / "nodes.jsonl"
    data = bytearray(nodes.read_bytes())
    data[10] ^= 0x01
    nodes.write_bytes(bytes(data))
    result = runner.invoke(cli, ["query", str(out), QUESTION])
    assert result.exit_code == EXIT_USER_ERROR, result.output


def test_llm_endpoint_alone_selects_the_remote_client(env):
    env.setenv(ENV_LLM_ENDPOINT, "http://localhost:9")
    assert isinstance(make_clients().llm, HttpLlmClient)
    env.setenv(ENV_OFFLINE, "1")
    assert isinstance(make_clients().llm, OfflineLlmClient)


def _corpus_dir(tmp_path: Path) -> Path:
    corpus = synthetic_corpus(n_docs=2, seed=0)
    src = tmp_path / "corpus"
    src.mkdir()
    for doc in corpus.docs:
        (src / f"{doc.id}.json").write_bytes(serialize(doc))
    return src


def _index_smoke_corpus(tmp: Path) -> Path:
    """The three-document synthetic corpus, gazetteer included, indexed
    through the CLI into tmp/bundle."""
    corpus = synthetic_corpus(n_docs=3, seed=0)
    src = tmp / "corpus"
    src.mkdir()
    for doc in corpus.docs:
        (src / f"{doc.id}.json").write_bytes(serialize(doc))
    (src / "gazetteer.json").write_text(json.dumps(corpus.gazetteer))
    out = tmp / "bundle"
    built = CliRunner().invoke(cli, ["index", str(src), "--out", str(out)])
    assert built.exit_code == 0, built.output
    return out


@pytest.fixture
def smoke_bundle(tmp_path, env) -> Path:
    return _index_smoke_corpus(tmp_path)


def _lookup_cli(bundle: Path, *args: str):
    return CliRunner().invoke(cli, ["query", str(bundle), *args])


LOOKUP = ["--row", "param000", "--col", "Limit00,Maximum", "--json"]
GUARD = "NOTE 1: Applies only under condition C00."


def test_header_lookup_prints_the_guarded_cell(smoke_bundle):
    result = _lookup_cli(smoke_bundle, *LOOKUP)
    assert result.exit_code == 0, result.output
    hits = json.loads(result.output)
    assert result.output == canonical_json_bytes(hits).decode("utf-8") + "\n"
    assert [(h["node_id"], h["value"], h["unit"], h["condition"]) for h in hits] == [
        ("SD00:t1:cell0_0", "10", "dBm", GUARD)
    ]


def test_header_lookup_given_the_marker_clears_the_condition(smoke_bundle):
    result = _lookup_cli(smoke_bundle, *LOOKUP, "--given", "1")
    assert result.exit_code == 0, result.output
    hits = json.loads(result.output)
    assert [(h["node_id"], h["condition"]) for h in hits] == [("SD00:t1:cell0_0", None)]


def test_header_lookup_matching_no_cell_is_user_error(smoke_bundle):
    result = _lookup_cli(smoke_bundle, "--row", "nope", "--col", "Limit00,Maximum")
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert result.output.startswith("error: no cell matches "), result.output


# ---------------------------------------------------------------------------
# CLI output of the smoke bundle, pinned in golden/


@pytest.fixture(scope="module")
def golden_bundle(tmp_path_factory) -> Path:
    with pytest.MonkeyPatch.context() as patch:
        for name in (ENV_LLM_ENDPOINT, ENV_OFFLINE):
            patch.delenv(name, raising=False)
        yield _index_smoke_corpus(tmp_path_factory.mktemp("golden"))


def _lookup_outputs(bundle: Path) -> list[list]:
    """[row, col, given, exit code, output] of `semrag query --json` for
    every row path x column path of the bundle's headers, without and with
    the footnote marker 1 given."""
    g = load_bundle(bundle).graph
    rows, cols = (
        sorted({",".join(n.attrs["path"]) for n in g.nodes_of_type(kind)})
        for kind in (NodeType.ROW_HEADER, NodeType.COL_HEADER)
    )
    outputs = []
    for row in rows:
        for col in cols:
            for given in ("", "1"):
                args = ["--row", row, "--col", col, "--json"]
                result = _lookup_cli(bundle, *args, *(["--given", given] if given else []))
                outputs.append([row, col, given, result.exit_code, result.output])
    return outputs


def test_stats_json_matches_golden(golden_bundle, env):
    result = CliRunner().invoke(cli, ["stats", str(golden_bundle), "--json"])
    assert result.exit_code == 0, result.output
    assert result.output == GOLDEN_STATS.read_text("utf-8")


def test_every_header_lookup_matches_golden(golden_bundle, env):
    expected = json.loads(GOLDEN_LOOKUPS.read_text("utf-8"))
    assert _lookup_outputs(golden_bundle) == expected


def test_online_index_without_endpoint_is_user_error(tmp_path, env):
    out = tmp_path / "bundle"
    result = CliRunner().invoke(
        cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out), "--online"]
    )
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert ENV_LLM_ENDPOINT in result.output
    assert not out.exists()


def test_bundle_with_topology_columns_is_user_error(tmp_path, env):
    """A bundle whose vectors also carry a topology half, as bundles built
    before the index held the hashed text alone, is refused, not crashed on."""
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    counts = index_vectors(load_bundle(out).graph)
    topology = np.ones((len(counts), 23), dtype=np.int32)
    rewrite_member(out, "vectors.bin", save_vectors(np.hstack([counts, topology])))
    result = runner.invoke(cli, ["query", str(out), QUESTION])
    assert result.exit_code == EXIT_USER_ERROR, result.output


def test_bundle_with_float_vectors_is_user_error(tmp_path, env):
    """A bundle whose vector index holds float64 unit rows, the format of
    an early version, is refused with an error line, not read as counts."""
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    count = len(indexed_ids(load_bundle(out).graph))
    rows = load_vectors((out / "vectors.bin").read_bytes(), count)
    rewrite_member(out, "vectors.bin", rows.tobytes())
    result = runner.invoke(cli, ["query", str(out), QUESTION])
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert "error: /count: vectors.bin holds" in result.output


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda index: index.pop("h1"), "/h1"),
        (lambda index: index.pop("partition"), "/partition"),
    ],
    ids=["no-h1", "no-partition"],
)
def test_index_json_that_does_not_match_is_user_error(tmp_path, env, edit, path):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    index = json.loads((out / "index.json").read_text("utf-8"))
    edit(index)
    rewrite_member(out, "index.json", json.dumps(index).encode())
    result = runner.invoke(cli, ["stats", str(out)])
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert f"error: {path}: index.json" in result.output


def _first_line_without(key):
    def edit(lines: list[dict]) -> None:
        del lines[0][key]

    return edit


def _first_line_with(key, value):
    def edit(lines: list[dict]) -> None:
        lines[0][key] = value

    return edit


def _first_line_repeated_with(key, value):
    def edit(lines: list[dict]) -> None:
        lines.insert(1, {**lines[0], key: value})

    return edit


@pytest.mark.parametrize(
    "member, edit, message",
    [
        ("nodes.jsonl", _first_line_without("attrs"), "/1/attrs: nodes.jsonl line 1 attrs"),
        ("nodes.jsonl", _first_line_with("text", 7), "/1/text: nodes.jsonl line 1 text"),
        ("nodes.jsonl", _first_line_with("type", "Gadget"), "/1/type: nodes.jsonl holds"),
        ("edges.jsonl", _first_line_without("src"), "/1/src: edges.jsonl line 1 src"),
        ("edges.jsonl", _first_line_with("rel", "likes"), "/1/rel: edges.jsonl holds"),
        ("edges.jsonl", _first_line_with("dst", "nowhere"), "/1: edges.jsonl line 1:"),
        ("nodes.jsonl", _first_line_repeated_with("text", "other"), "/2: nodes.jsonl line 2:"),
    ],
    ids=[
        "node-no-attrs", "node-text-int", "node-type", "edge-no-src", "edge-rel", "edge-dst",
        "node-id-twice",
    ],
)
def test_graph_line_that_does_not_match_is_user_error(tmp_path, env, member, edit, message):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    lines = [json.loads(line) for line in (out / member).read_bytes().splitlines()]
    edit(lines)
    rewrite_member(out, member, b"".join(json.dumps(obj).encode() + b"\n" for obj in lines))
    result = runner.invoke(cli, ["stats", str(out)])
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert f"error: {message}" in result.output


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda doc: doc.pop("w_topo"), "/w_topo"),
        (lambda doc: doc.update(w_text=[[1.0, 2.0], [3.0]]), "/w_text"),
        (lambda doc: doc.update(w_text="weights"), "/w_text"),
        (lambda doc: doc.update(loss_history={"epoch": 1}), "/loss_history"),
    ],
    ids=["no-w-topo", "ragged-w-text", "string-w-text", "mapped-history"],
)
def test_align_json_that_does_not_match_is_user_error(tmp_path, env, edit, path):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(
        cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out), "--align"]
    )
    assert built.exit_code == 0, built.output
    doc = json.loads((out / "align.json").read_text("utf-8"))
    edit(doc)
    rewrite_member(out, "align.json", json.dumps(doc).encode())
    result = runner.invoke(cli, ["stats", str(out)])
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert f"error: {path}: align.json" in result.output


def test_index_over_a_directory_that_holds_no_bundle_is_user_error(tmp_path, env):
    out = tmp_path / "notes"
    out.mkdir()
    (out / "todo.txt").write_text("keep me")
    result = CliRunner().invoke(
        cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)]
    )
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert "error: " in result.output
    assert [p.name for p in out.iterdir()] == ["todo.txt"]
    assert (out / "todo.txt").read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "notes"]


def test_export_graph_writes_the_bundles_graph_bytes(tmp_path, env):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    export = tmp_path / "export"
    result = runner.invoke(cli, ["export-graph", str(out), "--out", str(export)])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in export.iterdir()) == ["edges.jsonl", "nodes.jsonl"]
    for name in ("nodes.jsonl", "edges.jsonl"):
        assert (export / name).read_bytes() == (out / name).read_bytes()


def test_stats_reports_what_indexing_paid(tmp_path, env):
    corpus = synthetic_corpus(n_docs=3, seed=0)
    out = tmp_path / "bundle"
    bundle = build_bundle(corpus.docs, corpus.gazetteer, out)
    result = CliRunner().invoke(cli, ["stats", str(out), "--json"])
    assert result.exit_code == 0, result.output
    stats = json.loads(result.output)
    paid = sum(
        int(node.attrs["tokens_used"])
        for node in bundle.graph.nodes_of_type(NodeType.MACRO_NODE)
    )
    assert stats["index_tokens"] == paid == 285
    assert paid <= stats["communities"] * bundle.config.summary_budget_tokens


def test_stats_reports_the_entropies_index_json_records(smoke_bundle, env):
    index = json.loads((smoke_bundle / "index.json").read_bytes())
    result = CliRunner().invoke(cli, ["stats", str(smoke_bundle), "--json"])
    assert result.exit_code == 0, result.output
    stats = json.loads(result.output)
    assert stats["flat_entropy_bits"] == round(index["h1"], 9)
    assert stats["partition_entropy_bits"] == round(index["h2"], 9)
    # read, not computed again from the graph
    index.update(h1=7.0123456789, h2=3.25)
    rewrite_member(smoke_bundle, "index.json", canonical_json_bytes(index) + b"\n")
    stats = json.loads(CliRunner().invoke(cli, ["stats", str(smoke_bundle), "--json"]).output)
    assert (stats["flat_entropy_bits"], stats["partition_entropy_bits"]) == (7.012345679, 3.25)


def _drop_first_node(partition: dict) -> None:
    del partition[min(partition)]


@pytest.mark.parametrize(
    "edit, listed",
    [
        (_drop_first_node, "missing ['SD00:e1:k1'], unknown []"),
        (lambda partition: partition.update(nope="nope"), "missing [], unknown ['nope']"),
    ],
    ids=["node-missing", "unknown-id"],
)
@pytest.mark.parametrize("command", ["stats", "query"])
def test_partition_that_does_not_name_the_graphs_nodes_is_user_error(
    smoke_bundle, env, capsys, edit, listed, command
):
    index = json.loads((smoke_bundle / "index.json").read_bytes())
    edit(index["partition"])
    rewrite_member(smoke_bundle, "index.json", canonical_json_bytes(index) + b"\n")
    args = [command, str(smoke_bundle)] + ([QUESTION] if command == "query" else [])
    code, err = _main(env, capsys, *args)
    assert code == EXIT_USER_ERROR, err
    assert err == (
        "error: /partition: index.json partition does not name the graph's "
        f"nodes exactly ({listed})\n"
    )


def _edit_manifest_config(out: Path, edit) -> None:
    path = out / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["config"].update(retries=3),
        lambda m: m.pop("config"),
        lambda m: m["config"].pop("khop"),
    ],
    ids=["unknown-key", "no-config", "missing-key"],
)
def test_manifest_config_that_does_not_match_is_user_error(tmp_path, env, edit):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    _edit_manifest_config(out, edit)
    result = runner.invoke(cli, ["stats", str(out)])
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert "error: /config:" in result.output


def test_manifest_without_checksums_is_user_error(tmp_path, env):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    _edit_manifest_config(out, lambda m: m.pop("checksums"))
    for command in (["stats", str(out)], ["query", str(out), QUESTION]):
        result = runner.invoke(cli, command)
        assert result.exit_code == EXIT_USER_ERROR, result.output
        assert "error: /checksums:" in result.output


def test_manifest_config_value_of_the_wrong_type_is_user_error(tmp_path, env):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    _edit_manifest_config(out, lambda m: m["config"].update(budget="5"))
    for command in (["stats", str(out)], ["query", str(out), QUESTION]):
        result = runner.invoke(cli, command)
        assert result.exit_code == EXIT_USER_ERROR, result.output
        assert "error: /config/budget:" in result.output


def _main(monkeypatch, capsys, *args: str) -> tuple[int, str]:
    """Exit code and standard error of the `semrag` entry point."""
    monkeypatch.setattr(sys, "argv", ["semrag", *args])
    with pytest.raises(SystemExit) as stopped:
        main()
    return stopped.value.code, capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [("--ts", "-5"), ("--k", "-1"), ("--khop", "-1")],
    ids=["ts", "k", "khop"],
)
def test_index_with_a_negative_value_is_user_error(tmp_path, env, capsys, args):
    out = tmp_path / "bundle"
    src = _corpus_dir(tmp_path)
    code, err = _main(env, capsys, "index", str(src), "--out", str(out), *args)
    assert code == EXIT_USER_ERROR, err
    assert f"Invalid value for '{args[-2]}'" in err
    assert not out.exists()


def test_query_with_a_negative_budget_is_user_error(smoke_bundle, env, capsys):
    code, err = _main(
        env, capsys, "query", str(smoke_bundle), QUESTION, "--k", "-1", "--route", "med"
    )
    assert code == EXIT_USER_ERROR, err
    assert "Invalid value for '--k'" in err


def _in_the_format_1_layout(out: Path) -> None:
    """The layout of format 1: the row ids in vectors.json, the bundle's
    own gazetteer.json, a seed in the config and no vector row count."""
    ids = indexed_ids(load_bundle(out).graph)
    rewrite_member(out, "vectors.json", json.dumps({"ids": ids}).encode())
    rewrite_member(out, "gazetteer.json", b'["AlphaProc0"]\n')

    def edit(manifest: dict) -> None:
        manifest["format_version"] = 1
        manifest["config"]["seed"] = 0
        del manifest["counts"]["vectors"]

    _edit_manifest_config(out, edit)


def _manifest_edit(edit):
    return lambda out: _edit_manifest_config(out, edit)


def _without_h2(out: Path) -> None:
    index = json.loads((out / "index.json").read_text("utf-8"))
    del index["h2"]
    rewrite_member(out, "index.json", json.dumps(index).encode())


@pytest.mark.parametrize("command", ["query", "stats"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_in_the_format_1_layout, "error: unknown bundle format version 1"),
        (_manifest_edit(lambda m: m["counts"].pop("vectors")), "error: /counts/vectors:"),
        (_manifest_edit(lambda m: m["counts"].update(vectors="41")), "error: /counts/vectors:"),
        (_manifest_edit(lambda m: m["counts"].update(vectors=-1)), "error: /counts/vectors:"),
        (_manifest_edit(lambda m: m["counts"].update(vectors=m["counts"]["vectors"] + 1)),
         "error: /counts/vectors:"),
        (_without_h2, "error: /h2: index.json h2 is missing"),
    ],
    ids=["format-1-layout", "no-vector-count", "string-vector-count",
         "negative-vector-count", "one-vector-count-too-many", "no-h2"],
)
def test_bundle_the_open_cannot_decode_is_user_error(
    tmp_path, env, capsys, edit, message, command
):
    out = tmp_path / "bundle"
    built = CliRunner().invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    edit(out)
    code, err = _main(env, capsys, command, str(out), *([QUESTION] if command == "query" else []))
    assert code == EXIT_USER_ERROR, err
    assert err.startswith(message), err


def test_manifest_config_with_a_negative_value_is_user_error(tmp_path, env):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    _edit_manifest_config(out, lambda m: m["config"].update(summary_budget_tokens=-5))
    for command in (["stats", str(out)], ["query", str(out), QUESTION]):
        result = runner.invoke(cli, command)
        assert result.exit_code == EXIT_USER_ERROR, result.output
        assert "error: /config/summary_budget_tokens:" in result.output


@pytest.mark.parametrize(
    "member, command",
    [("manifest.json", "stats"), ("index.json", "query")],
)
def test_bundle_member_that_is_not_utf8_is_user_error(tmp_path, env, member, command):
    """A member other than the manifest gets its checksum fixed up, so
    that its own decoder meets the bytes."""
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    blob = b"\xff\xfe" + (out / member).read_bytes()
    if member == "manifest.json":
        (out / member).write_bytes(blob)
    else:
        rewrite_member(out, member, blob)
    args = [command, str(out)] + ([QUESTION] if command == "query" else [])
    result = runner.invoke(cli, args)
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert "error: 'utf-8' codec can't decode" in result.output


def test_corpus_gazetteer_that_is_not_utf8_is_user_error(tmp_path, env):
    src = _corpus_dir(tmp_path)
    (src / "gazetteer.json").write_bytes(b'\xff["HARQ"]')
    result = CliRunner().invoke(cli, ["index", str(src), "--out", str(tmp_path / "out")])
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert "error: 'utf-8' codec can't decode" in result.output


def test_gazetteer_file_that_is_not_utf8_is_user_error(tmp_path, env):
    terms = tmp_path / "terms.txt"
    terms.write_bytes(b"HARQ\n\xff\n")
    result = CliRunner().invoke(
        cli,
        ["index", str(_corpus_dir(tmp_path)), "--out", str(tmp_path / "out"),
         "--gazetteer", str(terms)],
    )
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert "error: 'utf-8' codec can't decode" in result.output


@pytest.mark.parametrize(
    "gazetteer, message",
    [
        ("5", ": gazetteer.json is not a JSON array of strings"),
        ('{"a": 1}', ": gazetteer.json is not a JSON array of strings"),
        ('["HARQ", 1]', "/1: gazetteer.json term 1 is not a string"),
    ],
    ids=["number", "object", "array-with-a-number"],
)
def test_corpus_gazetteer_that_is_not_an_array_of_strings_is_user_error(
    tmp_path, env, capsys, gazetteer, message
):
    src = _corpus_dir(tmp_path)
    (src / "gazetteer.json").write_text(gazetteer)
    out = tmp_path / "out"
    code, err = _main(env, capsys, "index", str(src), "--out", str(out))
    assert code == EXIT_USER_ERROR, err
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_stats_on_a_macro_node_without_int_tokens_used_is_user_error(tmp_path, env, capsys):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    lines = [json.loads(line) for line in (out / "nodes.jsonl").read_bytes().splitlines()]
    macro = next(obj for obj in lines if obj["type"] == NodeType.MACRO_NODE.value)
    del macro["attrs"]["tokens_used"]
    rewrite_member(out, "nodes.jsonl", b"".join(canonical_json_bytes(obj) + b"\n" for obj in lines))
    assert runner.invoke(cli, ["query", str(out), QUESTION]).exit_code == 0
    code, err = _main(env, capsys, "stats", str(out))
    assert code == EXIT_USER_ERROR, err
    assert err.startswith(f"error: /{macro['id']}/attrs/tokens_used: macro node {macro['id']!r}")


def test_graph_line_holding_two_records_is_user_error(tmp_path, env, capsys):
    out = tmp_path / "bundle"
    runner = CliRunner()
    built = runner.invoke(cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out)])
    assert built.exit_code == 0, built.output
    first, second, *rest = (out / "edges.jsonl").read_bytes().splitlines()
    rewrite_member(out, "edges.jsonl", b"\n".join([first + b"," + second, *rest]) + b"\n")
    code, err = _main(env, capsys, "stats", str(out))
    assert code == EXIT_USER_ERROR, err
    assert err.startswith("error: Extra data: line 1 column")


# a JSON value nested deeper than the decoder can recurse
DEEP = "[" * 200_000 + "]" * 200_000


def test_corpus_document_nested_too_deeply_is_user_error(tmp_path, env, capsys):
    src = _corpus_dir(tmp_path)
    (src / "deep.json").write_text(DEEP)
    code, err = _main(env, capsys, "index", str(src), "--out", str(tmp_path / "out"))
    assert code == EXIT_USER_ERROR, err
    assert err == "error: : document nests values too deeply to decode\n"


def test_corpus_gazetteer_nested_too_deeply_is_user_error(tmp_path, env, capsys):
    src = _corpus_dir(tmp_path)
    (src / "gazetteer.json").write_text(DEEP)
    code, err = _main(env, capsys, "index", str(src), "--out", str(tmp_path / "out"))
    assert code == EXIT_USER_ERROR, err
    assert err == "error: : gazetteer.json nests values too deeply to decode\n"


def test_manifest_nested_too_deeply_is_user_error(smoke_bundle, env, capsys):
    (smoke_bundle / "manifest.json").write_text(DEEP)
    code, err = _main(env, capsys, "query", str(smoke_bundle), QUESTION)
    assert code == EXIT_USER_ERROR, err
    assert err == "error: : manifest.json nests values too deeply to decode\n"


@pytest.mark.parametrize(
    "member, command, message",
    [
        ("nodes.jsonl", "stats", "/1: nodes.jsonl line 1"),
        ("align.json", "query", ": align.json"),
    ],
)
def test_bundle_member_nested_too_deeply_is_user_error(
    tmp_path, env, capsys, member, command, message
):
    """The member's checksum is fixed up, so that its own decoder meets
    the value."""
    out = tmp_path / "bundle"
    built = CliRunner().invoke(
        cli, ["index", str(_corpus_dir(tmp_path)), "--out", str(out), "--align"]
    )
    assert built.exit_code == 0, built.output
    rest = (out / member).read_bytes().splitlines(keepends=True)[1:]
    rewrite_member(out, member, b"".join([DEEP.encode() + b"\n", *rest]))
    args = [command, str(out)] + ([QUESTION] if command == "query" else [])
    code, err = _main(env, capsys, *args)
    assert code == EXIT_USER_ERROR, err
    assert err == f"error: {message} nests values too deeply to decode\n"


def _write_goldens() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        bundle = _index_smoke_corpus(Path(tmp))
        stats = CliRunner().invoke(cli, ["stats", str(bundle), "--json"])
        assert stats.exit_code == 0, stats.output
        outputs = _lookup_outputs(bundle)
    GOLDEN.mkdir(exist_ok=True)
    GOLDEN_STATS.write_text(stats.output, encoding="utf-8")
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in outputs)
    GOLDEN_LOOKUPS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {GOLDEN_STATS} and {GOLDEN_LOOKUPS} ({len(outputs)} lookups)",
          file=sys.stderr)


if __name__ == "__main__":
    _write_goldens()
