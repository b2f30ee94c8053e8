"""The rule table is the one router: its boundaries, the routes a built
bundle's engine takes, and a bundle that lists a member no build writes."""

from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner

from semrag.cli import EXIT_USER_ERROR, cli
from semrag.llm_clients import ENV_LLM_ENDPOINT, ENV_OFFLINE
from semrag.pipeline import build_bundle, load_bundle, make_engine
from semrag.query_engine import Route, rule_route
from semrag.synth import synthetic_corpus


@pytest.mark.parametrize(
    "features, route",
    [
        ((5, 0, 1, 0.5), Route.MED),
        ((20, 0, 1, 3.0), Route.MED),
        ((5, 2, 0, 0.5), Route.MED),
        ((20, 2, 0, 3.0), Route.MED),
        ((5, 1, 0, 0.5), Route.LOW),
        ((12, 0, 0, 2.5), Route.HIGH),
        ((11, 0, 0, 2.5), Route.LOW),
        ((12, 0, 0, 2.49), Route.LOW),
        ((20, 1, 0, 3.0), Route.LOW),
    ],
    ids=[
        "symbolic",
        "symbolic-beats-summary",
        "two-entities",
        "two-entities-beat-summary",
        "one-entity",
        "summary-at-both-thresholds",
        "length-below-threshold",
        "entropy-below-threshold",
        "one-entity-is-not-vague",
    ],
)
def test_rule_table(features, route):
    """Features are (query_length, entity_count, has_symbolic, hit_entropy)."""
    assert rule_route([float(v) for v in features]) == route


def test_bundle_engine_routes_by_the_rule_table(tmp_path):
    corpus = synthetic_corpus(n_docs=3, seed=0)
    engine = make_engine(
        load_bundle(build_bundle(corpus.docs, corpus.gazetteer, tmp_path).path)
    )
    for query in corpus.gold:
        route, features = engine.route(query.question, engine.embed_query(query.question))
        assert route == rule_route(features), query.question


def test_bundle_listing_a_router_member_is_user_error(tmp_path, monkeypatch):
    """A manifest that lists a checksummed member build_bundle does not
    write, as bundles carrying a trained router.json once did, is refused
    rather than loaded without it."""
    for name in (ENV_LLM_ENDPOINT, ENV_OFFLINE):
        monkeypatch.delenv(name, raising=False)
    corpus = synthetic_corpus(n_docs=3, seed=0)
    build_bundle(corpus.docs, corpus.gazetteer, tmp_path)
    member = tmp_path / "router.json"
    member.write_bytes(b'{"w1": []}\n')
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    manifest["checksums"]["router.json"] = hashlib.sha256(member.read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    result = CliRunner().invoke(cli, ["query", str(tmp_path), corpus.gold[0].question])
    assert result.exit_code == EXIT_USER_ERROR, result.output
    assert "error: /checksums:" in result.output
