"""The learned router: training accuracy, the all-routes precondition, and
how a bundle's router.json decides between the model and the rule table."""

from __future__ import annotations

import numpy as np
import pytest

from semrag.errors import ClassMissingError
from semrag.pipeline import build_bundle, load_bundle, make_engine
from semrag.query_engine import Route, rule_route, train_router
from semrag.synth import route_dataset, synthetic_corpus

ROUTES = (Route.LOW, Route.MED, Route.HIGH)


def _accuracy(model, features, labels) -> float:
    hits = sum(
        model.predict(row) == ROUTES[int(label)] for row, label in zip(features, labels)
    )
    return hits / len(labels)


def test_router_learns_the_rule_regions():
    features, labels = route_dataset(300, seed=0)
    model, train_accuracy = train_router(features, labels)
    assert train_accuracy >= 0.95
    held_features, held_labels = route_dataset(300, seed=100)
    assert _accuracy(model, held_features, held_labels) >= 0.95


def test_router_refuses_labels_missing_a_route():
    features, labels = route_dataset(300, seed=0)
    keep = labels != 2
    with pytest.raises(ClassMissingError):
        train_router(features[keep], labels[keep])


def _routes(engine, questions):
    """(chosen route, features) for each question, as retrieval sees them."""
    return [engine.route(q, engine.embed_query(q)) for q in questions]


def test_bundle_router_round_trips_and_overrides_the_rule(tmp_path):
    corpus = synthetic_corpus(n_docs=3, seed=0)
    questions = [query.question for query in corpus.gold]
    features, labels = route_dataset(300, seed=0)
    # Rotated labels teach a router that disagrees with the rule table, so
    # routing by the model is told apart from routing by the rule.
    router, _ = train_router(features, (labels + 1) % 3)

    with_router = build_bundle(corpus.docs, corpus.gazetteer, tmp_path / "a", router=router)
    assert "router.json" in (tmp_path / "a" / "manifest.json").read_text("utf-8")
    loaded = load_bundle(with_router.path)
    assert loaded.router is not None
    for name in ("mean", "std", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(loaded.router, name), getattr(router, name))
    routed = _routes(make_engine(loaded), questions)
    assert [route for route, _ in routed] == [router.predict(f) for _, f in routed]
    assert any(route != rule_route(f) for route, f in routed)

    build_bundle(corpus.docs, corpus.gazetteer, tmp_path / "b")
    assert not (tmp_path / "b" / "router.json").exists()
    plain = load_bundle(tmp_path / "b")
    assert plain.router is None
    routed = _routes(make_engine(plain), questions)
    assert [route for route, _ in routed] == [rule_route(f) for _, f in routed]
