"""Serving-layer request cache: hits, eviction, and reload invalidation.

The LRU result cache keys on ``(row key, user, item, model_version)``;
these tests pin the three behaviours the serving layer depends on:
repeat requests are served from cache with identical values, capacity
is bounded by LRU eviction, and a model reload can never serve a stale
entry (the version in the key changes and the cache is flushed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CFSF
from repro.core.persistence import save_model
from repro.data import default_dataset, make_split
from repro.obs import MetricsRegistry, render_prometheus
from repro.serving import PredictionService


@pytest.fixture(scope="module")
def fitted():
    ratings = default_dataset(seed=2)
    split = make_split(ratings, n_train_users=60, given_n=10, seed=2)
    model = CFSF().fit(split.train)
    users, items, _ = split.targets_arrays()
    return model, split, users[:40], items[:40]


def test_repeat_batch_hits_cache(fitted):
    model, split, users, items = fitted
    registry = MetricsRegistry()
    service = PredictionService(model, metrics=registry)

    first = service.predict_many(split.given, users, items)
    assert registry.counter_value("serving.cache.hits") == 0
    assert registry.counter_value("serving.cache.misses") == users.size

    second = service.predict_many(split.given, users, items)
    assert registry.counter_value("serving.cache.hits") == users.size
    np.testing.assert_array_equal(second.predictions, first.predictions)
    # cache-served requests report the primary stage, not a fallback
    assert (second.fallback_level == 0).all()


def test_cache_eviction_is_bounded(fitted):
    model, split, users, items = fitted
    service = PredictionService(model, request_cache_size=8)
    service.predict_many(split.given, users, items)
    assert len(service._request_cache) <= 8

    # The 8 most recent requests are the survivors.
    registry_hits_before = service._request_cache.hits
    service.predict_many(split.given, users[-8:], items[-8:])
    assert service._request_cache.hits == registry_hits_before + 8


def test_cache_disabled_when_size_zero(fitted):
    model, split, users, items = fitted
    registry = MetricsRegistry()
    service = PredictionService(model, metrics=registry, request_cache_size=0)
    service.predict_many(split.given, users, items)
    service.predict_many(split.given, users, items)
    assert registry.counter_value("serving.cache.hits") == 0
    assert registry.counter_value("serving.cache.misses") == 0


def test_reload_invalidates_cache(fitted, tmp_path):
    model, split, users, items = fitted
    path = str(tmp_path / "model.npz")
    save_model(model, path)

    registry = MetricsRegistry()
    service = PredictionService(model, metrics=registry, snapshot_path=path)
    service.predict_many(split.given, users, items)
    version_before = service.model_version

    assert service.reload()
    assert service.model_version == version_before + 1
    assert len(service._request_cache) == 0

    # Same batch after reload: no stale hit is possible.
    result = service.predict_many(split.given, users, items)
    assert registry.counter_value("serving.cache.hits") == 0
    assert np.isfinite(result.predictions).all()


def test_health_cache_totals_survive_a_reload(fitted, tmp_path):
    """health() reads cache hits and misses from the registry, so a
    reload (which empties the cache) leaves them agreeing with it and
    with the Prometheus exposition."""
    model, split, users, items = fitted
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    registry = MetricsRegistry()
    service = PredictionService(model, metrics=registry, snapshot_path=path)
    service.predict_many(split.given, users, items)
    service.predict_many(split.given, users, items)
    assert service.reload()

    cache = service.health()["request_cache"]
    hits = registry.counter_value("serving.cache.hits")
    misses = registry.counter_value("serving.cache.misses")
    assert (cache["hits"], cache["misses"]) == (hits, misses) == (users.size, users.size)
    assert cache["hit_rate"] == 0.5
    assert cache["entries"] == 0
    text = render_prometheus(registry)
    assert f"serving_cache_hits_total {cache['hits']}" in text.splitlines()
    assert f"serving_cache_misses_total {cache['misses']}" in text.splitlines()


def test_given_change_misses_cache(fitted):
    """A different given matrix must never collide with cached keys."""
    model, split, users, items = fitted
    registry = MetricsRegistry()
    service = PredictionService(model, metrics=registry)
    first = service.predict_many(split.given, users, items)

    rated = np.nonzero(split.given.mask[int(users[0])])[0]
    old = float(split.given.values[int(users[0]), rated[0]])
    perturbed = split.given.with_ratings(
        [(int(users[0]), int(rated[0]), 1.0 if old != 1.0 else 2.0)]
    )

    service.predict_many(split.given, users, items)  # warm hits
    hits_before = registry.counter_value("serving.cache.hits")
    second = service.predict_many(perturbed, users, items)
    assert registry.counter_value("serving.cache.hits") == hits_before
    assert second.predictions.shape == first.predictions.shape
