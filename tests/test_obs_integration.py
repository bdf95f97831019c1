"""Observability wired through the offline pipeline and the serving layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CFSF
from repro.obs import MetricsRegistry, NULL_REGISTRY, use_registry
from repro.serving import PredictionService
from repro.serving.breaker import CircuitBreaker, CircuitState
from repro.serving.faults import FlakyRecommender, ManualClock, poison_given

pytestmark = pytest.mark.obs

#: ``health()`` total -> the registry counter it reads.
HEALTH_TOTALS = {
    "requests_total": "serving.requests",
    "invalid_total": "serving.invalid",
    "deadline_deferred_total": "serving.deadline.deferred",
    "sanitized_total": "serving.sanitized",
    "degraded_total": "serving.degraded",
    "reloads_ok": "serving.reload.ok",
    "reloads_failed": "serving.reload.failed",
}


@pytest.fixture(scope="module")
def fit_registry(split_small):
    """A registry observing one full offline fit."""
    registry = MetricsRegistry()
    with use_registry(registry):
        model = CFSF(n_clusters=8, top_m_items=30, top_k_users=10).fit(
            split_small.train
        )
    return registry, model


class TestOfflineSpans:
    def test_fit_produces_the_nested_span_tree(self, fit_registry):
        registry, _ = fit_registry
        by_name = {rec["name"]: rec for rec in registry.spans()}
        assert set(by_name) >= {
            "model.fit",
            "gis.build",
            "cluster.fit",
            "smooth.apply",
            "icluster.build",
            "gis.order",
        }
        root = by_name["model.fit"]
        assert root["parent"] is None and root["depth"] == 0
        for child in ("gis.build", "cluster.fit", "smooth.apply", "icluster.build", "gis.order"):
            assert by_name[child]["parent"] == "model.fit", child
            assert by_name[child]["depth"] == 1
        # Children are nested in time, not just in name.
        assert root["duration"] >= sum(
            by_name[c]["duration"]
            for c in ("gis.build", "cluster.fit", "smooth.apply", "icluster.build")
        ) * 0.99

    def test_spans_carry_stage_attributes(self, fit_registry, split_small):
        registry, _ = fit_registry
        by_name = {rec["name"]: rec for rec in registry.spans()}
        assert by_name["gis.build"]["attrs"]["n_items"] == split_small.train.n_items
        assert "sparsity" in by_name["gis.build"]["attrs"]
        assert by_name["gis.order"]["attrs"]["width"] == 30
        assert by_name["cluster.fit"]["attrs"]["n_clusters"] == 8
        assert by_name["cluster.fit"]["attrs"]["n_iter"] >= 1
        assert 0.0 <= by_name["smooth.apply"]["attrs"]["smoothed_fraction"] <= 1.0

    def test_span_durations_surface_as_histograms(self, fit_registry):
        registry, _ = fit_registry
        for name in ("span.model.fit", "span.gis.build", "span.cluster.fit"):
            assert registry.histogram(name).count == 1, name

    def test_fit_without_registry_records_nothing(self, split_small):
        before = len(NULL_REGISTRY.spans())
        CFSF(n_clusters=4, top_m_items=20, top_k_users=5).fit(split_small.train)
        assert len(NULL_REGISTRY.spans()) == before == 0


class TestServiceMetrics:
    @pytest.fixture()
    def served(self, cfsf_small, split_small):
        registry = MetricsRegistry()
        service = PredictionService(cfsf_small, metrics=registry)
        users, items, _ = split_small.targets_arrays()
        for start in (0, 40, 80):
            service.predict_many(
                split_small.given, users[start : start + 40], items[start : start + 40]
            )
        return registry, service

    def test_request_counters_and_latency(self, served):
        registry, _ = served
        assert registry.counter_value("serving.requests") == 120
        latency = registry.histogram("serving.request.latency")
        assert latency.count == 3  # one observation per predict_many batch
        assert latency.sum > 0.0

    def test_fallback_counters_account_for_every_request(self, served):
        registry, service = served
        total = sum(
            registry.counter_value("serving.fallback", stage=name)
            for name in service.stage_names
        )
        assert total == 120
        assert registry.counter_value("serving.fallback", stage="CFSF") == 120

    def test_stage_failures_counted(self, cfsf_small, split_small):
        registry = MetricsRegistry()
        service = PredictionService(
            FlakyRecommender(cfsf_small, fail_times=1),
            metrics=registry,
            failure_threshold=3,
        )
        users, items, _ = split_small.targets_arrays()
        service.predict_many(split_small.given, users[:20], items[:20])
        # The injected failure hits the whole-batch fast path; the
        # per-user-block retry then reaches the healed CFSF, so the
        # failure is counted but every request still serves at level 0.
        assert registry.counter_value("serving.stage.failures", stage="CFSF") == 1
        assert registry.counter_value("serving.fallback", stage="CFSF") == 20
        assert registry.counter_value("serving.degraded") == 0

    def test_health_extension_and_backward_compat(self, served):
        registry, service = served
        health = service.health()
        # Pre-observability keys survive untouched.
        for key in (
            "model",
            "model_version",
            "stages",
            "breakers",
            "requests_total",
            "invalid_total",
            "deadline_deferred_total",
            "reloads_ok",
            "reloads_failed",
            "last_reload_error",
        ):
            assert key in health, key
        # Cumulative keys, sourced from the registry.
        assert "metrics_enabled" not in health
        assert health["requests_total"] == 120
        assert health["sanitized_total"] == 0
        assert health["degraded_total"] == 0
        assert set(health["breaker_open_seconds"]) == set(service.stage_names)
        latency = health["latency"]
        assert latency["count"] == 3
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_health_without_registry_keeps_working(self, cfsf_small, split_small):
        service = PredictionService(cfsf_small)  # ambient default: disabled
        users, items, _ = split_small.targets_arrays()
        service.predict_many(split_small.given, users[:20], items[:20])
        health = service.health()
        # The service counts into a private registry of its own.
        assert health["requests_total"] == 20
        assert health["degraded_total"] == 0
        assert health["latency"]["count"] == 1
        assert health["latency"]["p50"] > 0.0

    def test_injected_and_ambient_registries_receive_the_counts(
        self, cfsf_small, split_small
    ):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:20].copy(), items[:20].copy()
        users[0] = -1  # one invalid request
        poisoned = poison_given(split_small.given, [(int(users[1]), 0, float("nan"))])
        injected, ambient = MetricsRegistry(), MetricsRegistry()
        clock = ManualClock()
        # No request cache, so the deadline call walks every block.
        kwargs = dict(request_cache_size=0, sleep=clock.sleep)
        with use_registry(ambient):
            services = {
                "injected": PredictionService(cfsf_small, metrics=injected, **kwargs),
                "ambient": PredictionService(cfsf_small, **kwargs),
            }
        for registry, (label, service) in zip((injected, ambient), services.items()):
            assert service.metrics is registry, label
            service.predict_many(poisoned, users, items)
            service.predict_many(split_small.given, users, items, deadline=0.0)
            assert service.reload("/nonexistent/model.npz") is False
            health = service.health()
            for key, metric in HEALTH_TOTALS.items():
                assert health[key] == registry.counter_value(metric), (label, key)
            assert health["requests_total"] == 40
            assert health["invalid_total"] == 2
            assert health["sanitized_total"] == int((users == users[1]).sum())
            assert health["deadline_deferred_total"] == 19
            assert health["reloads_failed"] == 1
            assert health["latency"]["count"] == 2

    def test_services_without_registry_count_separately(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        first, second = PredictionService(cfsf_small), PredictionService(cfsf_small)
        assert first.metrics is not second.metrics
        first.predict_many(split_small.given, users[:20], items[:20])
        second.predict_many(split_small.given, users[:5], items[:5])
        assert first.health()["requests_total"] == 20
        assert second.health()["requests_total"] == 5

    def test_sanitize_memo_matches_by_identity(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:20], items[:20]
        entries = [(int(users[0]), 0, float("nan"))]
        registry = MetricsRegistry()
        service = PredictionService(cfsf_small, metrics=registry)
        given_a = poison_given(split_small.given, entries)
        given_b = poison_given(split_small.given, entries)
        first = service.predict_many(given_a, users, items)
        cleaned_a = service._sanitize_memo[1]
        # Equal content, different object: scanned and repaired afresh.
        second = service.predict_many(given_b, users, items)
        source, cleaned_b, _ = service._sanitize_memo
        assert source is given_b
        assert cleaned_b is not cleaned_a
        assert first.sanitized.any()
        assert np.array_equal(first.sanitized, second.sanitized)
        assert np.array_equal(first.predictions, second.predictions)
        assert registry.counter_value("serving.sanitized") == 2 * first.sanitized.sum()


class TestBreakerMetrics:
    def _failing_breaker(self, registry, clock):
        return CircuitBreaker(
            "CFSF",
            failure_threshold=2,
            reset_timeout=1.0,
            jitter=0.0,
            clock=clock,
            metrics=registry,
        )

    def test_transitions_counted_per_state(self):
        registry = MetricsRegistry()
        clock = ManualClock()
        breaker = self._failing_breaker(registry, clock)
        breaker.record_failure()
        breaker.record_failure()  # trips: closed -> open
        assert breaker.state is CircuitState.OPEN
        clock.advance(1.0)
        assert breaker.allow()  # open -> half_open
        breaker.record_success()  # half_open -> closed
        value = lambda to: registry.counter_value(
            "breaker.transitions", breaker="CFSF", to=to
        )
        assert value("open") == 1
        assert value("half_open") == 1
        assert value("closed") == 1

    def test_open_seconds_accumulate_exactly(self):
        registry = MetricsRegistry()
        clock = ManualClock()
        breaker = self._failing_breaker(registry, clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(0.75)
        assert breaker.open_seconds() == pytest.approx(0.75)
        clock.advance(0.25)
        breaker.allow()  # half-open after the full 1.0s delay
        breaker.record_success()
        assert breaker.open_seconds() == pytest.approx(1.0)
        assert breaker.snapshot()["open_seconds"] == pytest.approx(1.0)
        gauge = registry.gauge("breaker.open.seconds", breaker="CFSF")
        assert gauge.value == pytest.approx(1.0)

    def test_reopen_extends_cumulative_open_time(self):
        registry = MetricsRegistry()
        clock = ManualClock()
        breaker = self._failing_breaker(registry, clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.record_failure()  # half-open probe fails: re-open
        clock.advance(0.5)
        assert breaker.open_seconds() == pytest.approx(1.5)
        assert (
            registry.counter_value("breaker.transitions", breaker="CFSF", to="open")
            == 2
        )

    def test_unnamed_breaker_gets_a_label(self):
        registry = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=1, metrics=registry)
        breaker.record_failure()
        assert (
            registry.counter_value("breaker.transitions", breaker="unnamed", to="open")
            == 1
        )


class TestDisabledOverheadPath:
    def test_disabled_predictions_are_bit_identical(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        baseline = PredictionService(cfsf_small).predict_many(
            split_small.given, users[:60], items[:60]
        )
        observed = PredictionService(
            cfsf_small, metrics=MetricsRegistry()
        ).predict_many(split_small.given, users[:60], items[:60])
        np.testing.assert_array_equal(
            baseline.predictions, observed.predictions
        )
        np.testing.assert_array_equal(
            baseline.fallback_level, observed.fallback_level
        )
