"""Tests for :class:`repro.serving.PredictionService`.

The service's contract is the acceptance criterion of the robustness
work: **every request gets a prediction**, no matter which layers are
down, and the result reports *how* each answer was produced
(``fallback_level`` / ``invalid`` / ``sanitized`` /
``deadline_deferred``).

The chain serves per-user blocks, so tests that need several
primary-stage attempts within one batch use requests spanning several
distinct users (the split's target arrays are user-sorted; a
single-user slice would exercise only one block).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CFSF, save_model
from repro.obs import MetricsRegistry
from repro.parallel import ParallelPredictor
from repro.serving import (
    InvalidRequestError,
    ModelUnavailableError,
    PredictionService,
    SnapshotCorruptError,
)
from repro.serving.faults import (
    FlakyRecommender,
    KillWorkerOnce,
    ManualClock,
    SlowRecommender,
    corrupt_snapshot,
    poison_given,
)


@pytest.fixture(scope="module")
def reqs(split_small):
    """One request per active user for eight distinct users.

    Eight distinct users means eight per-user blocks, i.e. eight
    independent walks of the fallback chain per ``predict_many`` call.
    """
    users, items, _ = split_small.targets_arrays()
    _, first = np.unique(users, return_index=True)
    idx = np.sort(first[:8])
    return users[idx], items[idx]


@pytest.fixture(scope="module")
def batch(split_small):
    """A shuffled 60-request batch spanning many users."""
    users, items, _ = split_small.targets_arrays()
    sel = np.random.default_rng(5).permutation(users.size)[:60]
    return users[sel], items[sel]


def make_service(model, **overrides) -> PredictionService:
    """A service with deterministic breaker timing (no jitter)."""
    kwargs = dict(jitter=0.0, reset_timeout=1.0, failure_threshold=3)
    kwargs.update(overrides)
    return PredictionService(model, **kwargs)


class TestHealthyPath:
    def test_matches_bare_model(self, cfsf_small, split_small, batch):
        users, items = batch
        service = make_service(cfsf_small)
        result = service.predict_many(split_small.given, users, items)
        expected = cfsf_small.predict_many(split_small.given, users, items)
        assert np.allclose(result.predictions, expected)
        assert (result.fallback_level == 0).all()
        assert not result.degraded.any()
        assert result.degraded_fraction == 0.0

    def test_stage_names(self, cfsf_small):
        service = make_service(cfsf_small)
        assert service.stage_names == (
            str(cfsf_small.name), "item_knn", "user_mean", "global_mean"
        )

    def test_level_counts_cover_batch(self, cfsf_small, split_small, batch):
        users, items = batch
        service = make_service(cfsf_small)
        result = service.predict_many(split_small.given, users, items)
        counts = result.level_counts()
        assert counts[str(cfsf_small.name)] == len(result) == users.size
        assert sum(counts.values()) == users.size

    def test_single_request_wrapper(self, cfsf_small, split_small, batch):
        """Scalar and batched answers agree bit for bit."""
        users, items = batch
        scalar = make_service(cfsf_small)
        single = np.array([
            scalar.predict(split_small.given, int(u), int(i))
            for u, i in zip(users, items)
        ])
        many = make_service(cfsf_small).predict_many(split_small.given, users, items)
        assert np.array_equal(single, many.predictions)

    def test_counters_accumulate(self, cfsf_small, split_small, reqs):
        users, items = reqs
        service = make_service(cfsf_small)
        service.predict_many(split_small.given, users, items)
        service.predict_many(split_small.given, users, items)
        health = service.health()
        assert health["requests_total"] == 2 * users.size
        assert health["model_version"] == 1
        assert health["breakers"][str(cfsf_small.name)]["state"] == "closed"

    def test_no_gis_model_gets_shorter_chain(self, split_small):
        from repro.baselines import MeanPredictor

        model = MeanPredictor().fit(split_small.train)
        service = make_service(model)
        assert "item_knn" not in service.stage_names
        assert service.stage_names[-2:] == ("user_mean", "global_mean")


class TestValidation:
    def test_mismatched_shapes_raise(self, cfsf_small, split_small):
        service = make_service(cfsf_small)
        with pytest.raises(InvalidRequestError):
            service.predict_many(split_small.given, np.array([0, 1]), np.array([0]))

    def test_non_integer_requests_raise(self, cfsf_small, split_small):
        service = make_service(cfsf_small)
        with pytest.raises(InvalidRequestError):
            service.predict_many(split_small.given, ["zero"], ["one"])

    def test_out_of_range_ids_are_answered_and_flagged(self, cfsf_small, split_small):
        service = make_service(cfsf_small)
        users = np.array([0, 10_000, -1])
        items = np.array([0, 0, 0])
        result = service.predict_many(split_small.given, users, items)
        assert result.invalid.tolist() == [False, True, True]
        assert np.isfinite(result.predictions).all()
        lo, hi = split_small.given.rating_scale
        assert ((result.predictions >= lo) & (result.predictions <= hi)).all()
        # Invalid requests come from the terminal stage; valid one is primary.
        assert result.fallback_level[0] == 0
        assert (result.fallback_level[1:] == len(service.stage_names) - 1).all()
        assert service.health()["invalid_total"] == 2

    def test_strict_mode_raises_on_bad_id(self, cfsf_small, split_small):
        service = make_service(cfsf_small, strict=True)
        with pytest.raises(InvalidRequestError, match="out of range"):
            service.predict_many(
                split_small.given, np.array([10_000]), np.array([0])
            )

    def test_wrong_item_space_all_invalid(self, cfsf_small, tiny_rm):
        service = make_service(cfsf_small)
        result = service.predict_many(tiny_rm, np.array([0, 1]), np.array([0, 1]))
        assert result.invalid.all()
        assert np.isfinite(result.predictions).all()

    def test_wrong_item_space_strict_raises(self, cfsf_small, tiny_rm):
        service = make_service(cfsf_small, strict=True)
        with pytest.raises(InvalidRequestError, match="items"):
            service.predict_many(tiny_rm, np.array([0]), np.array([0]))

    def test_invalid_request_error_is_value_error(self):
        assert issubclass(InvalidRequestError, ValueError)


class TestConstruction:
    def test_requires_model_or_snapshot(self):
        with pytest.raises(ModelUnavailableError):
            PredictionService()

    def test_rejects_unfitted_model(self):
        with pytest.raises(ModelUnavailableError, match="not fitted"):
            PredictionService(CFSF())

    def test_boots_from_snapshot(self, cfsf_small, split_small, reqs, tmp_path):
        snap = str(tmp_path / "model.npz")
        save_model(cfsf_small, snap)
        service = PredictionService(snapshot_path=snap)
        users, items = reqs
        result = service.predict_many(split_small.given, users, items)
        expected = cfsf_small.predict_many(split_small.given, users, items)
        assert np.allclose(result.predictions, expected)
        assert (result.fallback_level == 0).all()

    @pytest.mark.faults
    def test_corrupt_initial_snapshot_raises(self, cfsf_small, tmp_path):
        snap = str(tmp_path / "model.npz")
        save_model(cfsf_small, snap)
        corrupt_snapshot(snap)
        clock = ManualClock()
        with pytest.raises(ModelUnavailableError):
            PredictionService(snapshot_path=snap, sleep=clock.sleep)


@pytest.mark.faults
class TestFallbackChain:
    def test_dead_primary_served_by_item_knn(self, cfsf_small, split_small, batch):
        users, items = batch
        flaky = FlakyRecommender(cfsf_small, fail_times=None)
        service = make_service(flaky)
        result = service.predict_many(split_small.given, users, items)
        assert (result.fallback_level == 1).all()
        assert result.level_counts()["item_knn"] == users.size
        assert result.degraded.all()
        assert np.isfinite(result.predictions).all()
        lo, hi = split_small.given.rating_scale
        assert ((result.predictions >= lo) & (result.predictions <= hi)).all()

    def test_stage_failures_reported(self, cfsf_small, split_small, reqs):
        users, items = reqs
        service = make_service(FlakyRecommender(cfsf_small, fail_times=None))
        result = service.predict_many(split_small.given, users, items)
        assert result.errors
        assert all(f.stage == str(cfsf_small.name) for f in result.errors)
        assert "injected stage failure" in result.errors[0].error

    def test_breaker_opens_after_threshold_and_recovers(
        self, cfsf_small, split_small, reqs
    ):
        """The acceptance-criterion breaker scenario, deterministically.

        Three consecutive primary failures (three per-user blocks) trip
        the circuit; subsequent blocks and batches skip the primary
        without calling it; after the backoff elapses, a half-open
        probe succeeds and the whole chain is healthy again.
        """
        users, items = reqs
        clock = ManualClock()
        flaky = FlakyRecommender(cfsf_small, fail_times=3)
        service = make_service(flaky, clock=clock, sleep=clock.sleep)
        primary = str(cfsf_small.name)

        result = service.predict_many(split_small.given, users, items)
        # Blocks 1-3 failed the primary (tripping the breaker); the
        # remaining blocks skipped it.  All were answered by item-KNN.
        assert flaky.failures_injected == 3
        assert service.breaker_states()[primary] == "open"
        assert (result.fallback_level == 1).all()
        assert np.isfinite(result.predictions).all()

        # While open, the primary is not even attempted.
        calls_before = flaky.calls
        result2 = service.predict_many(split_small.given, users, items)
        assert flaky.calls == calls_before
        assert (result2.fallback_level == 1).all()

        # After the backoff the probe is let through; the stage has
        # healed, so the breaker closes and level 0 serves again.
        clock.advance(1.01)
        result3 = service.predict_many(split_small.given, users, items)
        assert service.breaker_states()[primary] == "closed"
        assert (result3.fallback_level == 0).all()
        expected = cfsf_small.predict_many(split_small.given, users, items)
        assert np.allclose(result3.predictions, expected)

    def test_no_gis_chain_falls_to_user_mean(self, split_small, reqs):
        from repro.baselines import MeanPredictor

        users, items = reqs
        # No gis attribute -> no item_knn stage; a dead primary drops
        # straight to the user-mean stage.
        flaky = FlakyRecommender(
            MeanPredictor().fit(split_small.train), fail_times=None
        )
        service = make_service(flaky)
        result = service.predict_many(split_small.given, users, items)
        cheap = service.stage_names.index("user_mean")
        assert (result.fallback_level == cheap).all()
        assert np.isfinite(result.predictions).all()


class _NaNRecommender(FlakyRecommender):
    """A primary that answers every request with NaN."""

    def predict_many(self, given, users, items):
        return np.full(np.asarray(users).size, np.nan)


class _BrokenSim:
    """A GIS similarity matrix whose every read raises."""

    def __getitem__(self, key):
        raise RuntimeError("injected item_knn failure")


def _flaky(times):
    return lambda model: FlakyRecommender(model, fail_times=times)


def _dead_primary_and_item_knn(model):
    dead = FlakyRecommender(model, fail_times=None)
    dead.gis = SimpleNamespace(sim=_BrokenSim())
    return dead


def _open_primary(service, given, users, items):
    """Trip the primary's breaker with one warm-up batch."""
    service.predict_many(given, users, items)
    assert service.breaker_states()[service.stage_names[0]] == "open"


# One row per chain walk: (primary wrapper, warm-up, deadline,
# per-request level, stage names in ``errors`` with "P" for the
# primary, ``serving.stage.failures`` per stage during the batch).
# The ``reqs`` batch holds eight distinct users, so a walk past the
# whole-batch attempt runs eight per-user blocks; the breakers trip
# after three consecutive failures.
CHAIN_WALKS = {
    "primary_healthy": (None, None, None, 0, (), {}),
    "primary_raises_once_then_heals": (_flaky(1), None, None, 0, ("P",), {"P": 1}),
    "primary_returns_nan": (_NaNRecommender, None, None, 1, ("P", "P", "P"), {"P": 3}),
    "primary_breaker_open": (_flaky(None), _open_primary, None, 1, (), {}),
    "primary_and_item_knn_failing": (
        _dead_primary_and_item_knn, None, None, 2,
        ("P", "P", "item_knn", "P", "item_knn", "item_knn"),
        {"P": 3, "item_knn": 3},
    ),
    "zero_deadline": (None, None, 0.0, 2, (), {}),
}


@pytest.mark.faults
@pytest.mark.parametrize("case", sorted(CHAIN_WALKS))
def test_chain_walk_table(case, cfsf_small, split_small, reqs):
    """Which stage serves, what it answers, and what the walk records.

    Predictions must equal, bit for bit, the output of the stage that
    served each request, computed on its own over the whole batch.
    """
    wrap, warm_up, deadline, level, error_stages, failures = CHAIN_WALKS[case]
    users, items = reqs
    given = split_small.given
    clock = ManualClock()
    registry = MetricsRegistry()
    model = cfsf_small if wrap is None else wrap(cfsf_small)
    service = make_service(model, clock=clock, sleep=clock.sleep, metrics=registry)
    primary = service.stage_names[0]
    if warm_up is not None:
        warm_up(service, given, users, items)

    def stage_failures() -> dict[str, int]:
        return {
            name: int(registry.counter_value("serving.stage.failures", stage=name))
            for name in service.stage_names
        }

    before = stage_failures()
    result = service.predict_many(given, users, items, deadline=deadline)
    new_failures = {
        name: count - before[name]
        for name, count in stage_failures().items()
        if count != before[name]
    }

    named = {"P": primary}
    assert result.fallback_level.tolist() == [level] * users.size
    assert [f.stage for f in result.errors] == [named.get(s, s) for s in error_stages]
    assert new_failures == {named.get(s, s): n for s, n in failures.items()}

    reference = make_service(cfsf_small)
    expected = (
        cfsf_small.predict_many(given, users, items)
        if level == 0
        else reference._stages[level].fn(given, users, items)
    )
    lo, hi = given.rating_scale
    assert np.array_equal(result.predictions, np.clip(expected, lo, hi))


@pytest.mark.faults
class TestSanitization:
    def test_poisoned_given_is_sanitized_and_served(
        self, cfsf_small, split_small, reqs
    ):
        users, items = reqs
        bad_users = [int(users[0]), int(users[1])]
        poisoned = poison_given(
            split_small.given,
            [(bad_users[0], 0, float("nan")), (bad_users[1], 1, 99.0)],
        )
        service = make_service(cfsf_small)
        result = service.predict_many(poisoned, users, items)
        assert np.isfinite(result.predictions).all()
        assert result.sanitized.tolist() == [u in bad_users for u in users]
        assert result.degraded.tolist() == [u in bad_users for u in users]
        # Sanitisation repairs only the poisoned rows: everyone else is
        # served exactly as from the clean matrix.
        clean = make_service(cfsf_small).predict_many(split_small.given, users, items)
        untouched = ~result.sanitized
        assert np.allclose(
            result.predictions[untouched], clean.predictions[untouched]
        )

    def test_bare_model_rejects_poisoned_given(self, cfsf_small, split_small, reqs):
        users, items = reqs
        poisoned = poison_given(split_small.given, [(int(users[0]), 0, float("nan"))])
        with pytest.raises(InvalidRequestError, match="non-finite"):
            cfsf_small.predict_many(poisoned, users, items)

    def test_bare_model_rejects_out_of_scale(self, cfsf_small, split_small, reqs):
        users, items = reqs
        poisoned = poison_given(split_small.given, [(int(users[0]), 0, 99.0)])
        with pytest.raises(InvalidRequestError):
            cfsf_small.predict_many(poisoned, users, items)

    def test_sanitisation_memoised_by_identity(self, cfsf_small, split_small, reqs):
        users, items = reqs
        poisoned = poison_given(split_small.given, [(int(users[0]), 0, float("nan"))])
        service = make_service(cfsf_small)
        first = service.predict_many(poisoned, users, items)
        memo = service._sanitize_memo
        second = service.predict_many(poisoned, users, items)
        assert service._sanitize_memo is memo
        assert np.array_equal(first.predictions, second.predictions)

    def test_poisoned_child_of_sanitised_parent_is_flagged(
        self, cfsf_small, split_small, reqs
    ):
        users, items = reqs
        service = make_service(cfsf_small)
        service.predict_many(split_small.given, users, items)  # parent screened clean
        bad_user = int(users[0])
        poisoned = poison_given(split_small.given, [(bad_user, 0, 99.0)])
        result = service.predict_many(poisoned, users, items)
        assert result.sanitized.tolist() == [u == bad_user for u in users]
        cleaned, flagged = service._sanitize_given(poisoned)
        assert np.flatnonzero(flagged).tolist() == [bad_user]
        assert not cleaned.mask[bad_user, 0]

    def test_clean_given_not_copied(self, cfsf_small, split_small, reqs):
        service = make_service(cfsf_small)
        cleaned, flagged = service._sanitize_given(split_small.given)
        assert cleaned is split_small.given
        assert not flagged.any()


@pytest.mark.faults
class TestDeadline:
    def test_partial_batch_defers_to_user_mean(self, cfsf_small, split_small, reqs):
        users, items = reqs
        clock = ManualClock()
        slow = SlowRecommender(cfsf_small, delay=0.1, sleep=clock.sleep)
        service = make_service(slow, clock=clock)
        result = service.predict_many(
            split_small.given, users, items, deadline=0.25
        )
        # Three 0.1s blocks fit the 0.25s budget (the check precedes
        # each block); the remaining five are deferred.
        assert result.deadline_hit
        assert int(result.deadline_deferred.sum()) == 5
        served = ~result.deadline_deferred
        assert (result.fallback_level[served] == 0).all()
        cheap = service.stage_names.index("user_mean")
        assert (result.fallback_level[result.deadline_deferred] == cheap).all()
        assert np.isfinite(result.predictions).all()
        assert service.health()["deadline_deferred_total"] == 5

    def test_zero_deadline_defers_everything(self, cfsf_small, split_small, reqs):
        users, items = reqs
        clock = ManualClock()
        service = make_service(cfsf_small, clock=clock)
        result = service.predict_many(split_small.given, users, items, deadline=0.0)
        assert result.deadline_deferred.all()
        assert result.degraded.all()
        assert np.isfinite(result.predictions).all()

    def test_generous_deadline_serves_everything(self, cfsf_small, split_small, reqs):
        users, items = reqs
        service = make_service(cfsf_small)
        result = service.predict_many(split_small.given, users, items, deadline=60.0)
        assert not result.deadline_hit
        assert not result.deadline_deferred.any()
        assert (result.fallback_level == 0).all()


@pytest.mark.faults
class TestReload:
    def _snapshot(self, model, tmp_path, name="model.npz") -> str:
        path = str(tmp_path / name)
        save_model(model, path)
        return path

    def test_corrupt_snapshot_keeps_last_known_good(
        self, cfsf_small, split_small, reqs, tmp_path
    ):
        snap = self._snapshot(cfsf_small, tmp_path)
        clock = ManualClock()
        service = make_service(cfsf_small, snapshot_path=snap, sleep=clock.sleep)
        corrupt_snapshot(snap)
        assert service.reload() is False
        assert service.health()["reloads_failed"] == 1
        assert isinstance(service.last_reload_error, SnapshotCorruptError)
        assert service.model_version == 1
        # Still serving, at full quality, from the last-known-good model.
        users, items = reqs
        result = service.predict_many(split_small.given, users, items)
        assert (result.fallback_level == 0).all()
        assert service.health()["last_reload_error"] is not None

    def test_successful_reload_bumps_version(self, cfsf_small, tmp_path):
        snap = self._snapshot(cfsf_small, tmp_path)
        service = make_service(cfsf_small, snapshot_path=snap)
        assert service.reload() is True
        assert service.health()["reloads_ok"] == 1
        assert service.model_version == 2
        # Breakers survive the swap (operational history is not reset).
        assert set(service.breaker_states()) == set(service.stage_names)

    def test_missing_snapshot_keeps_serving(self, cfsf_small, tmp_path):
        clock = ManualClock()
        service = make_service(cfsf_small, sleep=clock.sleep)
        assert service.reload(str(tmp_path / "nope.npz")) is False
        assert service.health()["reloads_failed"] == 1
        assert isinstance(service.last_reload_error, FileNotFoundError)

    def test_reload_without_path_raises(self, cfsf_small):
        service = make_service(cfsf_small)
        with pytest.raises(ValueError, match="no snapshot path"):
            service.reload()

    def test_retry_backoff_doubles(self, cfsf_small, tmp_path):
        clock = ManualClock()
        service = make_service(
            cfsf_small, reload_retries=3, reload_backoff=0.05, sleep=clock.sleep
        )
        assert service.reload(str(tmp_path / "nope.npz")) is False
        # Three attempts -> two sleeps, doubling.
        assert clock.sleeps == [pytest.approx(0.05), pytest.approx(0.1)]


@pytest.mark.faults
class TestAcceptanceScenario:
    def test_faults_everywhere_every_request_answered(
        self, cfsf_small, split_small, reqs, tmp_path
    ):
        """The issue's acceptance criterion, end to end.

        Corrupted snapshot + killed pool worker + three consecutive
        primary-stage failures: every request still gets a finite
        in-scale prediction, each one reports its fallback level, and
        the breaker demonstrably opens and then recovers.
        """
        users, items = reqs
        lo, hi = split_small.given.rating_scale

        # Fault 1: the snapshot on disk is corrupted -> reload fails,
        # the service keeps the last-known-good model.
        snap = str(tmp_path / "model.npz")
        save_model(cfsf_small, snap)
        corrupt_snapshot(snap)
        clock = ManualClock()
        flaky = FlakyRecommender(cfsf_small, fail_times=3)
        service = make_service(
            flaky, snapshot_path=snap, clock=clock, sleep=clock.sleep
        )
        assert service.reload() is False
        assert isinstance(service.last_reload_error, SnapshotCorruptError)

        # Fault 2: the primary stage fails three consecutive times ->
        # the breaker opens, the batch degrades to item-KNN, and every
        # request is still answered.
        result = service.predict_many(split_small.given, users, items)
        assert len(result) == users.size
        assert np.isfinite(result.predictions).all()
        assert ((result.predictions >= lo) & (result.predictions <= hi)).all()
        assert (result.fallback_level == 1).all()
        assert result.degraded.all()
        assert service.breaker_states()[str(cfsf_small.name)] == "open"

        # Fault 3: a pool worker is killed mid-batch -> the batch is
        # retried on a respawned pool and completes bit-identically.
        hook = KillWorkerOnce(str(tmp_path / "kill.flag")).arm()
        with ParallelPredictor(cfsf_small, n_workers=2, worker_hook=hook) as pp:
            par = pp.predict_many(split_small.given, users, items)
            assert pp.crash_recoveries >= 1
        assert np.array_equal(
            par, cfsf_small.predict_many(split_small.given, users, items)
        )

        # Recovery: once the backoff elapses the healed primary serves
        # at level 0 again.
        clock.advance(1.5)
        recovered = service.predict_many(split_small.given, users, items)
        assert service.breaker_states()[str(cfsf_small.name)] == "closed"
        assert (recovered.fallback_level == 0).all()
