"""The online caches key on each user's given-row content.

The per-user state cache of :class:`~repro.core.model.CFSF` and the
request cache of :class:`~repro.serving.PredictionService` both key on
:meth:`RatingMatrix.row_key`.  These tests pin the two consequences:

* a warm cache never serves an answer computed from other content —
  any single-cell change to a profile gives the fresh-model prediction,
  including a value swap that leaves ``hash(given)`` unchanged;
* a write to one user's profile re-folds that user only, and every
  other user's cached state and request answers stay warm.

They also pin that a config change on a fitted model drops the state
built under the old config.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CFSF
from repro.data import RatingMatrix
from repro.serving import PredictionService
from repro.serving.errors import InvalidRequestError
from repro.serving.faults import poison_given

GEOMETRY = dict(n_clusters=8, top_m_items=30, top_k_users=10)


@pytest.fixture(scope="module")
def fresh(split_small):
    """Predictions of a model whose per-user cache starts empty."""
    model = CFSF(**GEOMETRY).fit(split_small.train)

    def predict(matrix: RatingMatrix, users, items) -> np.ndarray:
        model.build_online_kernel()  # drops every cached user state
        return model.predict_many(matrix, users, items)

    return predict


@pytest.fixture(scope="module")
def requests(split_small):
    """Five items for each of four active users, user-sorted."""
    users = np.unique(split_small.targets_arrays()[0])[:4]
    items = np.arange(5)
    return np.repeat(users, items.size), np.tile(items, users.size)


def swap_two_ratings(base: RatingMatrix, user: int) -> RatingMatrix:
    """*base* with two unequal ratings of *user* trading places."""
    idx, ratings = base.user_profile(user)
    a = 0
    b = int(np.nonzero(ratings != ratings[a])[0][0])
    values = base.values.copy()
    values[user, [idx[a], idx[b]]] = ratings[[b, a]]
    return RatingMatrix(values, base.mask, rating_scale=base.rating_scale)


class TestValueSwap:
    """Regression: the old whole-matrix hash key served a stale answer."""

    def test_model_and_service_give_fresh_answer(self, split_small, requests, fresh):
        users, items = requests
        swapped = swap_two_ratings(split_small.given, int(users[0]))
        assert hash(swapped) == hash(split_small.given)
        expected = fresh(swapped, users, items)
        assert not np.array_equal(expected, fresh(split_small.given, users, items))

        model = CFSF(**GEOMETRY).fit(split_small.train)
        service = PredictionService(model)
        model.predict_many(split_small.given, users, items)
        service.predict_many(split_small.given, users, items)

        np.testing.assert_array_equal(model.predict_many(swapped, users, items), expected)
        result = service.predict_many(swapped, users, items)
        np.testing.assert_array_equal(result.predictions, expected)
        assert (result.fallback_level == 0).all()


@st.composite
def single_cell_changes(draw, base: RatingMatrix, users: np.ndarray):
    """One add / remove / value change / in-row swap on one user."""
    user = int(draw(st.sampled_from(users.tolist())))
    rated = base.user_profile(user)[0]
    unrated = np.nonzero(~base.mask[user])[0]
    op = draw(st.sampled_from(["add", "remove", "change", "swap"]))
    pick = draw(st.integers(0, 10**6))
    value = float(draw(st.integers(1, 5)))
    if op == "add":
        return base.with_ratings([(user, int(unrated[pick % unrated.size]), value)])
    item = int(rated[pick % rated.size])
    if op == "remove":
        return base.without_ratings([(user, item)])
    if op == "change":
        return base.with_ratings([(user, item, value)])
    other = int(rated[(pick // rated.size) % rated.size])
    swapped = [(user, item, base.values[user, other]), (user, other, base.values[user, item])]
    return base.with_ratings(swapped)


class TestSingleCellProperty:
    @pytest.fixture(scope="class")
    def warm(self, split_small, requests):
        model = CFSF(**GEOMETRY).fit(split_small.train)
        return model, PredictionService(model)

    def test_any_single_cell_change_gives_fresh_answer(
        self, split_small, requests, fresh, warm
    ):
        users, items = requests
        model, service = warm

        @given(single_cell_changes(split_small.given, np.unique(users)))
        @settings(max_examples=30, deadline=None)
        def check(changed: RatingMatrix) -> None:
            # Warm both caches on the unchanged profiles first, so a
            # key that missed the change would serve the old answer.
            model.predict_many(split_small.given, users, items)
            service.predict_many(split_small.given, users, items)
            expected = fresh(changed, users, items)
            np.testing.assert_array_equal(model.predict_many(changed, users, items), expected)
            result = service.predict_many(changed, users, items)
            np.testing.assert_array_equal(result.predictions, expected)

        check()


class TestWriteRefoldsOneUser:
    def _write(self, base: RatingMatrix, user: int) -> RatingMatrix:
        item = int(np.nonzero(~base.mask[user])[0][0])
        return base.with_ratings([(user, item, 4.0)])

    def test_model_adds_exactly_one_state_miss(self, split_small, requests):
        users, items = requests
        model = CFSF(**GEOMETRY).fit(split_small.train)
        model.predict_many(split_small.given, users, items)
        misses = model.cache_stats()["misses"]

        written = self._write(split_small.given, int(users[0]))
        model.predict_many(written, users, items)
        assert model.cache_stats()["misses"] == misses + 1

    def test_service_serves_other_users_from_request_cache(self, split_small, requests):
        users, items = requests
        service = PredictionService(CFSF(**GEOMETRY).fit(split_small.train))
        service.predict_many(split_small.given, users, items)
        before = service.health()["request_cache"]

        writer = int(users[0])
        written = self._write(split_small.given, writer)
        service.predict_many(written, users, items)
        after = service.health()["request_cache"]
        n_writer = int((users == writer).sum())
        assert after["hits"] - before["hits"] == users.size - n_writer
        assert after["misses"] - before["misses"] == n_writer


@pytest.mark.stress
def test_concurrent_row_keys_agree(split_small):
    """Threads racing to fill one matrix's row-key memo all read the
    keys a single thread computes."""
    base = split_small.given
    expected = [RatingMatrix(base.values, base.mask).row_key(u) for u in range(base.n_users)]
    matrix = RatingMatrix(base.values, base.mask)
    n_threads = 8
    outputs: list = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def worker(t: int) -> None:
        barrier.wait()
        outputs[t] = [matrix.row_key(u) for u in range(matrix.n_users)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outputs == [expected] * n_threads


class TestPerUserValidation:
    def test_bad_row_rejected_only_when_requested(self, split_small, requests):
        users, items = requests
        model = CFSF(**GEOMETRY).fit(split_small.train)
        bad_user = int(users[0])
        poisoned = poison_given(split_small.given, [(bad_user, 0, float("nan"))])
        others = users != bad_user
        np.testing.assert_array_equal(
            model.predict_many(poisoned, users[others], items[others]),
            model.predict_many(split_small.given, users[others], items[others]),
        )
        with pytest.raises(InvalidRequestError, match="non-finite"):
            model.predict_many(poisoned, users, items)


class TestConfigChange:
    @pytest.mark.parametrize(
        "change",
        [
            dict(top_k_users=4),
            dict(active_smoothing_clusters=3),
            dict(candidate_pool=12),
            dict(lam=0.2),
            dict(cache_size=3),
        ],
    )
    def test_changed_config_matches_a_fresh_fit(self, split_small, requests, change):
        users, items = requests
        model = CFSF(**GEOMETRY).fit(split_small.train)
        model.predict_many(split_small.given, users, items)

        model.config = model.config.with_(**change)
        expected = CFSF(**{**GEOMETRY, **change}).fit(split_small.train).predict_many(
            split_small.given, users, items
        )
        np.testing.assert_array_equal(
            model.predict_many(split_small.given, users, items), expected
        )
        assert model.cache_stats()["entries"] <= model.config.cache_size

    def test_equal_config_keeps_state_warm(self, split_small, requests):
        users, items = requests
        model = CFSF(**GEOMETRY).fit(split_small.train)
        model.predict_many(split_small.given, users, items)
        kernel, misses = model.kernel, model.cache_stats()["misses"]

        model.config = model.config.with_()
        model.predict_many(split_small.given, users, items)
        assert model.kernel is kernel
        assert model.cache_stats()["misses"] == misses
