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
built under the old config, and that a chain of writes gives the same
row keys, bad-row flags and sanitised matrix as building the final
matrix from scratch.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

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

    def test_rewrites_keep_one_state_per_user(self, split_small, requests):
        """Regression: every superseded state stayed cached, pinning its
        prepared arrays, until LRU eviction reached it."""
        users, items = requests
        model = CFSF(**GEOMETRY).fit(split_small.train)
        given = split_small.given
        model.predict_many(given, users, items)
        stats = model.cache_stats()
        n_users = np.unique(users).size
        assert stats["entries"] == n_users

        writer = int(users[0])
        first = weakref.ref(model.active_user_state(given, writer))
        item = int(np.nonzero(~given.mask[writer])[0][0])
        for step in range(200):
            given = given.with_ratings([(writer, item, float(1 + step % 5))])
            model.predict_many(given, users, items)
        after = model.cache_stats()
        assert after["entries"] == n_users
        assert after["misses"] == stats["misses"] + 200
        gc.collect()
        assert first() is None

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


@pytest.mark.stress
def test_racing_fold_ins_keep_one_state_per_user(split_small, requests):
    """Threads folding the same users in under different row contents
    leave at most one cached state per user, and every state they get
    back was computed from the content they asked about."""
    users = np.unique(requests[0])[:2].tolist()
    model = CFSF(**GEOMETRY).fit(split_small.train)
    versions = [split_small.given]
    for value in (2.0, 3.0, 4.0):
        versions.append(versions[0].with_ratings(
            [(u, int(np.nonzero(~versions[0].mask[u])[0][0]), value) for u in users]
        ))
    n_threads = 8
    wrong: list = []
    barrier = threading.Barrier(n_threads)

    def worker(t: int) -> None:
        barrier.wait()
        for step in range(12):
            given = versions[(t + step) % len(versions)]
            for u in users:
                state = model.active_user_state(given, u)
                rated = given.mask[u]
                if not (np.array_equal(state.observed, rated)
                        and np.array_equal(state.profile[rated], given.values[u, rated])):
                    wrong.append((t, step, u))

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
    assert wrong == []
    cached_users = [user for _, user in model._cache]
    assert sorted(cached_users) == sorted(users)


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


#: Ratings a write chain draws from; 0.0 means unrated, and 0.5 and 6.0
#: lie outside the served (1, 5) scale, so some rows are bad.
CHAIN_VALUES = [0.0, 0.5, 1.0, 2.5, 4.0, 5.0, 6.0]


@st.composite
def write_chains(draw):
    """A small base matrix and 1–20 with/without_ratings steps.

    Each step may first fill the parent's memos, so the child has row
    keys and bad-row flags to inherit.  User indices may be negative.
    """
    n_users = draw(st.integers(1, 5))
    n_items = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from(CHAIN_VALUES),
                          min_size=n_users * n_items, max_size=n_users * n_items))
    base = np.array(cells).reshape(n_users, n_items)
    cell = st.tuples(st.integers(-n_users, n_users - 1), st.integers(0, n_items - 1))
    rating = st.sampled_from(CHAIN_VALUES[1:])
    write = st.one_of(
        st.tuples(st.just("with"), st.lists(st.tuples(cell, rating), min_size=1, max_size=3)),
        st.tuples(st.just("without"), st.lists(cell, min_size=1, max_size=3)),
        st.tuples(st.just("nan"), cell),
    )
    steps = draw(st.lists(st.tuples(write, st.booleans()), min_size=1, max_size=20))
    return base, steps


class TestWriteChainProperty:
    def test_chain_matches_matrix_built_from_scratch(self, cfsf_small):
        service = PredictionService(cfsf_small)
        lo, hi = service._scale

        def fill_memos(matrix: RatingMatrix) -> None:
            for u in range(-matrix.n_users, matrix.n_users):
                matrix.row_key(u)
            matrix.bad_rows(lo, hi)
            service._sanitize_given(matrix)

        @given(write_chains())
        @settings(max_examples=60, deadline=None)
        def check(chain) -> None:
            base, steps = chain
            matrix = RatingMatrix(base)
            for (op, arg), warm in steps:
                if warm:
                    fill_memos(matrix)
                if op == "with":
                    matrix = matrix.with_ratings([(u, i, r) for (u, i), r in arg])
                elif op == "without":
                    matrix = matrix.without_ratings(arg)
                else:
                    with pytest.raises(ValueError, match="must be finite"):
                        matrix.with_ratings([(*arg, float("nan"))])

            fresh = RatingMatrix(matrix.values, matrix.mask)
            np.testing.assert_array_equal(matrix.values, fresh.values)
            np.testing.assert_array_equal(matrix.mask, fresh.mask)
            for u in range(-fresh.n_users, fresh.n_users):
                assert matrix.row_key(u) == fresh.row_key(u)
            np.testing.assert_array_equal(matrix.bad_rows(lo, hi), fresh.bad_rows(lo, hi))
            cleaned, flagged = service._sanitize_given(matrix)
            fresh_cleaned, fresh_flagged = service._sanitize_given(fresh)
            assert cleaned == fresh_cleaned
            np.testing.assert_array_equal(flagged, fresh_flagged)

        check()
