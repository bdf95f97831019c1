"""Recommenders under corrupted training data: sparser ratings, items
nobody rated, and label noise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MeanPredictor, UserBasedCF
from repro.core import CFSF
from repro.data import RatingMatrix
from repro.eval import mae


def _sparsified(matrix: RatingMatrix, fraction: float, seed: int) -> RatingMatrix:
    """Drop each rating with probability *fraction*; every user keeps one."""
    rng = np.random.default_rng(seed)
    mask = matrix.mask & (rng.random(matrix.shape) >= fraction)
    rows = np.arange(matrix.n_users)
    first = matrix.mask.argmax(axis=1)
    mask[rows, first] = matrix.mask[rows, first]
    values = np.where(mask, matrix.values, 0.0)
    return RatingMatrix(values, mask, rating_scale=matrix.rating_scale)


def _with_cold_items(matrix: RatingMatrix, n_items: int) -> RatingMatrix:
    """Append *n_items* columns that nobody rated."""
    values = np.hstack([matrix.values, np.zeros((matrix.n_users, n_items))])
    mask = np.hstack([matrix.mask, np.zeros((matrix.n_users, n_items), dtype=bool)])
    return RatingMatrix(values, mask, rating_scale=matrix.rating_scale)


def _with_label_noise(matrix: RatingMatrix, fraction: float, seed: int) -> RatingMatrix:
    """Replace a *fraction* of the observed ratings with uniform integers."""
    rng = np.random.default_rng(seed)
    users, items = np.nonzero(matrix.mask)
    pick = rng.choice(users.size, size=round(users.size * fraction), replace=False)
    lo, hi = matrix.rating_scale
    values = matrix.values.copy()
    values[users[pick], items[pick]] = rng.integers(int(lo), int(hi) + 1, size=pick.size)
    return RatingMatrix(values, matrix.mask.copy(), rating_scale=matrix.rating_scale)


class TestRobustnessUnderFailures:
    """Every model must stay finite/in-scale under each corruption and
    degrade gracefully (not collapse to worse-than-global-mean)."""

    @pytest.mark.parametrize("factory", [
        lambda: CFSF(n_clusters=8, top_m_items=30, top_k_users=10),
        lambda: UserBasedCF(),
        lambda: MeanPredictor("user_item"),
    ])
    def test_sparsified_training(self, split_small, factory):
        sparse_train = _sparsified(split_small.train, 0.5, seed=1)
        assert sparse_train.n_ratings < split_small.train.n_ratings * 0.6
        users, items, truth = split_small.targets_arrays()
        model = factory().fit(sparse_train)
        preds = model.predict_many(split_small.given, users, items)
        lo, hi = split_small.train.rating_scale
        assert np.isfinite(preds).all()
        assert preds.min() >= lo and preds.max() <= hi
        # graceful: at most modest degradation vs the global mean floor
        m_gm = mae(truth, np.full(truth.shape, sparse_train.global_mean()))
        assert mae(truth, preds) < m_gm + 0.05

    def test_cold_item_queries(self, split_small):
        """Queries against never-rated items must not crash or NaN."""
        train = _with_cold_items(split_small.train, 3)
        given = _with_cold_items(split_small.given, 3)
        model = CFSF(n_clusters=8, top_m_items=30, top_k_users=10).fit(train)
        cold = np.arange(train.n_items - 3, train.n_items)
        preds = model.predict_many(given, np.zeros(3, dtype=int), cold)
        assert np.isfinite(preds).all()

    def test_noise_degrades_but_not_catastrophically(self, split_small):
        users, items, truth = split_small.targets_arrays()
        clean = CFSF(n_clusters=8, top_m_items=30, top_k_users=10).fit(split_small.train)
        m_clean = mae(truth, clean.predict_many(split_small.given, users, items))
        noisy_train = _with_label_noise(split_small.train, 0.3, seed=2)
        noisy = CFSF(n_clusters=8, top_m_items=30, top_k_users=10).fit(noisy_train)
        m_noisy = mae(truth, noisy.predict_many(split_small.given, users, items))
        assert m_noisy > m_clean          # noise hurts...
        assert m_noisy < m_clean + 0.25   # ...but does not explode
