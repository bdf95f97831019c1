"""Tests for cross-validation and dataset diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MeanPredictor
from repro.data import (
    RatingMatrix,
    gini_coefficient,
    popularity_curve,
    popularity_quality_correlation,
    rating_histogram,
    summarize,
)
from repro.data.stats import activity_histogram
from repro.eval import cross_validate, user_kfold_splits


class TestUserKFold:
    def test_folds_partition_users(self, ml_small):
        splits = user_kfold_splits(ml_small, n_folds=4, given_n=6, seed=0)
        assert len(splits) == 4
        sizes = [s.n_active_users for s in splits]
        assert sum(sizes) == ml_small.n_users

    def test_train_test_disjoint_within_fold(self, ml_small):
        splits = user_kfold_splits(ml_small, n_folds=4, given_n=6, seed=0)
        for s in splits:
            assert s.train.n_users + s.n_active_users == ml_small.n_users

    def test_each_fold_preserves_ratings(self, ml_small):
        splits = user_kfold_splits(ml_small, n_folds=4, given_n=6, seed=0)
        for s in splits:
            total = s.train.n_ratings + s.given.n_ratings + s.heldout.n_ratings
            assert total == ml_small.n_ratings

    def test_deterministic(self, ml_small):
        a = user_kfold_splits(ml_small, n_folds=3, given_n=6, seed=5)
        b = user_kfold_splits(ml_small, n_folds=3, given_n=6, seed=5)
        assert all(x.given == y.given for x, y in zip(a, b))

    def test_too_few_users(self, tiny_rm):
        with pytest.raises(ValueError, match="users"):
            user_kfold_splits(tiny_rm, n_folds=3, given_n=1)

    def test_min_two_folds(self, ml_small):
        with pytest.raises(ValueError):
            user_kfold_splits(ml_small, n_folds=1, given_n=6)


class TestCrossValidate:
    def test_aggregates(self, ml_small):
        result = cross_validate(
            lambda: MeanPredictor("item"), ml_small, n_folds=3, given_n=6, seed=0
        )
        assert result.n_folds == 3
        assert 0.4 < result.mae_mean < 1.2
        assert result.mae_std >= 0.0
        assert "folds" in result.summary()

    def test_fresh_model_per_fold(self, ml_small):
        created = []

        def factory():
            created.append(1)
            return MeanPredictor("item")

        cross_validate(factory, ml_small, n_folds=3, given_n=6, seed=0)
        assert len(created) == 3


class TestDatasetStats:
    def test_rating_histogram_totals(self, tiny_rm):
        hist = rating_histogram(tiny_rm)
        assert sum(hist.values()) == tiny_rm.n_ratings

    def test_popularity_curve_descending(self, ml_small):
        curve = popularity_curve(ml_small)
        assert (np.diff(curve) <= 0).all()
        assert curve.sum() == ml_small.n_ratings

    def test_gini_uniform_zero(self):
        assert gini_coefficient(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated_high(self):
        counts = np.zeros(100)
        counts[0] = 1000
        assert gini_coefficient(counts) > 0.9

    def test_gini_validation(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([]))
        with pytest.raises(ValueError):
            gini_coefficient(np.array([-1.0]))
        assert gini_coefficient(np.zeros(5)) == 0.0

    def test_activity_histogram_sums_to_users(self, ml_small):
        _, hist = activity_histogram(ml_small)
        assert hist.sum() == ml_small.n_users

    def test_popularity_quality_positive_on_generator(self, ml_small):
        assert popularity_quality_correlation(ml_small) > 0.0

    def test_popularity_quality_needs_items(self):
        rm = RatingMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            popularity_quality_correlation(rm, min_count=5)

    def test_summarize_keys(self, ml_small):
        report = summarize(ml_small)
        for key in (
            "table1",
            "rating_histogram",
            "popularity_gini",
            "top10_item_share",
            "popularity_quality_corr",
            "median_user_activity",
        ):
            assert key in report
        assert 0.0 <= report["popularity_gini"] <= 1.0
