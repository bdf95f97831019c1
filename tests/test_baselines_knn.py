"""Tests for the SIR (item-based) and SUR (user-based) baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ItemBasedCF, MeanPredictor, NotFittedError, UserBasedCF
from repro.data import RatingMatrix
from repro.eval import mae


class TestItemBasedCF:
    def test_hand_computed_eq1(self):
        """Literal Eq. 1 on a 3x3 case with known similarities."""
        # Items 0 and 1 identical over co-raters -> sim 1; item 2 differs.
        train = RatingMatrix(
            np.array(
                [
                    [5.0, 5.0, 1.0],
                    [3.0, 3.0, 4.0],
                    [1.0, 1.0, 5.0],
                    [4.0, 4.0, 2.0],
                ]
            )
        )
        model = ItemBasedCF().fit(train)
        # Active user rated item 1 with 4.0 -> prediction for item 0
        # should be exactly 4.0 (only one positive-sim neighbour rated).
        given = RatingMatrix(np.array([[0.0, 4.0, 0.0]]))
        pred = model.predict(given, 0, 0)
        assert pred == pytest.approx(4.0)

    def test_self_item_excluded(self):
        train = RatingMatrix(np.array([[5.0, 4.0], [3.0, 2.0], [1.0, 2.0]]))
        model = ItemBasedCF().fit(train)
        given = RatingMatrix(np.array([[2.0, 5.0]]))
        # Asking about item 0, which the user already rated: their own
        # rating must not echo back through the sim=1 diagonal.
        pred = model.predict(given, 0, 0)
        # The neighbourhood is item 1 alone (positive PCC), so Eq. 1
        # returns the user's rating of it.
        assert pred == pytest.approx(5.0)

    def test_unfitted_raises(self, split_small):
        with pytest.raises(NotFittedError):
            ItemBasedCF().predict_many(split_small.given, [0], [0])

    def test_no_ratings_falls_back(self, split_small):
        model = ItemBasedCF().fit(split_small.train)
        empty = RatingMatrix(
            np.zeros((1, split_small.train.n_items)),
            np.zeros((1, split_small.train.n_items), dtype=bool),
        )
        pred = model.predict(empty, 0, 0)
        lo, hi = split_small.train.rating_scale
        assert lo <= pred <= hi



class TestUserBasedCF:
    def test_plain_eq2_weighted_average(self):
        train = RatingMatrix(
            np.array(
                [
                    [5.0, 3.0, 4.0, 4.0],   # mean 4, deviations (1, -1, 0)
                    [4.0, 2.0, 3.0, 3.0],   # mean 3, deviations (1, -1, 0)
                ]
            )
        )
        model = UserBasedCF().fit(train)
        # The active user's deviations from their mean 3 on items 0..2
        # are (1, -1, 0) too, so both train users correlate exactly 1.0.
        given = RatingMatrix(np.array([[4.0, 2.0, 3.0, 0.0]]))
        pred = model.predict(given, 0, 3)
        # Plain Eq. 2: the average of their ratings on item 3, (4 + 3) / 2
        # (Resnick's mean-offset form would give 3 + 0 = 3.0).
        assert pred == pytest.approx(3.5, abs=1e-6)

    def test_beats_item_mean(self, split_small):
        users, items, truth = split_small.targets_arrays()
        model = UserBasedCF().fit(split_small.train)
        base = MeanPredictor("item").fit(split_small.train)
        assert mae(truth, model.predict_many(split_small.given, users, items)) < mae(
            truth, base.predict_many(split_small.given, users, items)
        )

    def test_in_scale(self, split_small):
        users, items, _ = split_small.targets_arrays()
        preds = UserBasedCF().fit(split_small.train).predict_many(
            split_small.given, users, items
        )
        lo, hi = split_small.train.rating_scale
        assert preds.min() >= lo and preds.max() <= hi


class TestMeanPredictor:
    @pytest.mark.parametrize("kind", ["global", "item", "user", "user_item"])
    def test_kinds_run(self, split_small, kind):
        users, items, _ = split_small.targets_arrays()
        preds = MeanPredictor(kind).fit(split_small.train).predict_many(
            split_small.given, users[:30], items[:30]
        )
        assert np.isfinite(preds).all()

    def test_global_is_constant(self, split_small):
        users, items, _ = split_small.targets_arrays()
        preds = MeanPredictor("global").fit(split_small.train).predict_many(
            split_small.given, users[:30], items[:30]
        )
        assert np.allclose(preds, preds[0])

    def test_item_mean_values(self, tiny_rm):
        model = MeanPredictor("item").fit(tiny_rm)
        given = RatingMatrix(np.array([[0.0, 0.0, 2.0, 0.0, 0.0]]))
        assert model.predict(given, 0, 2) == pytest.approx(4.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MeanPredictor("median")

    def test_name(self):
        assert MeanPredictor("item").name == "Mean[item]"
