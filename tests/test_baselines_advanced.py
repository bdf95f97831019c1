"""Tests for the state-of-the-art baselines: SF, SCBPCC, EMDP, AM, PD."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    EMDP,
    SCBPCC,
    AspectModel,
    MeanPredictor,
    PersonalityDiagnosis,
    SimilarityFusion,
)
from repro.data import RatingMatrix
from repro.eval import mae
from repro.similarity import item_pcc


def _score(model, split):
    users, items, truth = split.targets_arrays()
    model.fit(split.train)
    return mae(truth, model.predict_many(split.given, users, items))


@pytest.fixture(scope="module")
def baseline_mae(split_small):
    users, items, truth = split_small.targets_arrays()
    base = MeanPredictor("user_item").fit(split_small.train)
    return mae(truth, base.predict_many(split_small.given, users, items))


class TestSimilarityFusion:
    def test_finite_in_scale(self, split_small):
        users, items, _ = split_small.targets_arrays()
        preds = SimilarityFusion().fit(split_small.train).predict_many(
            split_small.given, users, items
        )
        lo, hi = split_small.train.rating_scale
        assert np.isfinite(preds).all() and preds.min() >= lo and preds.max() <= hi

    def test_beats_mean_baseline(self, split_small, baseline_mae):
        assert _score(SimilarityFusion(), split_small) < baseline_mae

    def test_lambda_extremes_differ(self, split_small):
        users, items, _ = split_small.targets_arrays()
        a = SimilarityFusion(lam=0.0, delta=0.0).fit(split_small.train)
        b = SimilarityFusion(lam=1.0, delta=0.0).fit(split_small.train)
        assert not np.allclose(
            a.predict_many(split_small.given, users[:40], items[:40]),
            b.predict_many(split_small.given, users[:40], items[:40]),
        )

    def test_neighbour_lists_equal_a_stable_full_sort_on_ties(self):
        """The top-M selection keeps what a stable argsort of each full
        row keeps, ties included, capped at Q - 1 (no self-neighbour)."""
        rng = np.random.default_rng(3)
        values = rng.integers(1, 6, size=(9, 6)).astype(float)
        mask = rng.random((9, 6)) < 0.8
        copies = rng.integers(0, 6, size=40)  # duplicated columns: exact ties
        train = RatingMatrix(values[:, copies], mask[:, copies])
        sim = item_pcc(train.values, train.mask)
        np.fill_diagonal(sim, -np.inf)
        ties = np.count_nonzero(np.diff(np.sort(sim, axis=1), axis=1) == 0)
        assert ties > sim.size // 2
        full = np.argsort(-sim, axis=1, kind="stable")
        for m in (1, 7, 39, 60):
            model = SimilarityFusion(top_m_items=m).fit(train)
            np.testing.assert_array_equal(model._item_nbr, full[:, : min(m, 39)])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SimilarityFusion(lam=2.0)
        with pytest.raises(ValueError):
            SimilarityFusion(top_k_users=0)


class TestSCBPCC:
    def test_beats_mean_baseline(self, split_small, baseline_mae):
        assert _score(SCBPCC(n_clusters=8, top_k=10), split_small) < baseline_mae

    def test_shares_smoothing_with_cfsf(self, split_small):
        """SCBPCC's smoothed matrix must be the same object type and
        semantics as CFSF's (shared machinery, per DESIGN.md)."""
        from repro.core import CFSF

        s = SCBPCC(n_clusters=8, top_k=10, seed=0).fit(split_small.train)
        c = CFSF(n_clusters=8, kmeans_seed=0).fit(split_small.train)
        assert np.allclose(s.smoothed.values, c.smoothed.values)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SCBPCC(n_clusters=0)
        with pytest.raises(ValueError):
            SCBPCC(epsilon=1.2)


class TestEMDP:
    def test_fill_adds_values(self, split_small):
        model = EMDP(eta=0.1, theta=0.1).fit(split_small.train)
        assert model._filled_mask.sum() > split_small.train.mask.sum()
        # originals preserved
        tm = split_small.train.mask
        assert np.allclose(model._filled_values[tm], split_small.train.values[tm])

    def test_filled_values_in_scale(self, split_small):
        model = EMDP(eta=0.1, theta=0.1).fit(split_small.train)
        filled_only = model._filled_mask & ~split_small.train.mask
        vals = model._filled_values[filled_only]
        lo, hi = split_small.train.rating_scale
        assert vals.min() >= lo and vals.max() <= hi

    def test_loose_thresholds_beat_mean(self, split_small, baseline_mae):
        assert _score(EMDP(eta=0.1, theta=0.1), split_small) < baseline_mae

    def test_threshold_sensitivity_is_real(self, split_small):
        """The CFSF paper's critique: EMDP's accuracy must move
        materially with its thresholds."""
        loose = _score(EMDP(eta=0.05, theta=0.05), split_small)
        tight = _score(EMDP(eta=0.6, theta=0.6), split_small)
        assert abs(loose - tight) > 0.01

    def test_finite_even_with_extreme_thresholds(self, split_small):
        users, items, _ = split_small.targets_arrays()
        model = EMDP(eta=0.99, theta=0.99).fit(split_small.train)
        preds = model.predict_many(split_small.given, users, items)
        assert np.isfinite(preds).all()


class TestAspectModel:
    def test_em_log_likelihood_nondecreasing(self, split_small):
        model = AspectModel(n_aspects=5, n_iter=15, seed=0).fit(split_small.train)
        ll = np.array(model.log_likelihood_trace)
        assert len(ll) == 15
        assert (np.diff(ll) > -1e-6 * np.abs(ll[:-1])).all()

    def test_fold_in_mixtures_are_distributions(self, split_small):
        model = AspectModel(n_aspects=5, n_iter=10, seed=0).fit(split_small.train)
        p = model.fold_in(split_small.given)
        assert p.shape == (split_small.given.n_users, 5)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_predictions_in_scale(self, split_small):
        users, items, _ = split_small.targets_arrays()
        model = AspectModel(n_aspects=5, n_iter=10, seed=0).fit(split_small.train)
        preds = model.predict_many(split_small.given, users, items)
        lo, hi = split_small.train.rating_scale
        assert preds.min() >= lo and preds.max() <= hi

    def test_beats_global_mean(self, split_small):
        users, items, truth = split_small.targets_arrays()
        model = AspectModel(n_aspects=8, n_iter=20, seed=0).fit(split_small.train)
        m_am = mae(truth, model.predict_many(split_small.given, users, items))
        m_gm = mae(truth, np.full(truth.shape, split_small.train.global_mean()))
        assert m_am < m_gm

    def test_seed_determinism(self, split_small):
        users, items, _ = split_small.targets_arrays()
        a = AspectModel(n_aspects=4, n_iter=8, seed=1).fit(split_small.train)
        b = AspectModel(n_aspects=4, n_iter=8, seed=1).fit(split_small.train)
        assert np.allclose(
            a.predict_many(split_small.given, users[:30], items[:30]),
            b.predict_many(split_small.given, users[:30], items[:30]),
        )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AspectModel(min_sigma=0.0)
        with pytest.raises(ValueError):
            AspectModel(prior_strength=-1.0)


class TestPersonalityDiagnosis:
    def test_mean_mode_in_scale(self, split_small):
        users, items, _ = split_small.targets_arrays()
        preds = PersonalityDiagnosis().fit(split_small.train).predict_many(
            split_small.given, users, items
        )
        lo, hi = split_small.train.rating_scale
        assert preds.min() >= lo and preds.max() <= hi

    def test_copycat_personality_dominates(self):
        """If one training user matches the active profile exactly and
        everyone else is far, PD must predict (near) that user's rating."""
        train = RatingMatrix(
            np.array(
                [
                    [5.0, 1.0, 5.0, 1.0, 4.0],
                    [3.0, 3.0, 3.0, 3.0, 1.0],
                ]
            )
        )
        model = PersonalityDiagnosis(sigma=0.5).fit(train)
        given = RatingMatrix(np.array([[5.0, 1.0, 5.0, 1.0, 0.0]]))
        assert model.predict(given, 0, 4) == pytest.approx(4.0, abs=0.2)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            PersonalityDiagnosis(sigma=0.0)
