"""Integration tests: the paper's headline claims, end to end, on the
small fixture (a scaled-down Table II/III plus the Fig. 5 contract)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    EMDP,
    SCBPCC,
    AspectModel,
    ItemBasedCF,
    MeanPredictor,
    PersonalityDiagnosis,
    SimilarityFusion,
    UserBasedCF,
)
from repro.core import CFSF
from repro.eval import evaluate, mae, run_grid


SMALL_CFSF = dict(n_clusters=8, top_m_items=30, top_k_users=10)


@pytest.fixture(scope="module")
def lineup_maes(split_small):
    users, items, truth = split_small.targets_arrays()
    out = {}
    models = {
        "CFSF": CFSF(**SMALL_CFSF),
        "SIR": ItemBasedCF(),
        "SUR": UserBasedCF(),
        "SF": SimilarityFusion(top_k_users=15, top_m_items=20),
        "SCBPCC": SCBPCC(n_clusters=8, top_k=10),
        "EMDP": EMDP(),
        "AM": AspectModel(n_aspects=8, n_iter=15),
        "PD": PersonalityDiagnosis(),
        "Mean": MeanPredictor("user_item"),
    }
    for name, model in models.items():
        model.fit(split_small.train)
        out[name] = mae(truth, model.predict_many(split_small.given, users, items))
    return out


class TestHeadlineOrderings:
    def test_cfsf_beats_traditional_memory_cf(self, lineup_maes):
        """Table II's claim: CFSF < SUR and CFSF < SIR."""
        assert lineup_maes["CFSF"] < lineup_maes["SUR"]
        assert lineup_maes["CFSF"] < lineup_maes["SIR"]

    def test_cfsf_best_of_paper_lineup(self, lineup_maes):
        """Table III's claim: CFSF wins against the state of the art."""
        paper_methods = ("SIR", "SUR", "SF", "SCBPCC", "EMDP", "AM", "PD")
        for method in paper_methods:
            assert lineup_maes["CFSF"] <= lineup_maes[method] + 1e-9, method

    def test_every_method_in_sane_band(self, lineup_maes):
        for name, value in lineup_maes.items():
            assert 0.4 < value < 1.3, (name, value)


class TestTrendsAcrossProtocol:
    """The Tables II/III trends (MAE falls with training size and
    GivenN) are sparsity effects; they need the paper-scale matrix, so
    these two tests run on the full 500x1000 generator output with a
    reduced test population for speed."""

    @pytest.fixture(scope="class")
    def paper_scale(self):
        from repro.data import make_movielens_like

        return make_movielens_like(seed=0).ratings

    def test_mae_improves_with_training_size(self, paper_scale):
        grid = run_grid(
            paper_scale,
            {"CFSF": lambda: CFSF()},
            training_sizes=(100, 300),
            given_sizes=(10,),
            n_test_users=60,
        )
        maes = grid.mae_map()
        assert maes[("ML_300/Given10", "CFSF")] < maes[("ML_100/Given10", "CFSF")]

    def test_mae_improves_with_given_n(self, paper_scale):
        grid = run_grid(
            paper_scale,
            {"CFSF": lambda: CFSF()},
            training_sizes=(300,),
            given_sizes=(5, 20),
            n_test_users=60,
        )
        maes = grid.mae_map()
        assert maes[("ML_300/Given20", "CFSF")] < maes[("ML_300/Given5", "CFSF")]


class TestScalabilityContract:
    def test_online_time_grows_with_testset(self, split_small):
        """Fig. 5's x-axis contract: more active users => more online
        time, and the relationship is near-linear (sublinear allowed
        through caching, superquadratic not)."""
        from repro.data import subsample_heldout
        from repro.eval import evaluate_fitted

        model = CFSF(**SMALL_CFSF).fit(split_small.train)
        times = {}
        for frac in (0.25, 1.0):
            sub = subsample_heldout(split_small, frac, seed=0)
            best = min(
                evaluate_fitted(model, sub).predict_seconds for _ in range(3)
            )
            times[frac] = best
        assert times[1.0] > times[0.25]
        assert times[1.0] < times[0.25] * 16  # far below quadratic blowup

    def test_offline_dominates_online_for_cfsf(self, split_small):
        res = evaluate(CFSF(**SMALL_CFSF), split_small)
        assert res.fit_seconds > 0
        # the design point: per-request online work is tiny
        per_request_ms = res.predict_seconds / res.n_targets * 1e3
        assert per_request_ms < 10.0


class TestActiveUserFoldIn:
    def test_prediction_uses_given_profile(self, split_small):
        """An active user's given ratings must influence their
        predictions (protocol sanity: the model is personalising, not
        just predicting item averages)."""
        model = CFSF(**SMALL_CFSF).fit(split_small.train)
        users, items, _ = split_small.targets_arrays()
        preds = model.predict_many(split_small.given, users, items)
        item_means = split_small.train.item_means()
        baseline = item_means[items]
        # Not identical to the unpersonalised item means.
        assert not np.allclose(preds, np.clip(baseline, 1, 5), atol=0.05)

    def test_two_active_users_differ(self, split_small):
        model = CFSF(**SMALL_CFSF).fit(split_small.train)
        item = int(np.nonzero(~split_small.given.mask[0] & ~split_small.given.mask[1])[0][0])
        p0 = model.predict(split_small.given, 0, item)
        p1 = model.predict(split_small.given, 1, item)
        # Distinct profiles should (generically) give distinct scores.
        assert p0 != pytest.approx(p1, abs=1e-12)
