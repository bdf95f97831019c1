"""Tests for the evaluation substrate: metrics, protocol, runner, report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MeanPredictor, UserBasedCF
from repro.core import CFSF
from repro.eval import (
    EvaluationResult,
    ascii_plot,
    coverage,
    evaluate,
    evaluate_fitted,
    format_paper_table,
    format_table,
    mae,
    ndcg_at_n,
    precision_recall_at_n,
    rmse,
    run_grid,
    scalability_sweep,
    sweep_cfsf_parameter,
)


class TestMetrics:
    def test_mae_hand_case(self):
        assert mae(np.array([4.0, 2.0, 3.0]), np.array([3.0, 2.0, 5.0])) == pytest.approx(1.0)

    def test_rmse_hand_case(self):
        assert rmse(np.array([4.0, 2.0]), np.array([2.0, 2.0])) == pytest.approx(np.sqrt(2.0))

    def test_rmse_ge_mae(self, rng):
        t = rng.uniform(1, 5, 100)
        p = rng.uniform(1, 5, 100)
        assert rmse(t, p) >= mae(t, p)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))

    def test_nan_predictions_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            mae(np.array([1.0]), np.array([np.nan]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))

    def test_coverage(self):
        cov = coverage(np.zeros(4), np.array([True, False, False, False]))
        assert cov == pytest.approx(0.75)

    def test_precision_recall(self):
        p, r = precision_recall_at_n(np.array([1, 2, 3]), np.array([1, 9, 2, 8]), n=4)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(2 / 3)

    def test_precision_recall_empty_rec(self):
        assert precision_recall_at_n(np.array([1]), np.array([]), n=5) == (0.0, 0.0)

    def test_ndcg_perfect_ranking(self):
        assert ndcg_at_n(np.array([1, 2]), np.array([1, 2, 9]), n=3) == pytest.approx(1.0)

    def test_ndcg_worst_nonzero(self):
        v = ndcg_at_n(np.array([1]), np.array([9, 8, 1]), n=3)
        assert 0.0 < v < 1.0


class TestProtocol:
    def test_evaluate_returns_sane_result(self, split_small):
        res = evaluate(MeanPredictor("item"), split_small)
        assert isinstance(res, EvaluationResult)
        assert res.n_targets == split_small.n_targets
        assert res.fit_seconds >= 0.0 and res.predict_seconds > 0.0
        assert 0.0 < res.mae < 2.0

    def test_evaluate_fitted_skips_fit_time(self, split_small):
        model = MeanPredictor("item").fit(split_small.train)
        res = evaluate_fitted(model, split_small)
        assert res.fit_seconds == 0.0

    def test_keep_predictions(self, split_small):
        res = evaluate(MeanPredictor("item"), split_small, keep_predictions=True)
        assert res.predictions is not None
        assert len(res.predictions) == res.n_targets
        assert res.light().predictions is None

    def test_throughput(self, split_small):
        res = evaluate(MeanPredictor("item"), split_small)
        assert res.throughput > 0


class TestRunner:
    def test_run_grid_covers_all_cells(self, ml_small):
        grid = run_grid(
            ml_small,
            {"Mean": lambda: MeanPredictor("item")},
            training_sizes=(40, 80),
            given_sizes=(5, 8),
            n_test_users=30,
        )
        assert len(grid.results) == 4
        maes = grid.mae_map()
        assert ("ML_40/Given5", "Mean") in maes

    def test_run_grid_progress_callback(self, ml_small):
        lines = []
        run_grid(
            ml_small,
            {"Mean": lambda: MeanPredictor("item")},
            training_sizes=(40,),
            given_sizes=(5,),
            n_test_users=30,
            progress=lines.append,
        )
        assert len(lines) == 1 and "MAE=" in lines[0]

    def test_best_method_per_split(self, ml_small):
        grid = run_grid(
            ml_small,
            {
                "Mean": lambda: MeanPredictor("global"),
                "SUR": lambda: UserBasedCF(),
            },
            training_sizes=(80,),
            given_sizes=(8,),
            n_test_users=30,
        )
        assert grid.best_method_per_split()["ML_80/Given8"] == "SUR"

    def test_sweep_online_parameter_no_refit(self, split_small):
        out = sweep_cfsf_parameter(
            split_small,
            "lam",
            [0.0, 0.5, 1.0],
            base_config=CFSF(n_clusters=8, top_m_items=30, top_k_users=10).config,
        )
        assert [v for v, _ in out] == [0.0, 0.5, 1.0]
        maes = [r.mae for _, r in out]
        assert len(set(maes)) > 1  # the parameter matters

    def test_sweep_offline_parameter_refits(self, split_small):
        out = sweep_cfsf_parameter(
            split_small,
            "n_clusters",
            [4, 8],
            base_config=CFSF(n_clusters=8, top_m_items=30, top_k_users=10).config,
        )
        assert all(r.fit_seconds > 0 for _, r in out)

    def test_scalability_sweep_shapes(self, split_small):
        out = scalability_sweep(
            split_small,
            {"Mean": lambda: MeanPredictor("item")},
            fractions=(0.5, 1.0),
        )
        assert set(out) == {"Mean"}
        assert [f for f, _ in out["Mean"]] == [0.5, 1.0]
        assert all(t > 0 for _, t in out["Mean"])


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1.23456, "x"], [2.0, "yy"]])
        lines = out.splitlines()
        assert "1.235" in out and len(lines) == 4

    def test_format_table_title(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_format_paper_table_layout(self):
        results = {
            ("ML_80/Given5", "CFSF"): 0.7,
            ("ML_80/Given8", "CFSF"): 0.68,
            ("ML_80/Given5", "SUR"): 0.8,
            ("ML_80/Given8", "SUR"): 0.78,
        }
        out = format_paper_table(
            results,
            training_sets=("ML_80",),
            methods=("CFSF", "SUR"),
            given_labels=("Given5", "Given8"),
        )
        assert "CFSF" in out and "0.700" in out and "0.780" in out

    def test_format_paper_table_missing_is_nan(self):
        out = format_paper_table(
            {},
            training_sets=("ML_80",),
            methods=("CFSF",),
            given_labels=("Given5",),
        )
        assert "nan" in out

    def test_ascii_plot_contains_markers_and_legend(self):
        out = ascii_plot(
            [1, 2, 3],
            {"CFSF": [0.7, 0.68, 0.69], "SUR": [0.8, 0.79, 0.81]},
            title="Fig",
        )
        assert "Fig" in out and "o CFSF" in out and "x SUR" in out

    def test_ascii_plot_flat_series(self):
        out = ascii_plot([1, 2], {"s": [0.5, 0.5]})
        assert "0.500" in out
