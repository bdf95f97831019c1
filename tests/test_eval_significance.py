"""Tests for the paired MAE comparison (repro.eval.significance)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import paired_comparison


class TestPairedComparison:
    def test_detects_clear_winner(self, rng):
        truth = rng.uniform(1, 5, 400)
        good = truth + rng.normal(0, 0.3, 400)
        bad = truth + rng.normal(0, 1.0, 400)
        res = paired_comparison(truth, good, bad)
        assert res.a_wins
        assert res.significant()
        assert res.n_a_better > res.n_b_better

    def test_identical_predictions_not_significant(self, rng):
        truth = rng.uniform(1, 5, 100)
        preds = truth + rng.normal(0, 0.5, 100)
        res = paired_comparison(truth, preds, preds.copy())
        assert res.mean_diff == 0.0
        assert not res.significant()
        assert res.n_ties == 100

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            paired_comparison(np.zeros(3), np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            paired_comparison(np.zeros(1), np.zeros(1), np.zeros(1))
