"""Tests for the additional similarity measures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.similarity import (
    adjusted_cosine,
    jaccard,
    mean_squared_difference,
)


@pytest.fixture(scope="module")
def masked_case():
    rng = np.random.default_rng(23)
    values = rng.integers(1, 6, size=(30, 10)).astype(float)
    mask = rng.random((30, 10)) < 0.6
    return values, mask


class TestAdjustedCosine:
    def test_symmetric_bounded(self, masked_case):
        values, mask = masked_case
        sim = adjusted_cosine(values, mask)
        assert np.allclose(sim, sim.T)
        assert sim.min() >= -1.0 and sim.max() <= 1.0
        assert np.allclose(np.diag(sim), 1.0)

    def test_brute_force(self, masked_case):
        values, mask = masked_case
        sim = adjusted_cosine(values, mask)
        a, b = 2, 6
        row_means = np.array([
            values[u][mask[u]].mean() if mask[u].any() else 0.0 for u in range(30)
        ])
        co = mask[:, a] & mask[:, b]
        xa = (values[:, a] - row_means)[co]
        xb = (values[:, b] - row_means)[co]
        ref = (xa @ xb) / (np.linalg.norm(xa) * np.linalg.norm(xb))
        assert sim[a, b] == pytest.approx(ref, abs=1e-10)

    def test_removes_generosity(self):
        """Two items rated identically *after* per-user shifts must
        score 1 under adjusted cosine even though raw cosine of the
        shifted profiles would not."""
        base = np.array([1.0, -1.0, 0.5, -0.5])
        generosity = np.array([1.0, 2.0, 3.0, 4.0])
        # Two agreeing items plus a third disagreeing one (needed so
        # user-mean centering does not annihilate the profiles).
        values = np.stack(
            [generosity + base, generosity + base, generosity - base], axis=1
        )
        mask = np.ones((4, 3), dtype=bool)
        sim = adjusted_cosine(values, mask)
        assert sim[0, 1] == pytest.approx(1.0)
        assert sim[0, 2] < 0.0


class TestMSD:
    def test_identical_columns_score_one(self):
        col = np.array([[1.0], [3.0], [5.0]])
        values = np.hstack([col, col])
        sim = mean_squared_difference(values, np.ones((3, 2), dtype=bool))
        assert sim[0, 1] == pytest.approx(1.0)

    def test_brute_force(self, masked_case):
        values, mask = masked_case
        sim = mean_squared_difference(values, mask)
        a, b = 1, 7
        co = mask[:, a] & mask[:, b]
        msd = ((values[co, a] - values[co, b]) ** 2).mean()
        assert sim[a, b] == pytest.approx(1.0 / (1.0 + msd), abs=1e-10)

    def test_location_sensitive(self):
        """A constant shift lowers MSD similarity (unlike PCC)."""
        col = np.array([[1.0], [3.0], [5.0], [2.0]])
        values = np.hstack([col, col + 1.0])
        sim = mean_squared_difference(values, np.ones((4, 2), dtype=bool))
        assert sim[0, 1] < 1.0

    def test_range(self, masked_case):
        values, mask = masked_case
        sim = mean_squared_difference(values, mask)
        assert (sim >= 0.0).all() and (sim <= 1.0).all()


class TestJaccard:
    def test_hand_case(self):
        mask = np.array(
            [
                [True, True],
                [True, False],
                [False, True],
                [True, True],
            ]
        )
        sim = jaccard(mask)
        # intersection 2, union 4
        assert sim[0, 1] == pytest.approx(0.5)

    def test_identical_sets(self):
        mask = np.ones((5, 2), dtype=bool)
        assert jaccard(mask)[0, 1] == pytest.approx(1.0)

    def test_disjoint_sets(self):
        mask = np.array([[True, False], [True, False], [False, True]])
        assert jaccard(mask)[0, 1] == 0.0

    def test_values_ignored(self, masked_case):
        values, mask = masked_case
        assert np.allclose(jaccard(mask), jaccard(mask.astype(int)))
