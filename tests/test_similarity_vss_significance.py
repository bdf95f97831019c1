"""Tests for cosine similarity and similarity post-processing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (
    apply_threshold,
    item_cosine,
    overlap_counts,
    pairwise_cosine,
    significance_weight,
    top_k_indices,
)


@pytest.fixture(scope="module")
def masked_case():
    rng = np.random.default_rng(5)
    values = rng.integers(1, 6, size=(25, 10)).astype(float)
    mask = rng.random((25, 10)) < 0.55
    return values, mask


class TestCosine:
    def test_brute_force_corated(self, masked_case):
        values, mask = masked_case
        sim = pairwise_cosine(values, mask, corated=True)
        a, b = 1, 4
        co = mask[:, a] & mask[:, b]
        x, y = values[co, a], values[co, b]
        ref = (x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
        assert sim[a, b] == pytest.approx(ref, abs=1e-12)

    def test_brute_force_full_norm(self, masked_case):
        values, mask = masked_case
        sim = pairwise_cosine(values, mask, corated=False)
        a, b = 2, 7
        co = mask[:, a] & mask[:, b]
        x_full = values[mask[:, a], a]
        y_full = values[mask[:, b], b]
        num = (values[co, a] @ values[co, b])
        ref = num / (np.linalg.norm(x_full) * np.linalg.norm(y_full))
        assert sim[a, b] == pytest.approx(ref, abs=1e-12)

    def test_symmetric_unit_diag(self, masked_case):
        values, mask = masked_case
        sim = pairwise_cosine(values, mask)
        assert np.allclose(sim, sim.T)
        assert np.allclose(np.diag(sim), 1.0)

    def test_nonnegative_for_positive_ratings(self, masked_case):
        values, mask = masked_case
        assert pairwise_cosine(values, mask).min() >= 0.0

    def test_popularity_bias_vs_pcc(self):
        """Cosine rewards a shared positive offset that PCC removes —
        the paper's argument for PCC in the GIS."""
        from repro.similarity import pairwise_pcc

        rng = np.random.default_rng(0)
        # Two items rated high by everyone but with *independent*
        # preference deviations: cosine sees near-1, PCC sees ~0.
        base = np.full((60, 2), 4.0)
        noise = rng.normal(0, 0.5, size=(60, 2))
        values = np.clip(base + noise, 1, 5)
        mask = np.ones((60, 2), dtype=bool)
        cos = pairwise_cosine(values, mask)[0, 1]
        pcc = pairwise_pcc(values, mask, centering="corated_mean")[0, 1]
        assert cos > 0.95
        assert abs(pcc) < 0.5

    def test_wrappers(self, masked_case):
        values, mask = masked_case
        assert np.allclose(item_cosine(values, mask), pairwise_cosine(values, mask))


class TestOverlapCounts:
    def test_columns(self, masked_case):
        _, mask = masked_case
        n = overlap_counts(mask, axis="columns")
        assert n[3, 5] == (mask[:, 3] & mask[:, 5]).sum()

    def test_rows(self, masked_case):
        _, mask = masked_case
        n = overlap_counts(mask, axis="rows")
        assert n[2, 9] == (mask[2] & mask[9]).sum()

    def test_bad_axis(self, masked_case):
        _, mask = masked_case
        with pytest.raises(ValueError):
            overlap_counts(mask, axis="diagonal")


class TestSignificanceWeight:
    def test_full_strength_at_gamma(self):
        sim = np.array([[0.8]])
        assert significance_weight(sim, np.array([[30]]), gamma=30)[0, 0] == pytest.approx(0.8)
        assert significance_weight(sim, np.array([[60]]), gamma=30)[0, 0] == pytest.approx(0.8)

    def test_linear_below_gamma(self):
        sim = np.array([[0.9]])
        out = significance_weight(sim, np.array([[10]]), gamma=30)
        assert out[0, 0] == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            significance_weight(np.ones((2, 2)), np.ones((3, 3)))


class TestApplyThreshold:
    def test_zeroes_small_values_keeps_diagonal(self):
        sim = np.array([[1.0, 0.2, -0.6], [0.2, 1.0, 0.5], [-0.6, 0.5, 1.0]])
        out = apply_threshold(sim, 0.4)
        assert out[0, 1] == 0.0
        assert out[0, 2] == -0.6  # |.| >= threshold survives, sign kept
        assert np.allclose(np.diag(out), 1.0)

    def test_zero_threshold_is_identity(self):
        sim = np.eye(3)
        assert apply_threshold(sim, 0.0) is sim

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            apply_threshold(np.eye(2), 1.5)


class TestTopKIndices:
    def test_descending_order(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert top_k_indices(scores, 3).tolist() == [1, 3, 2]

    def test_exclude_self(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert top_k_indices(scores, 2, exclude=1).tolist() == [2, 0]

    def test_k_larger_than_array(self):
        assert len(top_k_indices(np.array([0.3, 0.1]), 10)) == 2

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            top_k_indices(np.ones((2, 2)), 1)

    def test_a_cut_through_ties_keeps_the_lowest_indices(self):
        scores = np.tile([0.5, 0.1], 500)
        assert top_k_indices(scores, 5).tolist() == [0, 2, 4, 6, 8]

    @given(
        scores=st.lists(
            st.sampled_from([0.0, 0.1, 0.5, 1.0, -1.0, np.inf, -np.inf, np.nan]),
            min_size=1, max_size=40,
        ),
        k=st.integers(1, 45),
        exclude=st.none() | st.integers(0, 39),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_a_stable_full_sort(self, scores, k, exclude):
        """Tie-heavy scores, with infinities and NaNs: the top *k* are
        a stable full sort's first *k*, less the non-finite scores."""
        s = np.array(scores)
        if exclude is not None and exclude >= s.size:
            exclude = None
        ref = s.copy()
        if exclude is not None:
            ref[exclude] = -np.inf
        want = np.argsort(-ref, kind="stable")[: min(k, s.size - (exclude is not None))]
        want = want[np.isfinite(ref[want])]
        assert top_k_indices(s, k, exclude=exclude).tolist() == want.tolist()
