"""Property-based tests for the extra similarity measures and the Gini
coefficient."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import RatingMatrix
from repro.data.stats import gini_coefficient
from repro.similarity import adjusted_cosine, jaccard, mean_squared_difference


@st.composite
def masked_matrices(draw, max_rows=10, max_cols=7):
    rows = draw(st.integers(2, max_rows))
    cols = draw(st.integers(2, max_cols))
    values = draw(
        hnp.arrays(np.float64, (rows, cols), elements=st.integers(1, 5).map(float))
    )
    mask = draw(hnp.arrays(np.bool_, (rows, cols), elements=st.booleans()))
    for r in range(rows):
        if not mask[r].any():
            mask[r, draw(st.integers(0, cols - 1))] = True
    return RatingMatrix(np.where(mask, values, 0.0), mask)


class TestExtraSimilarityProperties:
    @given(masked_matrices())
    @settings(max_examples=40, deadline=None)
    def test_all_measures_symmetric_finite(self, rm):
        for fn in (
            lambda: adjusted_cosine(rm.values, rm.mask),
            lambda: mean_squared_difference(rm.values, rm.mask),
            lambda: jaccard(rm.mask),
        ):
            sim = fn()
            assert np.isfinite(sim).all()
            assert np.allclose(sim, sim.T)
            assert np.allclose(np.diag(sim), 1.0)

    @given(masked_matrices())
    @settings(max_examples=40, deadline=None)
    def test_msd_and_jaccard_nonnegative_unit(self, rm):
        for sim in (
            mean_squared_difference(rm.values, rm.mask),
            jaccard(rm.mask),
        ):
            assert (sim >= 0.0).all() and (sim <= 1.0 + 1e-12).all()


class TestGiniProperties:
    @given(hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(0, 1000)))
    @settings(max_examples=60, deadline=None)
    def test_gini_in_unit_interval(self, counts):
        g = gini_coefficient(counts)
        assert -1e-9 <= g <= 1.0

    @given(st.integers(1, 50), st.floats(0.1, 100))
    @settings(max_examples=40, deadline=None)
    def test_gini_scale_invariant(self, n, scale):
        rng = np.random.default_rng(n)
        counts = rng.uniform(0, 10, size=n)
        a = gini_coefficient(counts)
        b = gini_coefficient(counts * scale)
        assert a == pytest.approx(b, abs=1e-9)
