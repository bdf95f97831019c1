"""Property-based tests (hypothesis) on the core data structures and
invariants: masked similarities, smoothing, fusion, splits, the LRU
cache, partitioning, and the incremental GIS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import cluster_deviations, fuse, fusion_weights, pair_similarity, smooth_ratings
from repro.core.incremental import IncrementalGIS
from repro.data import RatingMatrix, make_split
from repro.parallel import greedy_partition
from repro.similarity import pairwise_pcc, pairwise_cosine, top_k_indices
from repro.utils.cache import LRUCache

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def masked_matrices(draw, max_rows=12, max_cols=8, min_rows=2, min_cols=2):
    """A small rating matrix (1..5 integers) with a random mask that
    leaves at least one rating per row."""
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    values = draw(
        hnp.arrays(
            np.float64,
            (rows, cols),
            elements=st.integers(1, 5).map(float),
        )
    )
    mask = draw(
        hnp.arrays(np.bool_, (rows, cols), elements=st.booleans())
    )
    # Guarantee each row has at least one observation.
    for r in range(rows):
        if not mask[r].any():
            mask[r, draw(st.integers(0, cols - 1))] = True
    return RatingMatrix(np.where(mask, values, 0.0), mask)


# ---------------------------------------------------------------------------
# Similarity invariants
# ---------------------------------------------------------------------------


class TestSimilarityProperties:
    @given(masked_matrices())
    @settings(max_examples=60, deadline=None)
    def test_pcc_symmetric_bounded_unit_diag(self, rm):
        for centering in ("global_mean", "corated_mean"):
            sim = pairwise_pcc(rm.values, rm.mask, centering=centering)
            assert np.allclose(sim, sim.T)
            assert (sim >= -1.0 - 1e-12).all() and (sim <= 1.0 + 1e-12).all()
            assert np.allclose(np.diag(sim), 1.0)
            assert np.isfinite(sim).all()

    @given(masked_matrices())
    @settings(max_examples=60, deadline=None)
    def test_cosine_symmetric_bounded(self, rm):
        sim = pairwise_cosine(rm.values, rm.mask)
        assert np.allclose(sim, sim.T)
        assert np.isfinite(sim).all()
        assert (sim >= -1.0 - 1e-12).all() and (sim <= 1.0 + 1e-12).all()

    @given(masked_matrices(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_top_k_descending_and_within_bounds(self, rm, k):
        sim = pairwise_pcc(rm.values, rm.mask)
        idx = top_k_indices(sim[0], k, exclude=0)
        assert len(idx) <= k
        assert all(0 <= i < rm.n_items for i in idx)
        vals = sim[0][idx]
        assert (np.diff(vals) <= 1e-12).all()
        assert 0 not in idx


# ---------------------------------------------------------------------------
# Smoothing invariants
# ---------------------------------------------------------------------------


class TestSmoothingProperties:
    @given(masked_matrices(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_smoothing_invariants(self, rm, n_clusters, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_clusters, size=rm.n_users)
        out = smooth_ratings(rm, labels, n_clusters)
        # 1. observed entries preserved
        assert np.allclose(out.values[rm.mask], rm.values[rm.mask])
        # 2. dense & in scale
        lo, hi = rm.rating_scale
        assert np.isfinite(out.values).all()
        assert (out.values >= lo).all() and (out.values <= hi).all()
        # 3. provenance equals the original mask
        assert np.array_equal(out.observed_mask, rm.mask)

    @given(masked_matrices())
    @settings(max_examples=40, deadline=None)
    def test_fully_rated_idempotent(self, rm):
        dense = RatingMatrix(
            np.where(rm.mask, rm.values, 3.0), np.ones(rm.shape, dtype=bool)
        )
        out = smooth_ratings(dense, np.zeros(rm.n_users, dtype=int), 1)
        assert np.allclose(out.values, dense.values)

    @given(masked_matrices(), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_shrinkage_never_amplifies(self, rm, beta):
        labels = np.zeros(rm.n_users, dtype=int)
        raw, _ = cluster_deviations(rm, labels, 1)
        shrunk, _ = cluster_deviations(rm, labels, 1, shrinkage=beta)
        assert (np.abs(shrunk) <= np.abs(raw) + 1e-12).all()


# ---------------------------------------------------------------------------
# Fusion invariants
# ---------------------------------------------------------------------------


class TestFusionProperties:
    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_weights_convex(self, lam, delta):
        w = fusion_weights(lam, delta)
        assert sum(w) == pytest.approx(1.0)
        assert all(x >= -1e-12 for x in w)

    @given(
        hnp.arrays(np.float64, (4,), elements=st.floats(0, 1)),
        hnp.arrays(np.float64, (3,), elements=st.floats(0, 1)),
    )
    @settings(max_examples=100, deadline=None)
    def test_pair_similarity_soft_min(self, si, su):
        out = pair_similarity(si, su)
        assert out.shape == (3, 4)
        assert np.isfinite(out).all()
        cap = np.minimum(si[None, :], su[:, None])
        assert (out <= cap + 1e-12).all()
        assert (out >= 0.0).all()


# ---------------------------------------------------------------------------
# Split invariants
# ---------------------------------------------------------------------------


class TestSplitProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_given_heldout_partition(self, seed, given_n):
        from repro.data import SyntheticConfig, make_movielens_like

        rm = make_movielens_like(
            SyntheticConfig(
                n_users=30, n_items=40, mean_ratings_per_user=12, min_ratings_per_user=8
            ),
            seed=11,
        ).ratings
        sp = make_split(rm, n_train_users=20, given_n=given_n, n_test_users=8, seed=seed)
        active = rm.mask[-8:]
        assert np.array_equal(sp.given.mask | sp.heldout.mask, active)
        assert not (sp.given.mask & sp.heldout.mask).any()
        assert (sp.given.user_counts() == given_n).all()


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdefgh"), st.integers(0, 100)),
            max_size=60,
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_capacity_and_agrees_with_dict(self, ops, maxsize):
        cache = LRUCache(maxsize)
        shadow: dict = {}
        for key, value in ops:
            cache.put(key, value)
            shadow[key] = value
            assert len(cache) <= maxsize
            got = cache.get(key)
            assert got == shadow[key]  # most-recent insert always resident

    @given(st.lists(st.sampled_from("abc"), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_lookups(self, keys):
        cache = LRUCache(2)
        for k in keys:
            cache.get(k)
            cache.put(k, 1)
        assert cache.hits + cache.misses == len(keys)


# ---------------------------------------------------------------------------
# Partitioning invariants
# ---------------------------------------------------------------------------


class TestPartitionProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0, 100)),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_greedy_partition_is_partition(self, costs, parts):
        out = greedy_partition(costs, parts)
        merged = np.concatenate(out)
        assert sorted(merged.tolist()) == list(range(len(costs)))


# ---------------------------------------------------------------------------
# Incremental GIS vs batch
# ---------------------------------------------------------------------------


class TestIncrementalProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 7), st.integers(1, 5)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_matches_batch(self, stream):
        base = RatingMatrix.from_triplets(
            [(0, 0, 3.0), (1, 1, 4.0), (2, 2, 2.0)], n_users=10, n_items=8
        )
        gis = IncrementalGIS(base, min_overlap=2)
        for u, i, r in stream:
            gis.add_rating(u, i, float(r))
        rebuilt = pairwise_pcc(
            gis.matrix().values, gis.matrix().mask, centering="corated_mean", min_overlap=2
        )
        got = np.vstack([gis.sim_row(j) for j in range(8)])
        assert np.allclose(got, rebuilt, atol=1e-9)
