"""Tests for the offline GIS and user-clustering stages."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_gis, cluster_users
from repro.core.clustering import _compute_centroids
from repro.data import RatingMatrix
from repro.similarity import item_pcc, pcc_to_rows
from repro.utils.rng import as_generator


class TestBuildGis:
    def test_sim_matches_kernel(self, ml_small):
        gis = build_gis(ml_small)
        assert np.allclose(gis.sim, item_pcc(ml_small.values, ml_small.mask))

    def test_neighbours_sorted_descending(self, ml_small):
        gis = build_gis(ml_small)
        order = gis.order(ml_small.n_items)
        for item in (0, 7, 42):
            sims = gis.sim[item, order[item]]
            assert (np.diff(sims) <= 1e-12).all()

    def test_neighbours_exclude_self(self, ml_small):
        gis = build_gis(ml_small)
        order = gis.order(ml_small.n_items)
        assert order.shape == (ml_small.n_items, ml_small.n_items - 1)
        for item in range(ml_small.n_items):
            assert item not in order[item]

    def test_top_m_positive_only(self, ml_small):
        gis = build_gis(ml_small)
        idx, sims = gis.top_m(3, 50)
        assert (sims > 0).all()
        assert len(idx) == len(sims) <= 50

    def test_top_m_bounds(self, ml_small):
        gis = build_gis(ml_small)
        with pytest.raises(ValueError):
            gis.top_m(-1, 5)
        with pytest.raises(ValueError):
            gis.top_m(0, 0)

    def test_threshold_reduces_density(self, ml_small):
        loose = build_gis(ml_small, threshold=0.0)
        tight = build_gis(ml_small, threshold=0.3)
        assert tight.sparsity() > loose.sparsity()
        # surviving entries unchanged
        surviving = tight.sim != 0.0
        assert np.allclose(tight.sim[surviving], loose.sim[surviving])

    def test_memory_accounting_positive(self, ml_small):
        assert build_gis(ml_small).memory_bytes() > 0


class TestClusterUsers:
    def test_every_user_assigned(self, ml_small):
        res = cluster_users(ml_small, 8, seed=0)
        assert res.labels.shape == (ml_small.n_users,)
        assert res.labels.min() >= 0 and res.labels.max() < 8

    def test_no_empty_clusters(self, ml_small):
        res = cluster_users(ml_small, 8, seed=0)
        assert (res.sizes() > 0).all()

    def test_centroids_dense_and_in_scale(self, ml_small):
        res = cluster_users(ml_small, 8, seed=0)
        assert res.centroids.shape == (8, ml_small.n_items)
        assert np.isfinite(res.centroids).all()
        lo, hi = ml_small.rating_scale
        assert res.centroids.min() >= lo and res.centroids.max() <= hi

    def test_deterministic_by_seed(self, ml_small):
        a = cluster_users(ml_small, 8, seed=4)
        b = cluster_users(ml_small, 8, seed=4)
        assert np.array_equal(a.labels, b.labels)

    def test_more_clusters_than_users_clamps(self, tiny_rm):
        res = cluster_users(tiny_rm, 10, seed=0)
        assert res.n_clusters == tiny_rm.n_users

    def test_members_partition_users(self, ml_small):
        res = cluster_users(ml_small, 8, seed=0)
        all_members = np.concatenate([res.members(c) for c in range(8)])
        assert sorted(all_members.tolist()) == list(range(ml_small.n_users))

    def test_members_bounds(self, ml_small):
        res = cluster_users(ml_small, 8, seed=0)
        with pytest.raises(ValueError):
            res.members(8)

    def test_objective_better_than_random_assignment(self, ml_small):
        res = cluster_users(ml_small, 8, seed=0, max_iter=20)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 8, size=ml_small.n_users)
        random_obj = res.similarities[np.arange(ml_small.n_users), random_labels].mean()
        assert res.objective() > random_obj

    def test_converges_on_easy_data(self, ml_small):
        res = cluster_users(ml_small, 4, seed=0, max_iter=50)
        assert res.converged

    def test_recovers_planted_groups_better_than_chance(self):
        """On generated data, K-means at the planted granularity should
        produce clusters substantially purer than random assignment."""
        from repro.data import SyntheticConfig, make_movielens_like

        cfg = SyntheticConfig(
            n_users=90, n_items=120, mean_ratings_per_user=35,
            min_ratings_per_user=20, n_user_groups=4, user_group_noise=0.3,
        )
        ds = make_movielens_like(cfg, seed=2)
        res = cluster_users(ds.ratings, 4, seed=0)

        def purity(labels, truth):
            total = 0
            for c in np.unique(labels):
                members = truth[labels == c]
                total += np.bincount(members).max()
            return total / len(truth)

        p = purity(res.labels, ds.user_group)
        rng = np.random.default_rng(1)
        p_rand = purity(rng.integers(0, 4, size=90), ds.user_group)
        assert p > p_rand + 0.15


def _kmeans_reference(train, n_clusters, *, seed, max_iter, centering, min_overlap=2):
    """K-means calling ``pcc_to_rows`` afresh every iteration.

    The straightforward loop ``cluster_users`` replaces; returns the
    clusters' fields and how many empty clusters it repaired.
    """
    rng = as_generator(seed)
    P = train.n_users
    L = min(n_clusters, P)
    seeds = rng.choice(P, size=L, replace=False)
    labels = np.full(P, -1, dtype=np.intp)
    labels[seeds] = np.arange(L)
    seed_counts = train.mask[seeds].sum(axis=1)
    seed_means = np.where(
        seed_counts > 0,
        train.values[seeds].sum(axis=1) / np.maximum(seed_counts, 1),
        train.global_mean(),
    )
    centroids = np.where(train.mask[seeds], train.values[seeds], seed_means[:, None])
    repairs = 0

    def sims_to(c):
        return pcc_to_rows(
            train.values, train.mask, c, np.ones_like(c, dtype=bool),
            centering=centering, min_overlap=min_overlap,
        )

    for _ in range(max_iter):
        sims = sims_to(centroids)
        new_labels = np.argmax(sims, axis=1)
        counts = np.bincount(new_labels, minlength=L)
        own_sim = sims[np.arange(P), new_labels].copy()
        for c in np.nonzero(counts == 0)[0]:
            sizes = np.bincount(new_labels, minlength=L)
            candidates = np.nonzero(sizes[new_labels] > 1)[0]
            worst = candidates[np.argmin(own_sim[candidates])]
            new_labels[worst] = c
            own_sim[worst] = np.inf
            repairs += 1
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        centroids = _compute_centroids(train, labels, L)
    centroids = _compute_centroids(train, labels, L)
    return labels, centroids, sims_to(centroids), repairs


class TestClusterUsersMatchesPerIterationPcc:
    """The prepared user side changes no bit of the k-means result."""

    @pytest.mark.parametrize("centering", ["global_mean", "corated_mean"])
    @pytest.mark.parametrize(
        "n_clusters,seed,max_iter", [(8, 0, 30), (8, 5, 30), (30, 1, 30), (8, 0, 1), (8, 0, 2)]
    )
    def test_equal_to_reference(self, ml_small, centering, n_clusters, seed, max_iter):
        got = cluster_users(
            ml_small, n_clusters, seed=seed, max_iter=max_iter, centering=centering
        )
        labels, centroids, sims, _ = _kmeans_reference(
            ml_small, n_clusters, seed=seed, max_iter=max_iter, centering=centering
        )
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_array_equal(got.centroids, centroids)
        np.testing.assert_array_equal(got.similarities, sims)

    @pytest.mark.parametrize("centering", ["global_mean", "corated_mean"])
    def test_equal_when_every_user_seeds_a_cluster(self, tiny_rm, centering):
        got = cluster_users(tiny_rm, 10, seed=0, centering=centering)
        assert got.converged and got.n_iter == 1
        labels, centroids, sims, _ = _kmeans_reference(
            tiny_rm, 10, seed=0, max_iter=30, centering=centering
        )
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_array_equal(got.centroids, centroids)
        np.testing.assert_array_equal(got.similarities, sims)

    @pytest.mark.parametrize("centering", ["global_mean", "corated_mean"])
    def test_equal_through_empty_cluster_repairs(self, ml_small, centering):
        # Every user twice: seeds drawn from a duplicated pair give two
        # identical centroids, the second of which wins no user.
        doubled = RatingMatrix(
            np.repeat(ml_small.values[:12], 2, axis=0),
            np.repeat(ml_small.mask[:12], 2, axis=0),
            rating_scale=ml_small.rating_scale,
        )
        got = cluster_users(doubled, 16, seed=0, centering=centering, min_overlap=3)
        labels, centroids, sims, repairs = _kmeans_reference(
            doubled, 16, seed=0, max_iter=30, centering=centering, min_overlap=3
        )
        assert repairs >= 1
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_array_equal(got.centroids, centroids)
        np.testing.assert_array_equal(got.similarities, sims)
