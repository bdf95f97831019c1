"""Tests for the MovieLens-like generator: Table I statistics and the
planted structure the algorithms are supposed to find."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticConfig, make_movielens_like
from repro.data.synthetic import _item_popularity, _watch_probabilities


@pytest.fixture(scope="module")
def full_dataset():
    """The default 500x1000 dataset (module-scoped: ~1s to build)."""
    return make_movielens_like(seed=0)


class TestTableIStatistics:
    def test_shape(self, full_dataset):
        assert full_dataset.ratings.shape == (500, 1000)

    def test_density_matches_table1(self, full_dataset):
        # Table I: 9.44%.
        assert full_dataset.ratings.density == pytest.approx(0.0944, abs=0.004)

    def test_avg_ratings_per_user(self, full_dataset):
        avg = full_dataset.ratings.n_ratings / 500
        assert avg == pytest.approx(94.4, abs=4.0)

    def test_min_ratings_floor(self, full_dataset):
        assert full_dataset.ratings.user_counts().min() >= 40

    def test_integer_scale_1_to_5(self, full_dataset):
        observed = full_dataset.ratings.values[full_dataset.ratings.mask]
        assert observed.min() >= 1.0 and observed.max() <= 5.0
        assert np.allclose(observed, np.round(observed))

    def test_global_mean_plausible(self, full_dataset):
        assert 3.2 < full_dataset.ratings.global_mean() < 3.9


def _per_user_softmax(popularity, affinity, u):
    """The generator's watch probabilities, one user at a time."""
    logits = np.log(popularity) + 0.35 * affinity[u] / (affinity[u].std() + 1e-12)
    p = np.exp(logits - logits.max())
    p /= p.sum()
    return p


@pytest.mark.parametrize("n_items", [1000, 37])
def test_watch_probabilities_equal_the_per_user_formula(full_dataset, n_items):
    cfg = SyntheticConfig(n_items=n_items, mean_ratings_per_user=30, min_ratings_per_user=5)
    popularity = _item_popularity(cfg, np.random.default_rng(3))
    scores = full_dataset.true_scores[:, :n_items]
    affinity = scores - scores.mean(axis=1, keepdims=True)
    p = _watch_probabilities(popularity, affinity)
    for u in range(affinity.shape[0]):
        np.testing.assert_array_equal(p[u], _per_user_softmax(popularity, affinity, u))


class TestDeterminismAndKnobs:
    def test_same_seed_same_data(self):
        cfg = SyntheticConfig(n_users=40, n_items=50, mean_ratings_per_user=15,
                              min_ratings_per_user=5)
        a = make_movielens_like(cfg, seed=9).ratings
        b = make_movielens_like(cfg, seed=9).ratings
        assert a == b

    def test_different_seed_different_data(self):
        cfg = SyntheticConfig(n_users=40, n_items=50, mean_ratings_per_user=15,
                              min_ratings_per_user=5)
        a = make_movielens_like(cfg, seed=1).ratings
        b = make_movielens_like(cfg, seed=2).ratings
        assert a != b

    def test_custom_dimensions(self):
        cfg = SyntheticConfig(n_users=30, n_items=70, mean_ratings_per_user=12,
                              min_ratings_per_user=6)
        ds = make_movielens_like(cfg, seed=0)
        assert ds.ratings.shape == (30, 70)
        assert ds.ratings.user_counts().min() >= 6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(mean_ratings_per_user=10, min_ratings_per_user=40)
        with pytest.raises(ValueError):
            SyntheticConfig(n_items=50, mean_ratings_per_user=60)
        with pytest.raises(ValueError):
            SyntheticConfig(style_scale_range=(0.0, 1.0))


class TestPlantedStructure:
    def test_oracle_beats_trivial(self, full_dataset):
        """The noise-free scores must predict observed ratings far
        better than a constant — otherwise there is no signal for any
        algorithm to find."""
        rm = full_dataset.ratings
        const_mae = np.abs(rm.values[rm.mask] - rm.global_mean()).mean()
        assert full_dataset.oracle_mae() < const_mae - 0.15

    def test_user_groups_recoverable(self, full_dataset):
        """Users in the same planted group must be more similar than
        users in different groups (clustering has something to find)."""
        from repro.similarity import user_pcc

        rm = full_dataset.ratings
        sims = user_pcc(rm.values[:150], rm.mask[:150])
        groups = full_dataset.user_group[:150]
        same = sims[groups[:, None] == groups[None, :]]
        diff = sims[groups[:, None] != groups[None, :]]
        assert same.mean() > diff.mean() + 0.05

    def test_item_genres_recoverable(self, full_dataset):
        from repro.similarity import item_pcc

        rm = full_dataset.ratings
        sims = item_pcc(rm.values, rm.mask)
        genres = full_dataset.item_genre
        idx = np.arange(300)
        block = sims[np.ix_(idx, idx)]
        g = genres[idx]
        same = block[(g[:, None] == g[None, :]) & ~np.eye(len(idx), dtype=bool)]
        diff = block[g[:, None] != g[None, :]]
        assert same.mean() > diff.mean()

    def test_popularity_quality_coupling(self, full_dataset):
        """Popular items should rate higher on average — the property
        the paper cites for preferring PCC over cosine."""
        rm = full_dataset.ratings
        counts = rm.item_counts()
        means = rm.item_means()
        rated = counts >= 5
        corr = np.corrcoef(counts[rated], means[rated])[0, 1]
        assert corr > 0.1
