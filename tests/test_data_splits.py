"""Tests for the GivenN experimental protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import GivenNSplit, RatingMatrix, make_split, paper_grid, subsample_heldout


class TestMakeSplit:
    def test_shapes_follow_protocol(self, ml_small):
        sp = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30)
        assert sp.train.n_users == 80
        assert sp.given.n_users == 30 and sp.heldout.n_users == 30
        assert sp.train.n_items == ml_small.n_items

    def test_test_users_are_the_last_rows(self, ml_small):
        sp = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30)
        assert sp.active_user_ids.tolist() == list(range(90, 120))
        combined = sp.given.values + sp.heldout.values
        assert np.allclose(combined, ml_small.values[90:])

    def test_exactly_given_n_revealed(self, ml_small):
        sp = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30)
        assert (sp.given.user_counts() == 8).all()

    def test_given_heldout_partition_ratings(self, ml_small):
        sp = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30)
        active_mask = ml_small.mask[90:]
        assert np.array_equal(sp.given.mask | sp.heldout.mask, active_mask)
        assert not (sp.given.mask & sp.heldout.mask).any()

    def test_overlap_rejected(self, ml_small):
        with pytest.raises(ValueError, match="overlap"):
            make_split(ml_small, n_train_users=100, given_n=5, n_test_users=30)

    def test_too_few_ratings_rejected(self):
        rm = RatingMatrix.from_triplets(
            [(0, i, 3.0) for i in range(10)] + [(1, 0, 4.0), (1, 1, 4.0)],
            n_users=2,
            n_items=10,
        )
        with pytest.raises(ValueError, match="needs > given_n"):
            make_split(rm, n_train_users=1, given_n=5, n_test_users=1)

    def test_deterministic_by_seed(self, ml_small):
        a = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30, seed=1)
        b = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30, seed=1)
        assert a.given == b.given

    def test_name_default(self, ml_small):
        sp = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30)
        assert sp.name == "ML_80/Given8"

    def test_validation_in_dataclass(self, ml_small):
        sp = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30)
        with pytest.raises(ValueError, match="both given and held out"):
            GivenNSplit(
                train=sp.train, given=sp.given, heldout=sp.given, given_n=8
            )


class TestTargets:
    def test_targets_arrays_consistent(self, split_small):
        users, items, ratings = split_small.targets_arrays()
        assert users.shape == items.shape == ratings.shape
        assert len(users) == split_small.n_targets
        assert np.all(split_small.heldout.values[users, items] == ratings)



class TestPaperGrid:
    def test_grid_keys(self, ml_small):
        grid = paper_grid(
            ml_small, training_sizes=(40, 80), given_sizes=(5, 8), n_test_users=30
        )
        assert set(grid) == {(40, 5), (40, 8), (80, 5), (80, 8)}

    def test_same_given_shares_targets_across_training_sizes(self, ml_small):
        grid = paper_grid(
            ml_small, training_sizes=(40, 80), given_sizes=(5,), n_test_users=30
        )
        assert grid[(40, 5)].given == grid[(80, 5)].given
        assert grid[(40, 5)].heldout == grid[(80, 5)].heldout

    def test_different_given_different_reveals(self, ml_small):
        grid = paper_grid(
            ml_small, training_sizes=(80,), given_sizes=(5, 8), n_test_users=30
        )
        assert grid[(80, 5)].given.n_ratings != grid[(80, 8)].given.n_ratings


class TestSubsampleHeldout:
    def test_full_fraction_is_identity(self, split_small):
        assert subsample_heldout(split_small, 1.0) is split_small

    def test_fraction_scales_users(self, split_small):
        sub = subsample_heldout(split_small, 0.5, seed=0)
        assert sub.n_active_users == 15
        assert sub.train is split_small.train

    def test_rows_align(self, split_small):
        sub = subsample_heldout(split_small, 0.4, seed=0)
        assert sub.given.n_users == sub.heldout.n_users
        assert not (sub.given.mask & sub.heldout.mask).any()

    def test_invalid_fraction(self, split_small):
        for frac in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                subsample_heldout(split_small, frac)

    def test_name_annotated(self, split_small):
        assert "@" in subsample_heldout(split_small, 0.3).name
