"""Unit tests for the RatingMatrix abstraction."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.data import RatingMatrix
from repro.serving.faults import poison_given


class TestConstruction:
    def test_zero_means_unrated_by_default(self, tiny_rm):
        assert not tiny_rm.mask[0, 2]
        assert tiny_rm.mask[0, 0]

    def test_explicit_mask_wins(self):
        values = np.array([[3.0, 0.0]])
        mask = np.array([[False, True]])
        # A rating of literal 0.0 under an explicit mask is normalised
        # into the matrix; the masked-off 3.0 is dropped.
        rm = RatingMatrix(values, mask, rating_scale=(0.0, 5.0))
        assert rm.values[0, 0] == 0.0 and rm.mask[0, 1]

    def test_values_are_readonly(self, tiny_rm):
        with pytest.raises(ValueError):
            tiny_rm.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            tiny_rm.mask[0, 0] = False

    def test_rejects_nan_observed(self):
        with pytest.raises(ValueError, match="finite"):
            RatingMatrix(np.array([[np.nan, 1.0]]), np.array([[True, True]]))

    def test_nan_unobserved_ok(self):
        rm = RatingMatrix(np.array([[np.nan, 1.0]]), np.array([[False, True]]))
        assert rm.values[0, 0] == 0.0

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="low < high"):
            RatingMatrix(np.ones((2, 2)), rating_scale=(5, 1))

    def test_repr_mentions_shape(self, tiny_rm):
        assert "n_users=4" in repr(tiny_rm) and "n_items=5" in repr(tiny_rm)


class TestConstructors:
    def test_from_triplets_roundtrip(self, tiny_rm):
        users, items = np.nonzero(tiny_rm.mask)
        triplets = zip(users.tolist(), items.tolist(), tiny_rm.values[users, items].tolist())
        rebuilt = RatingMatrix.from_triplets(triplets, n_users=4, n_items=5)
        assert rebuilt == tiny_rm

    def test_from_triplets_last_wins(self):
        rm = RatingMatrix.from_triplets([(0, 0, 3.0), (0, 0, 5.0)], n_users=1, n_items=1)
        assert rm.values[0, 0] == 5.0

    def test_from_triplets_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            RatingMatrix.from_triplets([(2, 0, 1.0)], n_users=2, n_items=1)

    def test_from_triplets_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            RatingMatrix.from_triplets([(-1, 0, 1.0)])

    def test_empty_triplets_need_shape(self):
        with pytest.raises(ValueError):
            RatingMatrix.from_triplets([])
        rm = RatingMatrix.from_triplets([], n_users=2, n_items=3)
        assert rm.n_ratings == 0



def test_import_repro_loads_no_scipy():
    """SciPy loads only when a function needing it runs: its ~500
    submodules would otherwise sit on the heap every full garbage
    collection walks, on the serving path too."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestAggregates:
    def test_counts_and_density(self, tiny_rm):
        assert tiny_rm.n_ratings == 14
        assert tiny_rm.density == pytest.approx(14 / 20)
        assert tiny_rm.user_counts().tolist() == [4, 4, 5, 1]
        assert tiny_rm.item_counts().tolist() == [3, 3, 2, 3, 3]

    def test_user_means(self, tiny_rm):
        means = tiny_rm.user_means()
        assert means[0] == pytest.approx((5 + 4 + 2 + 1) / 4)
        assert means[3] == pytest.approx(3.0)

    def test_item_means(self, tiny_rm):
        means = tiny_rm.item_means()
        assert means[2] == pytest.approx(4.0)

    def test_empty_user_gets_fill(self):
        rm = RatingMatrix(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert rm.user_means(fill=9.0)[1] == 9.0
        assert rm.user_means()[1] == pytest.approx(rm.global_mean())

    def test_global_mean_empty_matrix(self):
        rm = RatingMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        assert rm.global_mean() == 3.0  # scale midpoint

    def test_stats_table_rows(self, tiny_rm):
        labels = [row[0] for row in tiny_rm.stats().as_rows()]
        assert "No. of Users" in labels and "Density of data" in labels

    def test_clip(self, tiny_rm):
        out = tiny_rm.clip(np.array([0.0, 7.0, 3.3]))
        assert out.tolist() == [1.0, 5.0, 3.3]


class TestFunctionalUpdates:
    def test_subset_users_preserves_rows(self, tiny_rm):
        sub = tiny_rm.subset_users([2, 0])
        assert sub.n_users == 2
        assert np.array_equal(sub.values[0], tiny_rm.values[2])

    def test_subset_items(self, tiny_rm):
        sub = tiny_rm.subset_items([4, 1])
        assert sub.n_items == 2
        assert np.array_equal(sub.values[:, 1], tiny_rm.values[:, 1])

    def test_with_ratings_adds_and_overwrites(self, tiny_rm):
        out = tiny_rm.with_ratings([(0, 2, 3.0), (0, 0, 1.0)])
        assert out.values[0, 2] == 3.0 and out.mask[0, 2]
        assert out.values[0, 0] == 1.0
        # original untouched (immutability)
        assert tiny_rm.values[0, 2] == 0.0

    def test_without_ratings(self, tiny_rm):
        out = tiny_rm.without_ratings([(0, 0)])
        assert not out.mask[0, 0] and out.values[0, 0] == 0.0
        assert out.n_ratings == tiny_rm.n_ratings - 1



class TestProfiles:
    def test_user_profile(self, tiny_rm):
        idx, vals = tiny_rm.user_profile(3)
        assert idx.tolist() == [2] and vals.tolist() == [3.0]

    def test_equality_and_hash(self, tiny_rm):
        clone = RatingMatrix(tiny_rm.values.copy(), tiny_rm.mask.copy())
        assert clone == tiny_rm
        assert hash(clone) == hash(tiny_rm)
        assert tiny_rm != "not a matrix" or True  # NotImplemented path


class TestRowKey:
    def test_equal_rows_share_keys_across_matrices(self, tiny_rm):
        clone = RatingMatrix(tiny_rm.values.copy(), tiny_rm.mask.copy())
        assert [clone.row_key(u) for u in range(4)] == [
            tiny_rm.row_key(u) for u in range(4)
        ]
        assert len({tiny_rm.row_key(u) for u in range(4)}) == 4

    def test_write_changes_only_the_written_row(self, tiny_rm):
        written = tiny_rm.with_ratings([(3, 0, 4.0)])
        assert written.row_key(3) != tiny_rm.row_key(3)
        for u in range(3):
            assert written.row_key(u) == tiny_rm.row_key(u)

    def test_swap_within_row_changes_key_but_not_hash(self, tiny_rm):
        vals = tiny_rm.values.copy()
        vals[0, [0, 3]] = vals[0, [3, 0]]  # 5 and 2 trade places
        swapped = RatingMatrix(vals, tiny_rm.mask.copy())
        assert hash(swapped) == hash(tiny_rm) and swapped != tiny_rm
        assert swapped.row_key(0) != tiny_rm.row_key(0)

    def test_moving_a_rating_changes_key(self, tiny_rm):
        moved = tiny_rm.without_ratings([(3, 2)]).with_ratings([(3, 1, 3.0)])
        assert moved.row_key(3) != tiny_rm.row_key(3)

    def test_memoised(self, tiny_rm):
        assert tiny_rm.row_key(1) is tiny_rm.row_key(1)


class TestDerivedMatrices:
    """with_ratings / without_ratings check and re-derive only the rows
    they touch, and validate exactly as the full constructor does."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writing_non_finite_raises(self, tiny_rm, bad):
        with pytest.raises(ValueError, match="observed ratings must be finite"):
            tiny_rm.with_ratings([(3, 0, bad)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("write", ["with", "without"])
    def test_non_finite_poison_in_untouched_row_still_raises(self, tiny_rm, bad, write):
        poisoned = poison_given(tiny_rm, [(0, 2, bad)])
        with pytest.raises(ValueError, match="observed ratings must be finite"):
            if write == "with":
                poisoned.with_ratings([(3, 0, 4.0)])
            else:
                poisoned.without_ratings([(3, 2)])

    def test_out_of_scale_poison_passes_through(self, tiny_rm):
        poisoned = poison_given(tiny_rm, [(0, 2, 99.0)])
        child = poisoned.with_ratings([(3, 0, 4.0)]).without_ratings([(3, 2)])
        assert child.values[0, 2] == 99.0 and child.mask[0, 2]
        assert child.bad_rows(1, 5).tolist() == [True, False, False, False]

    def test_untouched_rows_keep_their_memos(self, tiny_rm):
        keys = [tiny_rm.row_key(u) for u in range(4)]
        assert not tiny_rm.bad_rows(1, 5).any()
        child = tiny_rm.with_ratings([(2, 0, 7.0)])
        for u in (0, 1, 3):
            assert child.row_key(u) is keys[u]
        assert child.row_key(2) != keys[2]
        assert child.bad_rows(1, 5).tolist() == [False, False, True, False]
        assert not child.bad_rows(1, 5).flags.writeable
        fresh = RatingMatrix(child.values, child.mask)
        assert child == fresh and child.row_key(2) == fresh.row_key(2)

    def test_negative_index_write_refreshes_both_memo_entries(self, tiny_rm):
        stale = tiny_rm.row_key(-1)
        assert stale == tiny_rm.row_key(3)
        child = tiny_rm.with_ratings([(-1, 0, 4.0)])
        assert child.values[3, 0] == 4.0
        assert child.row_key(-1) == child.row_key(3) != stale
