"""Tests for the incremental GIS (Section VI extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IncrementalGIS
from repro.data import RatingMatrix
from repro.similarity import pairwise_pcc


@pytest.fixture()
def small_matrix(ml_small):
    return ml_small.subset_users(range(40)).subset_items(range(50))


def full_rebuild_sim(gis: IncrementalGIS) -> np.ndarray:
    rm = gis.matrix()
    return pairwise_pcc(rm.values, rm.mask, centering="corated_mean", min_overlap=gis.min_overlap)


class TestExactness:
    def test_initial_state_matches_batch(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        ref = full_rebuild_sim(gis)
        got = np.vstack([gis.sim_row(i) for i in range(gis.n_items)])
        assert np.allclose(got, ref, atol=1e-10)

    def test_add_matches_batch(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        # add to an unrated cell
        u, i = np.argwhere(~small_matrix.mask)[0]
        gis.add_rating(int(u), int(i), 4.0)
        ref = full_rebuild_sim(gis)
        got = np.vstack([gis.sim_row(j) for j in range(gis.n_items)])
        assert np.allclose(got, ref, atol=1e-10)

    def test_remove_matches_batch(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        u, i = np.argwhere(small_matrix.mask)[5]
        gis.remove_rating(int(u), int(i))
        ref = full_rebuild_sim(gis)
        got = np.vstack([gis.sim_row(j) for j in range(gis.n_items)])
        assert np.allclose(got, ref, atol=1e-10)

    def test_rerate_is_remove_plus_add(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        u, i = np.argwhere(small_matrix.mask)[3]
        gis.add_rating(int(u), int(i), 1.0)   # re-rate
        assert gis.matrix().values[u, i] == 1.0
        ref = full_rebuild_sim(gis)
        got = np.vstack([gis.sim_row(j) for j in range(gis.n_items)])
        assert np.allclose(got, ref, atol=1e-10)

    def test_long_mixed_stream_stays_exact(self, small_matrix, rng):
        gis = IncrementalGIS(small_matrix)
        for _ in range(150):
            u = int(rng.integers(0, gis.n_users))
            i = int(rng.integers(0, gis.n_items))
            if gis.matrix().mask[u, i] and rng.random() < 0.3:
                gis.remove_rating(u, i)
            else:
                gis.add_rating(u, i, float(rng.integers(1, 6)))
        ref = full_rebuild_sim(gis)
        got = np.vstack([gis.sim_row(j) for j in range(gis.n_items)])
        assert np.abs(got - ref).max() < 1e-9

    def test_rebuild_is_noop_numerically(self, small_matrix, rng):
        gis = IncrementalGIS(small_matrix)
        for _ in range(40):
            u = int(rng.integers(0, gis.n_users))
            i = int(rng.integers(0, gis.n_items))
            gis.add_rating(u, i, float(rng.integers(1, 6)))
        before = np.vstack([gis.sim_row(j) for j in range(gis.n_items)])
        gis.rebuild()
        after = np.vstack([gis.sim_row(j) for j in range(gis.n_items)])
        assert np.abs(before - after).max() < 1e-9


class TestUserFoldIn:
    def test_add_user_grows_matrix(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        row = gis.add_user(np.array([0, 1, 2]), np.array([5.0, 3.0, 4.0]))
        assert row == small_matrix.n_users
        assert gis.n_users == small_matrix.n_users + 1
        assert gis.matrix().values[row, 0] == 5.0

    def test_fold_in_stays_exact(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        gis.add_user(np.array([0, 1, 2, 3]), np.array([5.0, 3.0, 4.0, 1.0]))
        ref = full_rebuild_sim(gis)
        got = np.vstack([gis.sim_row(j) for j in range(gis.n_items)])
        assert np.allclose(got, ref, atol=1e-10)


class TestTopM:
    def test_lazy_refresh_after_update(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        idx_before, _ = gis.top_m(0, 10)
        # Hammer item 0's co-ratings to change its neighbourhood.
        rng = np.random.default_rng(0)
        for u in range(gis.n_users):
            if not gis.matrix().mask[u, 0]:
                gis.add_rating(u, 0, float(rng.integers(1, 6)))
        idx_after, sims_after = gis.top_m(0, 10)
        assert (np.diff(sims_after) <= 1e-12).all()
        # fresh ranking agrees with a from-scratch argsort
        sims = gis.sim_row(0)
        sims[0] = -np.inf
        expected = np.argsort(-sims, kind="stable")[:10]
        keep = np.sort(sims[expected])[::-1] > 0
        assert np.array_equal(idx_after, expected[: keep.sum()])

    def test_errors(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        with pytest.raises(ValueError):
            gis.add_rating(999, 0, 3.0)
        with pytest.raises(ValueError):
            gis.add_rating(0, 999, 3.0)
        u, i = np.argwhere(~small_matrix.mask)[0]
        with pytest.raises(ValueError, match="no rating"):
            gis.remove_rating(int(u), int(i))

    def test_update_counter(self, small_matrix):
        gis = IncrementalGIS(small_matrix)
        u, i = np.argwhere(~small_matrix.mask)[0]
        gis.add_rating(int(u), int(i), 3.0)
        assert gis.n_updates == 1


class FullSortGIS(IncrementalGIS):
    """The reference ranking: every row stable-argsorted in full, at
    construction, on ``rebuild()`` and when ``top_m`` reads a dirty row."""

    def __init__(self, train: RatingMatrix) -> None:
        super().__init__(train)
        self._full = self._sort(self.full_sim())

    def _sort(self, sim: np.ndarray) -> np.ndarray:
        masked = sim.copy()
        np.fill_diagonal(masked, -np.inf)
        return np.argsort(-masked, axis=1, kind="stable")[:, : self.n_items - 1]

    def top_m(self, item: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        if self._dirty[item]:
            sims = self.sim_row(item)
            sims[item] = -np.inf
            self._full[item] = np.argsort(-sims, kind="stable")[: self.n_items - 1]
            self._dirty[item] = False
        cand = self._full[item][:m]
        sims = self.sim_row(item)[cand]
        keep = sims > 0.0
        return cand[keep], sims[keep]

    def rebuild(self) -> None:
        super().rebuild()
        self._full = self._sort(self.full_sim())


class TestRankingWidth:
    def test_top_m_equals_the_full_sort_prefix(self, ml_small, rng):
        """The top-M selection, widened on demand and re-ranked per dirty
        row, returns what sorting every row in full returned."""
        Q = ml_small.n_items
        gis, ref = IncrementalGIS(ml_small), FullSortGIS(ml_small)

        def update(n):
            for _ in range(n):
                u = int(rng.integers(0, gis.n_users))
                i = int(rng.integers(0, Q))
                r = float(rng.integers(1, 6))
                for g in (gis, ref):
                    if g.matrix().mask[u, i] and r < 2:
                        g.remove_rating(u, i)
                    else:
                        g.add_rating(u, i, r)

        def read(items, m):
            for i in items:
                got, want = gis.top_m(int(i), m), ref.top_m(int(i), m)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])

        read(range(Q), 1)
        assert gis._neighbours.shape == (Q, 1)
        update(30)
        read(range(0, Q, 2), 1)      # re-rank some dirty rows at width 1
        read(range(Q), 95)           # widen, with other rows still dirty
        assert gis._neighbours.shape == (Q, 95)
        update(30)
        read(range(Q), Q - 1)
        read(range(Q), 95)
        update(10)
        gis.rebuild()
        ref.rebuild()
        for m in (1, 95, Q - 1):
            read(range(Q), m)
