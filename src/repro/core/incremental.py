"""Incremental GIS maintenance (Section VI: "keep GIS up-to-date").

The paper leaves open how the Global Item Similarity matrix should
track a live rating stream without periodic full recomputation.  This
module closes that gap with exact sufficient-statistic maintenance:

For every item pair the co-rated Pearson correlation is a function of
six pairwise sums — ``n, Σx, Σy, Σxy, Σx², Σy²`` over the co-raters.
Adding (or removing) one rating ``(u, i, r)`` only touches the pairs
``(i, j)`` for the items ``j`` the user has rated, so an update costs
O(|I_u|) — about 94 pair updates per new MovieLens rating versus the
O(P·Q²)-ish full rebuild.

The correlation uses co-rated-mean centering (``corated_mean`` in
:mod:`repro.similarity`), the one PCC variant whose sufficient
statistics are local to the pair; the paper's global-mean centering
couples every pair containing item *i* to *i*'s overall mean, which
cannot be maintained pair-locally.  The accuracy impact of the variant
switch is measured in ``bench_ext_incremental``.

Neighbour rankings (the sorted GIS rows the online phase slices) are
re-derived lazily per dirty item, so a burst of updates costs one
top-M selection per touched item at the next read, not per update.
Like :meth:`GlobalItemSimilarity.order`, the ranking is only as wide
as the widest ``top_m`` asked for so far; no row is sorted in full.
"""

from __future__ import annotations

import numpy as np

from repro.core.gis import _top_m_order
from repro.data.matrix import RatingMatrix
from repro.similarity import pairwise_pcc
from repro.utils.validation import check_positive_int

__all__ = ["IncrementalGIS"]


class IncrementalGIS:
    """Exactly-maintained item–item PCC under a rating stream.

    Examples
    --------
    >>> from repro.data import make_movielens_like
    >>> rm = make_movielens_like(seed=0).ratings.subset_items(range(50))
    >>> gis = IncrementalGIS(rm)
    >>> gis.add_rating(0, 3, 4.0)       # user 0 rates item 3 with 4.0
    >>> sims = gis.sim_row(3)           # exact, no rebuild
    >>> sims.shape
    (50,)
    """

    def __init__(self, train: RatingMatrix, *, min_overlap: int = 2) -> None:
        check_positive_int(min_overlap, "min_overlap")
        self.min_overlap = min_overlap
        self._values = np.where(train.mask, train.values, 0.0).copy()
        self._mask = train.mask.copy()
        self.rating_scale = train.rating_scale

        R = self._values
        W = self._mask.astype(np.float64)
        R2 = R * R
        # Pairwise sufficient statistics, all (Q, Q).
        self._n = W.T @ W
        self._sx = R.T @ W    # Σ over co-raters of r(u, row-item)
        self._sxy = R.T @ R
        self._sxx = R2.T @ W
        # Σy/Σyy are the transposes of Σx/Σxx by symmetry; not stored.

        self._dirty = np.zeros(train.n_items, dtype=bool)
        self._rank_from_scratch()
        self.n_updates = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Catalogue size ``Q``."""
        return self._values.shape[1]

    @property
    def n_users(self) -> int:
        """Current user-row count (grows with :meth:`add_user`)."""
        return self._values.shape[0]

    def matrix(self) -> RatingMatrix:
        """Snapshot of the maintained rating matrix."""
        return RatingMatrix(
            self._values.copy(), self._mask.copy(), rating_scale=self.rating_scale
        )

    # ------------------------------------------------------------------
    # Stream operations
    # ------------------------------------------------------------------
    def add_user(self, profile_items: np.ndarray, profile_ratings: np.ndarray) -> int:
        """Fold a brand-new user in; returns their row index.

        The profile's ratings are applied through :meth:`add_rating`,
        so all pair statistics stay exact.
        """
        row = self.n_users
        self._values = np.vstack([self._values, np.zeros((1, self.n_items))])
        self._mask = np.vstack([self._mask, np.zeros((1, self.n_items), dtype=bool)])
        for item, rating in zip(np.asarray(profile_items), np.asarray(profile_ratings)):
            self.add_rating(row, int(item), float(rating))
        return row

    def add_rating(self, user: int, item: int, rating: float) -> None:
        """Apply one new rating; O(|I_user|) statistic updates.

        Re-rating (the pair already observed) is handled as
        remove-then-add so duplicates cannot skew the statistics.
        """
        self._check_pair(user, item)
        if self._mask[user, item]:
            self.remove_rating(user, item)
        others = np.nonzero(self._mask[user])[0]
        r_others = self._values[user, others]
        self._apply(item, others, rating, r_others, sign=+1.0)
        # The (i, i) self-pair.
        self._n[item, item] += 1.0
        self._sx[item, item] += rating
        self._sxy[item, item] += rating * rating
        self._sxx[item, item] += rating * rating
        self._values[user, item] = rating
        self._mask[user, item] = True
        self._mark_dirty(item, others)
        self.n_updates += 1

    def remove_rating(self, user: int, item: int) -> None:
        """Retract an existing rating (exact inverse of add)."""
        self._check_pair(user, item)
        if not self._mask[user, item]:
            raise ValueError(f"user {user} has no rating for item {item}")
        rating = self._values[user, item]
        self._values[user, item] = 0.0
        self._mask[user, item] = False
        others = np.nonzero(self._mask[user])[0]
        r_others = self._values[user, others]
        self._apply(item, others, rating, r_others, sign=-1.0)
        self._n[item, item] -= 1.0
        self._sx[item, item] -= rating
        self._sxy[item, item] -= rating * rating
        self._sxx[item, item] -= rating * rating
        self._mark_dirty(item, others)
        self.n_updates += 1

    def _apply(
        self,
        item: int,
        others: np.ndarray,
        rating: float,
        r_others: np.ndarray,
        *,
        sign: float,
    ) -> None:
        """Add/subtract the (item, others) pair contributions."""
        if others.size == 0:
            return
        self._n[item, others] += sign
        self._n[others, item] += sign
        self._sx[item, others] += sign * rating        # row view: x = item
        self._sx[others, item] += sign * r_others       # row view: x = other
        self._sxy[item, others] += sign * rating * r_others
        self._sxy[others, item] += sign * rating * r_others
        self._sxx[item, others] += sign * rating * rating
        self._sxx[others, item] += sign * r_others * r_others

    def _check_pair(self, user: int, item: int) -> None:
        if not 0 <= user < self.n_users:
            raise ValueError(f"user {user} out of range [0, {self.n_users})")
        if not 0 <= item < self.n_items:
            raise ValueError(f"item {item} out of range [0, {self.n_items})")

    def _mark_dirty(self, item: int, others: np.ndarray) -> None:
        self._dirty[item] = True
        self._dirty[others] = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def sim_row(self, item: int) -> np.ndarray:
        """Exact PCC of *item* against every item, from the statistics."""
        if not 0 <= item < self.n_items:
            raise ValueError(f"item {item} out of range [0, {self.n_items})")
        n = self._n[item]
        sx = self._sx[item]
        sy = self._sx.T[item]   # Σ of the column item over co-raters
        sxy = self._sxy[item]
        sxx = self._sxx[item]
        syy = self._sxx.T[item]
        with np.errstate(invalid="ignore", divide="ignore"):
            inv_n = np.where(n > 0, 1.0 / np.maximum(n, 1.0), 0.0)
            cov = sxy - sx * sy * inv_n
            varx = np.maximum(sxx - sx * sx * inv_n, 0.0)
            vary = np.maximum(syy - sy * sy * inv_n, 0.0)
            denom = np.sqrt(varx * vary)
            sim = np.where(denom > 0.0, cov / np.where(denom > 0.0, denom, 1.0), 0.0)
        sim[n < self.min_overlap] = 0.0
        np.clip(sim, -1.0, 1.0, out=sim)
        sim[item] = 1.0
        return sim

    def full_sim(self) -> np.ndarray:
        """The complete similarity matrix from the current statistics."""
        return pairwise_pcc(
            self._values, self._mask, centering="corated_mean", min_overlap=self.min_overlap
        )

    def top_m(self, item: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-M neighbour slice, refreshing the item's ranking lazily."""
        check_positive_int(m, "m")
        sims = self.sim_row(item)
        width = self._neighbours.shape[1]
        if self._dirty[item]:
            self._rank_sim[item] = sims
            if width:
                self._neighbours[item] = _top_m_order(self._rank_sim, width, rows=np.array([item]))
            self._dirty[item] = False
        if width < min(m, self.n_items - 1):
            self._neighbours = _top_m_order(self._rank_sim, min(m, self.n_items - 1))
        cand = self._neighbours[item][:m]
        sims = sims[cand]
        keep = sims > 0.0
        return cand[keep], sims[keep]

    def _rank_from_scratch(self) -> None:
        # The similarities each row's ranking was taken from: the full
        # matrix here, a dirty row's sim_row once top_m re-ranks it.
        # Widening re-selects from these, so a wider order keeps every
        # narrower prefix.
        self._rank_sim = self.full_sim()
        self._neighbours = np.empty((self.n_items, 0), dtype=np.intp)

    def rebuild(self) -> None:
        """Full recompute of statistics and rankings (drift barrier).

        The statistics are exact, so this exists only to bound
        floating-point accumulation drift in month-long streams; tests
        assert the pre/post difference stays at rounding level.
        """
        R = self._values
        W = self._mask.astype(np.float64)
        R2 = R * R
        self._n = W.T @ W
        self._sx = R.T @ W
        self._sxy = R.T @ R
        self._sxx = R2.T @ W
        self._rank_from_scratch()
        self._dirty[:] = False
