"""EMDP — Effective Missing Data Prediction (Ma, King & Lyu, SIGIR 2007).

The strongest memory-based comparator in the paper's Table III.  EMDP:

1. Computes user–user and item–item PCC, both *significance-devalued*
   by the co-rating count (``min(n, γ)/γ``).
2. Keeps only neighbours whose similarity exceeds a threshold — ``η``
   for users, ``θ`` for items.
3. **Predicts the missing data in the training matrix itself**: each
   unrated (u, i) is filled by fusing a user-based and an item-based
   Resnick estimate with weight ``λ`` when both neighbour sets are
   non-empty, by the available one when only one is, and left missing
   when neither is (their Eqs. 10–13).
4. Answers online requests with the same fused formula computed over
   the (partially) filled matrix.

The CFSF paper's critique (Section II-A): per-item/per-user thresholds
make EMDP computationally heavy and badly chosen thresholds can leave
users with no prediction — CFSF gets the same best-neighbour effect by
top-M/top-K selection instead.

Defaults follow Ma et al.: ``λ=0.7, γ=30, η=θ=0.5``.  The threshold
sensitivity the CFSF paper criticises is real and measured in
``bench_ablation_emdp_thresholds``: on this substrate η=θ≈0.1 makes
EMDP rival CFSF, while the published thresholds leave it mid-pack.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Recommender
from repro.data.matrix import RatingMatrix
from repro.similarity import (
    item_pcc,
    overlap_counts,
    pcc_to_rows,
    significance_weight,
    user_pcc,
)
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["EMDP"]


class EMDP(Recommender):
    """Effective Missing Data Prediction (Ma et al. 2007).

    Parameters
    ----------
    lam:
        Fusion weight of the user-based term (their λ; 0.7 in the
        source paper).
    eta:
        User-similarity threshold η.
    theta:
        Item-similarity threshold θ.
    gamma:
        Significance-weighting knee γ (co-ratings needed for a
        similarity to count at full strength).
    """

    def __init__(
        self,
        *,
        lam: float = 0.7,
        eta: float = 0.5,
        theta: float = 0.5,
        gamma: int = 30,
    ) -> None:
        check_fraction(lam, "lam")
        check_fraction(eta, "eta")
        check_fraction(theta, "theta")
        check_positive_int(gamma, "gamma")
        self.lam = lam
        self.eta = eta
        self.theta = theta
        self.gamma = gamma
        self._item_sim: np.ndarray | None = None
        self._filled_values: np.ndarray | None = None
        self._filled_mask: np.ndarray | None = None
        self._filled_dev: np.ndarray | None = None
        self._user_means: np.ndarray | None = None
        self._item_means: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "EMDP"

    # ------------------------------------------------------------------
    def fit(self, train: RatingMatrix) -> "EMDP":
        """Compute similarities and fill the training matrix's holes."""
        super().fit(train)
        self._user_means = train.user_means()
        self._item_means = train.item_means()

        item_sim = item_pcc(train.values, train.mask)
        item_sim = significance_weight(
            item_sim, overlap_counts(train.mask, axis="columns"), gamma=self.gamma
        )
        np.fill_diagonal(item_sim, 0.0)  # an item never neighbours itself
        item_sim[item_sim <= self.theta] = 0.0
        self._item_sim = item_sim

        user_sim = user_pcc(train.values, train.mask)
        user_sim = significance_weight(
            user_sim, overlap_counts(train.mask, axis="rows"), gamma=self.gamma
        )
        np.fill_diagonal(user_sim, 0.0)
        user_sim[user_sim <= self.eta] = 0.0
        filled, filled_mask = self._fill_matrix(train, user_sim)
        self._filled_values = filled
        self._filled_mask = filled_mask
        # Deviations from each user's mean over their filled row (the
        # global mean for a row with nothing filled).
        row_means = np.where(
            filled_mask.any(axis=1),
            filled.sum(axis=1) / np.maximum(filled_mask.sum(axis=1), 1),
            train.global_mean(),
        )
        self._filled_dev = (filled - row_means[:, None]) * filled_mask
        return self

    def _fill_matrix(
        self, train: RatingMatrix, user_sim: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Their Eqs. 10–13: fuse user/item estimates for every hole.

        Fully vectorised: both estimates for *all* cells come from two
        masked matrix products, then the per-cell availability logic
        picks the fused / single-source / missing outcome.
        """
        assert self._item_sim is not None
        assert self._user_means is not None and self._item_means is not None
        values, mask = train.values, train.mask
        dev_u = (values - self._user_means[:, None]) * mask

        # User-based estimate for every (u, i): weighted deviations of
        # the similar users who rated i.
        num_u = user_sim @ dev_u
        den_u = user_sim @ mask.astype(np.float64)
        has_u = den_u > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            est_u = self._user_means[:, None] + num_u / np.where(has_u, den_u, 1.0)

        # Item-based estimate: weighted deviations of the similar items
        # the user rated.
        dev_i = (values - self._item_means[None, :]) * mask
        num_i = dev_i @ self._item_sim  # (P, Q)
        den_i = mask.astype(np.float64) @ self._item_sim
        has_i = den_i > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            est_i = self._item_means[None, :] + num_i / np.where(has_i, den_i, 1.0)

        lam = self.lam
        fused = np.where(
            has_u & has_i,
            lam * est_u + (1.0 - lam) * est_i,
            np.where(has_u, est_u, np.where(has_i, est_i, 0.0)),
        )
        filled_mask = mask | has_u | has_i
        filled = np.where(mask, values, np.where(has_u | has_i, fused, 0.0))
        lo, hi = train.rating_scale
        filled = np.where(filled_mask, np.clip(filled, lo, hi), 0.0)
        return filled, filled_mask

    # ------------------------------------------------------------------
    def _prepare_batch(self, given: RatingMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Active-vs-train similarities over the *original* profiles,
        significance-devalued by the co-rating count and thresholded,
        and the active users' given-means."""
        train = self._require_fitted()
        sims = pcc_to_rows(given.values, given.mask, train.values, train.mask)
        n_co = (given.mask.astype(np.float64) @ train.mask.astype(np.float64).T)
        sims = sims * (np.minimum(n_co, self.gamma) / self.gamma)
        sims[sims <= self.eta] = 0.0
        return sims, given.user_means(fill=train.global_mean())

    def _predict_user(
        self,
        given: RatingMatrix,
        user: int,
        items: np.ndarray,
        batch: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self._item_sim is not None and self._item_means is not None
        assert self._filled_mask is not None and self._filled_dev is not None
        sims, given_means = batch
        s = sims[user]  # (P,)

        # User-based term over the filled matrix.
        den_u = (s[:, None] * self._filled_mask[:, items]).sum(axis=0)
        num_u = (s[:, None] * self._filled_dev[:, items]).sum(axis=0)
        has_u = den_u > 0.0
        est_u = given_means[user] + num_u / np.where(has_u, den_u, 1.0)

        # Item-based term over the user's given ratings.
        rated_idx, rated_vals = given.user_profile(user)
        s_items = self._item_sim[np.ix_(items, rated_idx)]
        den_i = s_items.sum(axis=1)
        num_i = s_items @ (rated_vals - self._item_means[rated_idx])
        has_i = den_i > 0.0
        est_i = self._item_means[items] + num_i / np.where(has_i, den_i, 1.0)

        lam = self.lam
        pred = np.where(
            has_u & has_i,
            lam * est_u + (1.0 - lam) * est_i,
            np.where(has_u, est_u, est_i),
        )
        return pred, has_u | has_i
