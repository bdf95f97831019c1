"""SF — Similarity Fusion (Wang, de Vries & Reinders, SIGIR 2006).

The UI-based comparator the paper derives its Eq. 4 from: predict from
all three rating sources — the same user on similar items (SIR), similar
users on the same item (SUR), and similar users on similar items
(SUIR) — fused with two interpolation weights, but computed over the
*entire* matrix with top-N neighbour lists and no clustering or
smoothing.  This is precisely the "accurate but slow" end of the
paper's design space: SF touches the full user population per request
(its online cost is what Fig. 5 contrasts CFSF against conceptually).

Our implementation normalises ratings on both sides (user-mean offsets
for the user dimension, item-mean offsets for the item dimension),
which matches Wang et al.'s use of normalised ratings, and weights the
SUIR cells with the same soft-minimum pair similarity CFSF adopts as
its Eq. 13.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Recommender
from repro.core.fusion import fusion_weights
from repro.core.gis import _top_m_order
from repro.data.matrix import RatingMatrix
from repro.similarity import item_pcc, pcc_to_rows, top_k_indices
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["SimilarityFusion"]


class SimilarityFusion(Recommender):
    """SF: whole-matrix fusion of SIR, SUR and SUIR (Wang et al. 2006).

    Parameters
    ----------
    top_k_users, top_m_items:
        Neighbour-list sizes for the user and item dimensions (their
        paper explores 20–60; defaults 50/50).
    lam, delta:
        Interpolation weights with the same roles as CFSF's Eq. 14
        (their paper's λ and δ; defaults follow their reported best
        region λ≈0.7, δ≈0.15).
    """

    def __init__(
        self,
        *,
        top_k_users: int = 50,
        top_m_items: int = 50,
        lam: float = 0.7,
        delta: float = 0.15,
    ) -> None:
        check_positive_int(top_k_users, "top_k_users")
        check_positive_int(top_m_items, "top_m_items")
        check_fraction(lam, "lam")
        check_fraction(delta, "delta")
        self.top_k_users = top_k_users
        self.top_m_items = top_m_items
        self.lam = lam
        self.delta = delta
        self._item_sim: np.ndarray | None = None
        self._item_nbr: np.ndarray | None = None
        self._user_means: np.ndarray | None = None
        self._item_means: np.ndarray | None = None
        self._dev: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "SF"

    def fit(self, train: RatingMatrix) -> "SimilarityFusion":
        """Precompute the item–item PCC and its top-M neighbour lists.

        A list holds at most ``Q - 1`` items: an item is never its own
        neighbour.
        """
        super().fit(train)
        sim = item_pcc(train.values, train.mask)
        self._item_nbr = _top_m_order(sim, min(self.top_m_items, train.n_items - 1))
        np.fill_diagonal(sim, 1.0)
        self._item_sim = sim
        self._user_means = train.user_means()
        self._item_means = train.item_means()
        self._dev = (train.values - self._user_means[:, None]) * train.mask
        return self

    def _prepare_batch(self, given: RatingMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Whole-population active-vs-train similarities (the SF cost)
        and the active users' given-means."""
        train = self._require_fitted()
        sims = pcc_to_rows(given.values, given.mask, train.values, train.mask)
        return sims, given.user_means(fill=train.global_mean())

    def _predict_user(
        self,
        given: RatingMatrix,
        user: int,
        items: np.ndarray,
        batch: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        train = self._require_fitted()
        assert self._item_sim is not None and self._item_nbr is not None
        assert self._user_means is not None and self._item_means is not None
        assert self._dev is not None
        sims_all, given_means = batch
        gmean = train.global_mean()
        mean_b = given_means[user]
        rated_idx, rated_vals = given.user_profile(user)

        # Top-K users for this active profile (positive sims only).
        s_row = np.maximum(sims_all[user], 0.0)
        top_users = top_k_indices(s_row, self.top_k_users)
        top_users = top_users[s_row[top_users] > 0.0]
        s_u = s_row[top_users]

        # ---- SIR term (item dimension, item-mean offsets) -----------
        si = np.maximum(self._item_sim[np.ix_(items, rated_idx)], 0.0)
        den = si.sum(axis=1)
        num = si @ (rated_vals - self._item_means[rated_idx])
        sir_ok = den > 0.0
        sir = np.where(
            sir_ok, self._item_means[items] + num / np.where(sir_ok, den, 1.0), mean_b
        )

        # ---- SUR term (user dimension, user-mean offsets) -----------
        raters = train.mask[np.ix_(top_users, items)]
        den = (s_u[:, None] * raters).sum(axis=0)
        num = (s_u[:, None] * self._dev[np.ix_(top_users, items)]).sum(axis=0)
        sur_ok = den > 0.0
        sur = np.where(sur_ok, mean_b + num / np.where(sur_ok, den, 1.0), mean_b)

        # ---- SUIR term (both dimensions, double offsets) ------------
        nbr = self._item_nbr[items]                         # (nq, M)
        s_i = np.maximum(self._item_sim[items[:, None], nbr], 0.0)
        si3 = s_i[:, None, :]                               # (nq, 1, M)
        su3 = s_u[None, :, None]                            # (1, K, 1)
        dd = np.sqrt(si3 * si3 + su3 * su3)
        pair = np.where(dd > 0.0, si3 * su3 / np.where(dd > 0.0, dd, 1.0), 0.0)
        rated_cells = train.mask[top_users[:, None, None], nbr[None, :, :]]
        vals = train.values[top_users[:, None, None], nbr[None, :, :]]
        dev = (
            vals
            - self._user_means[top_users][:, None, None]
            - (self._item_means[nbr][None, :, :] - gmean)
        )
        w3 = pair * np.transpose(rated_cells, (1, 0, 2))
        den3 = w3.sum(axis=(1, 2))
        num3 = (w3 * np.transpose(dev, (1, 0, 2))).sum(axis=(1, 2))
        anchor = mean_b + (self._item_means[items] - gmean)
        suir_ok = den3 > 0.0
        suir = np.where(suir_ok, anchor + num3 / np.where(suir_ok, den3, 1.0), mean_b)

        w_sir, w_sur, w_suir = fusion_weights(self.lam, self.delta)
        return w_sir * sir + w_sur * sur + w_suir * suir, sir_ok | sur_ok | suir_ok
