"""SIR — the item-based CF baseline (Eq. 1 of the paper).

Item-based CF (Sarwar et al. [11], Amazon [2]) predicts the active
user's rating of item *a* from the ratings *the same user* gave to
items similar to *a*::

    r̂(b, a) = Σ_{i ∈ SI} sim(a, i) · r(b, i) / Σ_{i ∈ SI} sim(a, i)

where ``SI`` is the set of items the active user rated, optionally
restricted to the *k* most similar with positive similarity.  The
similarity is the item–item PCC of Eq. 5, computed over the training
matrix at fit time — this is the "memory-based" cost profile the paper
criticises: the offline Gram product touches the full matrix and the
model keeps the dense Q x Q similarity.

Under the GivenN protocol the active user has only 5–20 rated items,
so SIR is weakly informed by construction — the paper's Table II shows
it trailing SUR and CFSF, which the reproduction preserves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import Recommender, fallback_baseline
from repro.data.matrix import RatingMatrix
from repro.similarity import Centering, item_pcc, overlap_counts, significance_weight
from repro.utils.groups import user_blocks

__all__ = ["ItemBasedCF"]


class ItemBasedCF(Recommender):
    """Item-based CF with PCC similarity (the paper's SIR baseline).

    Parameters
    ----------
    k:
        Use at most the *k* most-similar rated items per prediction
        (``None`` = all rated items with positive similarity).
    min_sim:
        Ignore neighbours with similarity ``<= min_sim``; the default
        0.0 keeps only positively correlated items, the standard
        choice for the weighted-average form of Eq. 1 (negative
        weights can push the average outside the rating scale).
    centering:
        Centering convention for the PCC (see :mod:`repro.similarity`).
    significance_gamma:
        When set, apply Herlocker significance weighting with this
        gamma to devalue similarities backed by few co-ratings.
    adjust_item_means:
        When ``True``, use Sarwar's adjusted weighted sum — predict
        deviations from item means rather than raw ratings::

            r̂(b, a) = r̄_a + Σ sim(a, i)·(r(b, i) − r̄_i) / Σ sim(a, i)

        The default ``False`` is the literal Eq. 1 the paper compares
        against (its SIR row).  The adjusted form is substantially
        stronger on data with item-quality offsets and is evaluated in
        the ablation suite.
    """

    def __init__(
        self,
        *,
        k: int | None = None,
        min_sim: float = 0.0,
        centering: Centering = "global_mean",
        significance_gamma: int | None = None,
        adjust_item_means: bool = False,
    ) -> None:
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1 or None, got {k}")
        self.k = k
        self.min_sim = float(min_sim)
        self.centering: Centering = centering
        self.significance_gamma = significance_gamma
        self.adjust_item_means = bool(adjust_item_means)
        self._sim: np.ndarray | None = None
        self._item_means: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "SIR"

    def fit(self, train: RatingMatrix) -> "ItemBasedCF":
        """Compute the item–item PCC over the training matrix."""
        super().fit(train)
        sim = item_pcc(train.values, train.mask, centering=self.centering)
        if self.significance_gamma is not None:
            counts = overlap_counts(train.mask, axis="columns")
            sim = significance_weight(sim, counts, gamma=self.significance_gamma)
            np.fill_diagonal(sim, 1.0)
        self._sim = sim
        self._item_means = train.item_means()
        return self

    def predict_many(
        self,
        given: RatingMatrix,
        users: np.ndarray | Sequence[int],
        items: np.ndarray | Sequence[int],
    ) -> np.ndarray:
        users, items = self._check_request(given, users, items)
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        train = self._require_fitted()
        assert self._sim is not None
        out = np.empty(users.shape, dtype=np.float64)
        fallback = fallback_baseline(train, given, users, items)

        # Group queries by active user: each user's rated-item set is
        # gathered once and every queried item reuses it.
        for block in user_blocks(users):
            u = users[block[0]]
            rated_idx, rated_vals = given.user_profile(u)
            q_items = items[block]
            if rated_idx.size == 0:
                out[block] = fallback[block]
                continue
            sims = self._sim[np.ix_(q_items, rated_idx)].copy()  # (nq, nr)
            sims[sims <= self.min_sim] = 0.0
            # Never let the query item predict itself (possible when a
            # caller asks about an item the user already rated).
            sims[q_items[:, None] == rated_idx[None, :]] = 0.0
            if self.k is not None and self.k < rated_idx.size:
                # Keep only the k largest sims per row.
                kth = np.partition(sims, -self.k, axis=1)[:, -self.k][:, None]
                sims[sims < kth] = 0.0
            denom = sims.sum(axis=1)
            if self.adjust_item_means:
                assert self._item_means is not None
                numer = sims @ (rated_vals - self._item_means[rated_idx])
                with np.errstate(invalid="ignore", divide="ignore"):
                    offs = np.where(
                        denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), 0.0
                    )
                pred = self._item_means[q_items] + offs
            else:
                numer = sims @ rated_vals
                with np.errstate(invalid="ignore", divide="ignore"):
                    pred = np.where(
                        denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), 0.0
                    )
            pred = np.where(denom > 0.0, pred, fallback[block])
            out[block] = pred
        return self._clip(out)
