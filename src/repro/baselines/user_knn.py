"""SUR — the user-based CF baseline (Eq. 2 of the paper).

User-based CF predicts the active user's rating of item *a* from the
ratings that *like-minded training users* gave to the same item.  Two
forms are provided:

* ``mean_offset=True`` (default) — Resnick's formula, the standard
  form for PCC-based user CF and the one the paper's own SUR' component
  uses in Eq. 12::

      r̂(b, a) = r̄_b + Σ_u sim(b, u) · (r(u, a) − r̄_u) / Σ_u |sim(b, u)|

* ``mean_offset=False`` — the plain weighted average of Eq. 2.

Like-mindedness between an active user (known only through their GivenN
profile) and every training user is a masked PCC over the co-rated
items, computed per prediction batch with
:func:`repro.similarity.pcc_to_rows` — the whole-matrix search the
paper's scalability critique of memory-based CF is about.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import Recommender, fallback_baseline
from repro.data.matrix import RatingMatrix
from repro.similarity import Centering, pcc_to_rows
from repro.utils.groups import user_blocks

__all__ = ["UserBasedCF"]


class UserBasedCF(Recommender):
    """User-based CF with PCC similarity (the paper's SUR baseline).

    Parameters
    ----------
    k:
        Use at most the *k* most-similar training users per active
        user (``None`` = all users with similarity above ``min_sim``).
        Selection is per active user, over the users who rated the
        target item.
    min_sim:
        Ignore neighbours with similarity ``<= min_sim``.
    mean_offset:
        Resnick mean-offset form (default) vs the plain weighted
        average of Eq. 2; see the module docstring.
    centering:
        PCC centering convention (see :mod:`repro.similarity`).
    min_overlap:
        Minimum co-rated items for a user–user similarity to count;
        with Given5 profiles, 2 is the workable default.
    """

    def __init__(
        self,
        *,
        k: int | None = None,
        min_sim: float = 0.0,
        mean_offset: bool = True,
        centering: Centering = "global_mean",
        min_overlap: int = 2,
    ) -> None:
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1 or None, got {k}")
        self.k = k
        self.min_sim = float(min_sim)
        self.mean_offset = bool(mean_offset)
        self.centering: Centering = centering
        self.min_overlap = int(min_overlap)
        self._user_means: np.ndarray | None = None
        self._dev: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "SUR"

    def fit(self, train: RatingMatrix) -> "UserBasedCF":
        """Precompute per-user means and mean-centred deviations."""
        super().fit(train)
        self._user_means = train.user_means()
        dev = (train.values - self._user_means[:, None]) * train.mask
        self._dev = dev
        return self

    def _similarities(self, given: RatingMatrix) -> np.ndarray:
        """(n_active, n_train) PCC between given profiles and train users."""
        train = self._require_fitted()
        return pcc_to_rows(
            given.values,
            given.mask,
            train.values,
            train.mask,
            centering=self.centering,
            min_overlap=self.min_overlap,
        )

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
        assert self._user_means is not None and self._dev is not None
        sims_all = self._similarities(given)
        given_means = given.user_means(fill=train.global_mean())
        fallback = fallback_baseline(train, given, users, items)
        out = np.empty(users.shape, dtype=np.float64)

        for block in user_blocks(users):
            b = users[block[0]]
            s = sims_all[b].copy()  # (P,)
            s[s <= self.min_sim] = 0.0
            if self.k is not None and np.count_nonzero(s) > self.k:
                kth = np.partition(s, -self.k)[-self.k]
                s[s < kth] = 0.0
            q_items = items[block]
            rater_mask = train.mask[:, q_items]  # (P, nq)
            weights = s[:, None] * rater_mask
            denom = np.abs(weights).sum(axis=0)
            if self.mean_offset:
                numer = (s[:, None] * self._dev[:, q_items] * rater_mask).sum(axis=0)
                with np.errstate(invalid="ignore", divide="ignore"):
                    offs = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), 0.0)
                pred = given_means[b] + offs
            else:
                numer = (weights * train.values[:, q_items]).sum(axis=0)
                with np.errstate(invalid="ignore", divide="ignore"):
                    pred = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), 0.0)
            pred = np.where(denom > 0.0, pred, fallback[block])
            out[block] = pred
        return self._clip(out)
