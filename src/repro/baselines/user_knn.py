"""SUR — the user-based CF baseline (Eq. 2 of the paper).

User-based CF predicts the active user's rating of item *a* as the
plain weighted average of the ratings that *like-minded training
users* gave to the same item::

    r̂(b, a) = Σ_u sim(b, u) · r(u, a) / Σ_u sim(b, u)

over the training users who rated *a* with positive similarity to *b*.

Like-mindedness between an active user (known only through their GivenN
profile) and every training user is a masked PCC over the co-rated
items, computed per prediction batch with
:func:`repro.similarity.pcc_to_rows` — the whole-matrix search the
paper's scalability critique of memory-based CF is about.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Recommender
from repro.data.matrix import RatingMatrix
from repro.similarity import pcc_to_rows

__all__ = ["UserBasedCF"]


class UserBasedCF(Recommender):
    """User-based CF with PCC similarity (the paper's SUR baseline).

    A user–user similarity needs at least two co-rated items, and only
    positively correlated users count.
    """

    @property
    def name(self) -> str:
        return "SUR"

    def fit(self, train: RatingMatrix) -> "UserBasedCF":
        """SUR is lazy — fitting just stores the training users."""
        super().fit(train)
        return self

    def _prepare_batch(self, given: RatingMatrix) -> np.ndarray:
        """(n_active, n_train) PCC between given profiles and train users."""
        train = self._require_fitted()
        return pcc_to_rows(given.values, given.mask, train.values, train.mask)

    def _predict_user(
        self, given: RatingMatrix, user: int, items: np.ndarray, batch: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        train = self._require_fitted()
        s = np.maximum(batch[user], 0.0)  # (P,)
        weights = s[:, None] * train.mask[:, items]  # (P, nq)
        denom = weights.sum(axis=0)
        numer = (weights * train.values[:, items]).sum(axis=0)
        ok = denom > 0.0
        return numer / np.where(ok, denom, 1.0), ok
