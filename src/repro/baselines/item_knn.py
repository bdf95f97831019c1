"""SIR — the item-based CF baseline (Eq. 1 of the paper).

Item-based CF (Sarwar et al. [11], Amazon [2]) predicts the active
user's rating of item *a* from the ratings *the same user* gave to
items similar to *a*::

    r̂(b, a) = Σ_{i ∈ SI} sim(a, i) · r(b, i) / Σ_{i ∈ SI} sim(a, i)

where ``SI`` is the set of items the active user rated with positive
similarity to *a*.  The similarity is the item–item PCC of Eq. 5,
computed over the training matrix at fit time — this is the
"memory-based" cost profile the paper criticises: the offline Gram
product touches the full matrix and the model keeps the dense Q x Q
similarity.

Under the GivenN protocol the active user has only 5–20 rated items,
so SIR is weakly informed by construction — the paper's Table II shows
it trailing SUR and CFSF, which the reproduction preserves.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Recommender
from repro.data.matrix import RatingMatrix
from repro.similarity import item_pcc

__all__ = ["ItemBasedCF"]


class ItemBasedCF(Recommender):
    """Item-based CF with PCC similarity (the paper's SIR baseline).

    Only positively correlated items count: negative weights could push
    Eq. 1's weighted average outside the rating scale.
    """

    def __init__(self) -> None:
        self._sim: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "SIR"

    def fit(self, train: RatingMatrix) -> "ItemBasedCF":
        """Compute the item–item PCC over the training matrix."""
        super().fit(train)
        self._sim = item_pcc(train.values, train.mask)
        return self

    def _predict_user(
        self, given: RatingMatrix, user: int, items: np.ndarray, batch: None
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self._sim is not None
        rated_idx, rated_vals = given.user_profile(user)
        sims = self._sim[np.ix_(items, rated_idx)]  # (nq, nr)
        sims[sims <= 0.0] = 0.0
        # Never let the query item predict itself (possible when a
        # caller asks about an item the user already rated).
        sims[items[:, None] == rated_idx[None, :]] = 0.0
        denom = sims.sum(axis=1)
        # A row-wise sum, not a matrix-vector product: BLAS rounds one
        # row differently depending on the rows around it.
        numer = (sims * rated_vals).sum(axis=1)
        ok = denom > 0.0
        return numer / np.where(ok, denom, 1.0), ok
