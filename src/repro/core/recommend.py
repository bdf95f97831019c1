"""Top-N recommendation on top of rating prediction.

The paper evaluates rating-prediction MAE, but the product surface of
the systems it cites (Amazon, Yahoo! Music) is a *ranked item list*.
This module turns any :class:`~repro.baselines.base.Recommender` into a
top-N recommender: score every candidate item for an active user and
return the best N, excluding items the user already rated.

Ranking quality is measured with the metrics in
:mod:`repro.eval.metrics` (precision/recall@N, NDCG@N); see
``tests/test_persistence_recommend.py`` and the ranking section of the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import Recommender
from repro.data.matrix import RatingMatrix
from repro.utils.validation import check_positive_int

__all__ = ["Recommendation", "recommend_top_n"]


@dataclass(frozen=True)
class Recommendation:
    """A ranked recommendation list for one active user."""

    user: int
    items: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.items)

    def as_pairs(self) -> list[tuple[int, float]]:
        """``[(item, score), ...]`` best first."""
        return list(zip(self.items.tolist(), self.scores.tolist()))


def recommend_top_n(
    model: Recommender,
    given: RatingMatrix,
    user: int,
    n: int = 10,
    *,
    exclude_given: bool = True,
    candidate_items: np.ndarray | None = None,
) -> Recommendation:
    """Rank the best *n* items for one active user.

    Parameters
    ----------
    model:
        A fitted recommender.
    given:
        Active users' revealed profiles (``user`` indexes its rows).
    n:
        List length.
    exclude_given:
        Drop items the user has already rated (the default; a
        recommender that re-recommends your own history is useless).
    candidate_items:
        Restrict scoring to these items (e.g. in-stock items); default
        is the full catalogue.

    Notes
    -----
    Scoring cost is one ``predict_many`` over the candidate set —
    for CFSF that reuses the cached per-user state, so a full-catalogue
    ranking costs the same as the Fig. 5 workload for one user.

    Ties rank by candidate position: CFSF clips many scores to the
    scale maximum, and the list must not keep an arbitrary subset of
    the tied items at the cut.
    """
    check_positive_int(n, "n")
    if not 0 <= user < given.n_users:
        raise ValueError(f"user {user} out of range [0, {given.n_users})")
    if candidate_items is None:
        candidates = np.arange(given.n_items, dtype=np.intp)
    else:
        candidates = np.asarray(candidate_items, dtype=np.intp)
        if candidates.size and (candidates.min() < 0 or candidates.max() >= given.n_items):
            raise ValueError("candidate item index out of range")
    if exclude_given:
        candidates = candidates[~given.mask[user, candidates]]
    if candidates.size == 0:
        return Recommendation(user=user, items=candidates, scores=np.empty(0))

    scores = model.predict_many(
        given, np.full(candidates.shape, user, dtype=np.intp), candidates
    )
    order = np.argsort(-scores, kind="stable")[:n]
    return Recommendation(user=user, items=candidates[order], scores=scores[order])
