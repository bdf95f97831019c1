"""SCBPCC — Scalable Cluster-Based smoothing CF (Xue et al., SIGIR 2005).

The paper CFSF extends: cluster users with K-means, smooth unrated data
within clusters (CFSF reuses exactly this smoothing — our
implementation shares :mod:`repro.core.clustering` and
:mod:`repro.core.smoothing` with CFSF), then run *user-based* CF where

* neighbour similarity uses a hybrid weighting between original and
  smoothed ratings (the idea CFSF's Eq. 11 ε generalises),
* prediction is a Resnick-style weighted deviation sum over the top-K
  neighbours, reading smoothed values where the neighbour did not rate
  the item.

CFSF's advance over SCBPCC (per its Section II-C) is the *item*
dimension: SCBPCC has no GIS, no SIR'/SUIR' and no local item–user
matrix; also SCBPCC re-identifies neighbours over the whole training
population each time — the configuration the CFSF paper criticises as
under-optimised ("SCBPCC could be further improved in scalability").
The Fig. 5 reproduction times this difference.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Recommender
from repro.core.clustering import UserClusters, cluster_users
from repro.core.selection import select_top_k_users
from repro.core.smoothing import SmoothedRatings, smooth_ratings
from repro.data.matrix import RatingMatrix
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["SCBPCC"]


class SCBPCC(Recommender):
    """Cluster-based smoothing + user-based CF (Xue et al. 2005).

    Parameters
    ----------
    n_clusters:
        Number of user clusters (their paper and CFSF both use ~30).
    top_k:
        Neighbourhood size for prediction (their paper uses 20–50;
        default 25 to mirror the CFSF comparison).
    epsilon:
        Hybrid weight of original vs smoothed ratings (their
        ``lambda``; CFSF's Eq. 11 ε).  Default 0.35 mirrors CFSF's w.
    seed, max_iter:
        K-means controls.
    """

    def __init__(
        self,
        *,
        n_clusters: int = 30,
        top_k: int = 25,
        epsilon: float = 0.35,
        seed: int = 0,
        max_iter: int = 30,
    ) -> None:
        check_positive_int(n_clusters, "n_clusters")
        check_positive_int(top_k, "top_k")
        check_fraction(epsilon, "epsilon")
        self.n_clusters = n_clusters
        self.top_k = top_k
        self.epsilon = epsilon
        self.seed = seed
        self.max_iter = max_iter
        self.clusters: UserClusters | None = None
        self.smoothed: SmoothedRatings | None = None

    @property
    def name(self) -> str:
        return "SCBPCC"

    def fit(self, train: RatingMatrix) -> "SCBPCC":
        """Offline: cluster and smooth (shared machinery with CFSF)."""
        super().fit(train)
        self.clusters = cluster_users(
            train, self.n_clusters, seed=self.seed, max_iter=self.max_iter
        )
        self.smoothed = smooth_ratings(train, self.clusters.labels, self.clusters.n_clusters)
        return self

    def _predict_user(
        self, given: RatingMatrix, user: int, items: np.ndarray, batch: None
    ) -> tuple[np.ndarray | float, np.ndarray | bool]:
        train = self._require_fitted()
        smoothed = self.smoothed
        assert smoothed is not None
        items_idx, ratings = given.user_profile(user)
        if items_idx.size == 0:
            return 0.0, False
        mean_b = float(ratings.mean())
        top = select_top_k_users(
            items_idx,
            ratings - mean_b,
            np.arange(train.n_users, dtype=np.intp),
            smoothed,
            k=self.top_k,
            epsilon=self.epsilon,
        )
        K_users = top.users
        s_u = np.maximum(top.similarities, 0.0)
        r_col = smoothed.values[np.ix_(K_users, items)]
        obs_col = smoothed.observed_mask[np.ix_(K_users, items)]
        w_col = np.where(obs_col, self.epsilon, 1.0 - self.epsilon)
        w = w_col * s_u[:, None]
        den = w.sum(axis=0)
        offsets = r_col - smoothed.user_means[K_users][:, None]
        num = (w * offsets).sum(axis=0)
        ok = den > 0.0
        return mean_b + num / np.where(ok, den, 1.0), ok
