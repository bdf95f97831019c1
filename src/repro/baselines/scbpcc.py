"""SCBPCC — Scalable Cluster-Based smoothing CF (Xue et al., SIGIR 2005).

The paper CFSF extends: cluster users with K-means, smooth unrated data
within clusters (CFSF reuses exactly this smoothing — our
implementation shares :mod:`repro.core.clustering` and
:mod:`repro.core.smoothing` with CFSF), then run *user-based* CF where

* neighbour *pre-selection* uses the clusters: the active user's top
  clusters are located first and candidates come only from them,
* neighbour similarity uses a hybrid weighting between original and
  smoothed ratings (the idea CFSF's Eq. 11 ε generalises),
* prediction is a Resnick-style weighted deviation sum over the top-K
  neighbours, reading smoothed values where the neighbour did not rate
  the item.

CFSF's advance over SCBPCC (per its Section II-C) is the *item*
dimension: SCBPCC has no GIS, no SIR'/SUIR' and no local item–user
matrix; also SCBPCC re-identifies neighbours over the whole candidate
population each time.  The Fig. 5 reproduction times this difference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import Recommender, fallback_baseline
from repro.core.clustering import UserClusters, cluster_users
from repro.core.icluster import user_cluster_affinity
from repro.core.selection import select_top_k_users
from repro.core.smoothing import SmoothedRatings, smooth_ratings
from repro.data.matrix import RatingMatrix
from repro.utils.groups import user_blocks
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
    n_candidate_clusters:
        How many of the active user's best clusters supply neighbour
        candidates.  ``None`` scans all clusters — the configuration
        the CFSF paper criticises as under-optimised ("SCBPCC could be
        further improved in scalability"); the default keeps it, so
        the Fig. 5 timing comparison is faithful.
    seed, max_iter:
        K-means controls.
    """

    def __init__(
        self,
        *,
        n_clusters: int = 30,
        top_k: int = 25,
        epsilon: float = 0.35,
        n_candidate_clusters: int | None = None,
        seed: int = 0,
        max_iter: int = 30,
    ) -> None:
        check_positive_int(n_clusters, "n_clusters")
        check_positive_int(top_k, "top_k")
        check_fraction(epsilon, "epsilon")
        if n_candidate_clusters is not None:
            check_positive_int(n_candidate_clusters, "n_candidate_clusters")
        self.n_clusters = n_clusters
        self.top_k = top_k
        self.epsilon = epsilon
        self.n_candidate_clusters = n_candidate_clusters
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
        smoothed = self.smoothed
        assert smoothed is not None and self.clusters is not None
        fallback = fallback_baseline(train, given, users, items)
        out = np.empty(users.shape, dtype=np.float64)
        labels = smoothed.labels

        for block in user_blocks(users):
            b = int(users[block[0]])
            items_idx, ratings = given.user_profile(b)
            if items_idx.size == 0:
                out[block] = fallback[block]
                continue
            mean_b = float(ratings.mean())

            # Cluster pre-selection via the Eq. 9-style affinity.
            affinity = user_cluster_affinity(
                given.values[b : b + 1],
                given.mask[b : b + 1],
                np.array([mean_b]),
                smoothed.deviations,
                smoothed.deviation_counts,
            )[0]
            ranking = np.argsort(-affinity, kind="stable")
            if self.n_candidate_clusters is not None:
                chosen = ranking[: self.n_candidate_clusters]
                candidates = np.nonzero(np.isin(labels, chosen))[0]
            else:
                candidates = np.arange(train.n_users, dtype=np.intp)
            if candidates.size == 0:
                out[block] = fallback[block]
                continue

            top = select_top_k_users(
                items_idx,
                ratings - mean_b,
                candidates,
                smoothed,
                k=self.top_k,
                epsilon=self.epsilon,
            )
            q_items = items[block]
            K_users = top.users
            s_u = np.maximum(top.similarities, 0.0)
            r_col = smoothed.values[np.ix_(K_users, q_items)]
            obs_col = smoothed.observed_mask[np.ix_(K_users, q_items)]
            w_col = np.where(obs_col, self.epsilon, 1.0 - self.epsilon)
            w = w_col * s_u[:, None]
            den = w.sum(axis=0)
            offsets = r_col - smoothed.user_means[K_users][:, None]
            num = (w * offsets).sum(axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                pred = np.where(den > 0.0, mean_b + num / np.where(den > 0.0, den, 1.0), 0.0)
            out[block] = np.where(den > 0.0, pred, fallback[block])
        return self._clip(out)
