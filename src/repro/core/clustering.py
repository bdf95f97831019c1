"""K-means user clustering under PCC similarity (Section IV-C, Eq. 6).

CFSF clusters users "to eliminate the diversity in user ratings" and to
accelerate like-minded-user selection.  The paper specifies K-means
with the PCC of Eq. 6 as the (dis)similarity: each user is assigned to
the cluster whose centroid is *most similar* (K-means' objective is
stated as minimising ``Σ_i Σ_{u_j ∈ C_i} sim|u_j − ū|``).

Centroids are dense item vectors: "The feature of a user cluster is
denoted as a centroid that represents an average rating over all users
in the cluster" (Section IV-D).  An item no member has rated gets the
cluster's mean rating so that centroid vectors are fully dense and the
user-to-centroid PCC is well-defined for any user profile.

Implementation notes
--------------------
* Assignment is the :func:`repro.similarity.pcc_to_rows` computation
  — an ``(P, L)`` masked-Gram product, no Python-level distance loops.
  The user side (validation, masking, centring and the products that
  need only the users and the centroids' all-rated mask) is prepared
  once per call; each iteration runs only the products that read the
  centroids, with the same expressions, so the result is bit-identical
  to calling :func:`~repro.similarity.pcc_to_rows` every time.
* Centroid update is a one-hot matrix product (``(L, P) @ (P, Q)``).
* Empty clusters are reseeded with the users *least similar* to their
  current centroid (the standard farthest-point repair), keeping
  exactly ``L`` non-empty clusters, which the smoothing stage assumes.
* Convergence: labels unchanged, or ``max_iter`` reached.  Each
  iteration is linear in the number of ratings, as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.obs import span
from repro.similarity import Centering
from repro.similarity.pcc import _pcc_rows, _RowSide
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["UserClusters", "cluster_users"]


@dataclass(frozen=True)
class UserClusters:
    """Result of :func:`cluster_users`.

    Attributes
    ----------
    labels:
        ``(P,)`` cluster index per training user.
    centroids:
        ``(L, Q)`` dense centroid rating vectors.
    similarities:
        ``(P, L)`` final user-to-centroid PCC matrix (reused by the
        iCluster step so it is not recomputed).
    n_iter:
        Iterations actually run.
    converged:
        Whether labels stabilised before ``max_iter``.
    """

    labels: np.ndarray
    centroids: np.ndarray
    similarities: np.ndarray = field(repr=False)
    n_iter: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        """Number of clusters ``L``."""
        return self.centroids.shape[0]

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the users assigned to *cluster*."""
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(f"cluster {cluster} out of range [0, {self.n_clusters})")
        return np.nonzero(self.labels == cluster)[0]

    def sizes(self) -> np.ndarray:
        """``(L,)`` member counts."""
        return np.bincount(self.labels, minlength=self.n_clusters)

    def objective(self) -> float:
        """Mean similarity of users to their assigned centroid.

        The quantity K-means maximises here (the paper states the
        minimisation of dissimilarity equivalently); useful for tests
        asserting monotone improvement.
        """
        return float(self.similarities[np.arange(len(self.labels)), self.labels].mean())


def _compute_centroids(
    train: RatingMatrix, labels: np.ndarray, n_clusters: int
) -> np.ndarray:
    """Per-cluster, per-item mean rating, densified with cluster means."""
    onehot = np.zeros((n_clusters, train.n_users), dtype=np.float64)
    onehot[labels, np.arange(train.n_users)] = 1.0
    sums = onehot @ train.values  # (L, Q)
    counts = onehot @ train.mask.astype(np.float64)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    # Fill items unrated by a cluster with the cluster's own mean so
    # the centroid is dense (global mean if the cluster is empty —
    # callers repair empties before using centroids).
    cluster_totals = sums.sum(axis=1)
    cluster_counts = counts.sum(axis=1)
    global_mean = train.global_mean()
    with np.errstate(invalid="ignore"):
        cluster_means = np.where(
            cluster_counts > 0, cluster_totals / np.maximum(cluster_counts, 1.0), global_mean
        )
    return np.where(counts > 0, means, cluster_means[:, None])


def cluster_users(
    train: RatingMatrix,
    n_clusters: int,
    *,
    seed: int | np.random.Generator | None = 0,
    max_iter: int = 30,
    centering: Centering = "global_mean",
    min_overlap: int = 2,
) -> UserClusters:
    """Cluster training users by rating-profile PCC.

    Parameters
    ----------
    train:
        Training rating matrix (users x items).
    n_clusters:
        The paper's ``C``.  Clamped to ``n_users`` when larger (every
        user its own cluster — smoothing then degenerates gracefully to
        user means, which the Fig. 4 sweep exercises at its right end).
    seed, max_iter:
        K-means initialisation seed and iteration cap.
    centering, min_overlap:
        PCC options threaded through to the similarity kernel.

    Returns
    -------
    UserClusters

    Examples
    --------
    >>> from repro.data import make_movielens_like
    >>> ds = make_movielens_like(seed=0)
    >>> clusters = cluster_users(ds.ratings, 30, seed=0)
    >>> clusters.labels.shape
    (500,)
    >>> int(clusters.sizes().min()) >= 1
    True
    """
    with span("cluster.fit", n_clusters=n_clusters, max_iter=max_iter) as sp:
        clusters = _cluster_users_impl(
            train,
            n_clusters,
            seed=seed,
            max_iter=max_iter,
            centering=centering,
            min_overlap=min_overlap,
        )
        sp.set(n_iter=clusters.n_iter, converged=clusters.converged)
        return clusters


def _cluster_users_impl(
    train: RatingMatrix,
    n_clusters: int,
    *,
    seed: int | np.random.Generator | None,
    max_iter: int,
    centering: Centering,
    min_overlap: int,
) -> UserClusters:
    """The K-means loop behind :func:`cluster_users`."""
    check_positive_int(n_clusters, "n_clusters")
    check_positive_int(max_iter, "max_iter")
    rng = as_generator(seed)
    P = train.n_users
    L = min(n_clusters, P)

    # Initialise centroids from L distinct random users.
    seeds = rng.choice(P, size=L, replace=False)
    labels = np.full(P, -1, dtype=np.intp)
    labels[seeds] = np.arange(L)
    centroids = train.values[seeds].copy()
    # Densify seed centroids with the seeds' own means.
    seed_counts = train.mask[seeds].sum(axis=1)
    seed_means = np.where(
        seed_counts > 0,
        train.values[seeds].sum(axis=1) / np.maximum(seed_counts, 1),
        train.global_mean(),
    )
    centroids = np.where(train.mask[seeds], centroids, seed_means[:, None])

    users = _RowSide.of(train.values, train.mask, centering)
    ones_mask = np.ones_like(centroids, dtype=bool)
    fixed = users.fixed_terms(ones_mask.astype(np.float64))

    def similarities(centroids: np.ndarray) -> np.ndarray:
        """``pcc_to_rows(users, centroids)``, the user side prepared."""
        return _pcc_rows(users, fixed, _RowSide.of(centroids, ones_mask, centering), min_overlap)

    sims = np.zeros((P, L), dtype=np.float64)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        sims = similarities(centroids)
        new_labels = np.argmax(sims, axis=1)

        # Repair empty clusters: steal the user least similar to its
        # own centroid (ties broken by index), one per empty cluster.
        counts = np.bincount(new_labels, minlength=L)
        empties = np.nonzero(counts == 0)[0]
        if empties.size:
            own_sim = sims[np.arange(P), new_labels].copy()
            for c in empties:
                # Do not steal from singleton clusters.
                sizes = np.bincount(new_labels, minlength=L)
                candidates = np.nonzero(sizes[new_labels] > 1)[0]
                worst = candidates[np.argmin(own_sim[candidates])]
                new_labels[worst] = c
                own_sim[worst] = np.inf

        if np.array_equal(new_labels, labels):
            converged = True
            labels = new_labels
            break
        labels = new_labels
        centroids = _compute_centroids(train, labels, L)

    if not converged or n_iter == 1:
        # A later converged pass already measured the centroids of the
        # final labels; otherwise (a cap hit, or the seeds converged)
        # measure them now.
        centroids = _compute_centroids(train, labels, L)
        sims = similarities(centroids)
    return UserClusters(
        labels=labels,
        centroids=centroids,
        similarities=sims,
        n_iter=n_iter,
        converged=converged,
    )
