"""The CFSF recommender (Algorithm 1 of the paper).

Offline phase (:meth:`CFSF.fit`):

1. ``Creating GIS`` — global item–item PCC, thresholded, sorted
   (:mod:`repro.core.gis`).
2. ``Clustering users`` — K-means under PCC (:mod:`repro.core.clustering`).
3. ``Smoothing user ratings`` within each cluster
   (:mod:`repro.core.smoothing`) and building the per-user iCluster
   ranking (:mod:`repro.core.icluster`).

Online phase (:meth:`CFSF.predict_many`), per active user:

4. Fold the active user in: rank clusters by Eq. 9 affinity against
   the user's given profile, assign the best cluster, and densify the
   profile with that cluster's smoothing (the paper "inserts a record
   in the item-user matrix" for each active user).
5. Build the candidate set by walking the iCluster ranking and select
   the top-K like-minded users with the ε-weighted PCC of Eq. 10.
6. For each requested item, pick the top-M similar items from the GIS,
   extract the local matrix, and fuse SIR'/SUR'/SUIR' (Eqs. 12–14).

Two equivalent online implementations exist:

* :meth:`CFSF.predict_one_detailed` — the literal per-request path via
  :class:`~repro.core.local_matrix.LocalMatrix` and
  :func:`~repro.core.fusion.fuse`; transparent, introspectable, used by
  tests and ablations.
* :meth:`CFSF.predict_many` — the production path: a batched
  :class:`~repro.core.fusion.FusionKernel` evaluates every request of a
  batch over stacked local matrices, reading top-M neighbourhoods from
  the offline-built :class:`~repro.core.gis.NeighborCache`.  The test
  suite asserts the two agree to float precision; the batched path is
  what the scalability experiments (Fig. 5) time.

Per-active-user intermediate results (cluster assignment, densified
profile, top-K selection, the kernel's prepared arrays) are LRU-cached
across calls, reproducing the paper's "caching intermediate results"
optimisation.  The key is the content of that user's given row
(:meth:`~repro.data.matrix.RatingMatrix.row_key`), so a write to one
profile re-folds only that user; the cache is cleared whenever the
config changes, so the key never needs to cover it.  The cache holds
at most one state per user: a fold-in under a new row key drops the
state it supersedes, so a stream of profile writes does not pin
memory.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.baselines.base import Recommender
from repro.core.config import CFSFConfig
from repro.core.clustering import UserClusters, cluster_users
from repro.core.fusion import FusedPrediction, FusionKernel, PreparedActiveUser, fuse
from repro.core.gis import GlobalItemSimilarity, build_gis
from repro.core.icluster import (
    IClusterIndex,
    PreparedAffinity,
    build_icluster,
    prepare_affinity,
    profile_cluster_affinity,
)
from repro.core.local_matrix import LocalMatrix, build_local_matrix
from repro.core.selection import TopKUsers, select_top_k_users
from repro.core.smoothing import SmoothedRatings, smooth_ratings
from repro.data.matrix import RatingMatrix
from repro.obs import span
from repro.serving.errors import InvalidRequestError
from repro.utils.cache import LRUCache

__all__ = ["CFSF", "ActiveUserState"]


@dataclass(frozen=True)
class ActiveUserState:
    """Cached per-active-user online artefacts (steps 4–5)."""

    profile: np.ndarray          # (Q,) dense given-or-smoothed ratings
    observed: np.ndarray         # (Q,) True where given
    mean: float                  # mean of given ratings
    cluster_ranking: np.ndarray  # (L,) clusters by descending affinity
    top_k: TopKUsers             # selected like-minded users
    prepared: PreparedActiveUser  # kernel-side gathered arrays


class CFSF(Recommender):
    """Collaborative Filtering with Smoothing and Fusing.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.CFSFConfig`; keyword overrides are
        applied on top, so ``CFSF(top_m_items=50)`` works directly.

    Examples
    --------
    >>> from repro.data import make_movielens_like, make_split
    >>> split = make_split(make_movielens_like(seed=0).ratings,
    ...                    n_train_users=300, given_n=10)
    >>> model = CFSF().fit(split.train)
    >>> users, items, truth = split.targets_arrays()
    >>> preds = model.predict_many(split.given, users[:5], items[:5])
    >>> preds.shape
    (5,)
    """

    def __init__(self, config: CFSFConfig | None = None, **overrides: Any) -> None:
        cfg = config or CFSFConfig()
        if overrides:
            cfg = cfg.with_(**overrides)
        self.config = cfg
        self.gis: GlobalItemSimilarity | None = None
        self.clusters: UserClusters | None = None
        self.smoothed: SmoothedRatings | None = None
        self.icluster: IClusterIndex | None = None
        self.kernel: FusionKernel | None = None
        self._kernel_config: CFSFConfig | None = None
        self._affinity_prep: PreparedAffinity | None = None
        self._new_state_cache()
        # Per-thread kernel override (see borrowed_kernel) plus a lock
        # so concurrent _require_kernel calls cannot race a rebuild,
        # and one that keeps the state cache and _state_keys in step.
        self._tl_kernel = threading.local()
        self._kernel_build_lock = threading.Lock()
        self._state_lock = threading.Lock()

    # Thread-locals and locks cannot cross a pickle boundary (the
    # spawn-mode parallel executor ships the fitted model to workers);
    # each process re-creates its own.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_tl_kernel", None)
        state.pop("_kernel_build_lock", None)
        state.pop("_state_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tl_kernel = threading.local()
        self._kernel_build_lock = threading.Lock()
        self._state_lock = threading.Lock()

    def _new_state_cache(self) -> None:
        """Start an empty per-user state cache under the current config."""
        self._cache = LRUCache(maxsize=self.config.cache_size)
        # user -> key of the latest state stored for them, so a fold-in
        # can drop the state it supersedes.
        self._state_keys: dict[int, tuple[bytes, int]] = {}

    @property
    def name(self) -> str:
        return "CFSF"

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def fit(self, train: RatingMatrix) -> "CFSF":
        """Run the offline phase (GIS, clustering, smoothing, iCluster).

        Each stage is traced as a child span of ``model.fit``
        (``gis.build``, ``cluster.fit``, ``smooth.apply``,
        ``icluster.build``, and ``gis.order``: the top-M neighbour
        order the online kernel's cache is cut from) when an
        observability registry is active —
        see :mod:`repro.obs` — so per-stage offline timings are
        measurable without ad-hoc stopwatches.
        """
        super().fit(train)
        cfg = self.config
        with span(
            "model.fit", model=self.name, n_users=train.n_users, n_items=train.n_items
        ):
            self.gis = build_gis(
                train,
                threshold=cfg.gis_threshold,
                centering=cfg.centering,
                min_overlap=cfg.min_overlap,
            )
            self.clusters = cluster_users(
                train,
                cfg.n_clusters,
                seed=cfg.kmeans_seed,
                max_iter=cfg.kmeans_max_iter,
                centering=cfg.centering,
                min_overlap=cfg.min_overlap,
            )
            self.smoothed = smooth_ratings(
                train,
                self.clusters.labels,
                self.clusters.n_clusters,
                shrinkage=cfg.smoothing_shrinkage,
            )
            self.icluster = build_icluster(self.smoothed, train.mask, train.values)
            self._item_means = train.item_means()
            self._global_mean = train.global_mean()
            self.build_online_kernel()
        return self

    def build_online_kernel(self) -> None:
        """Materialise the online hot-path structures from the offline state.

        Attaches the top-M :class:`~repro.core.gis.NeighborCache` to the
        GIS, builds the batched :class:`~repro.core.fusion.FusionKernel`
        and precomputes the cluster-side Eq. 9 factors.  Called by
        :meth:`fit` and by snapshot restore; idempotent, and safe to
        call again after mutating the offline state (it drops the
        per-active-user cache, so no state built under another kernel
        or config survives).
        """
        train, gis, smoothed, _ = self._require_online()
        cfg = self.config
        cache = gis.attach_cache(cfg.top_m_items).narrowed(cfg.top_m_items)
        self.kernel = FusionKernel(
            smoothed,
            cache,
            self._item_means,
            self._global_mean,
            lam=cfg.lam,
            delta=cfg.delta,
            epsilon=cfg.epsilon,
            adjust_biases=cfg.adjust_biases,
        )
        self._kernel_config = cfg
        self._affinity_prep = prepare_affinity(smoothed.deviations, smoothed.deviation_counts)
        self._new_state_cache()

    def _require_online(
        self,
    ) -> tuple[RatingMatrix, GlobalItemSimilarity, SmoothedRatings, IClusterIndex]:
        train = self._require_fitted()
        assert self.gis is not None and self.smoothed is not None and self.icluster is not None
        return train, self.gis, self.smoothed, self.icluster

    # ------------------------------------------------------------------
    # Online phase: per-user state (steps 4-5)
    # ------------------------------------------------------------------
    def active_user_state(self, given: RatingMatrix, user: int) -> ActiveUserState:
        """Fold one active user in and select their top-K users (cached).

        Cached on the content of *user*'s given row, so other users'
        profiles may change without invalidating this entry.  Storing a
        state drops the one this user had under an older row; when two
        fold-ins of one user race, either may end up cached, and each
        is right for its own key.
        """
        uid = int(user)
        if not 0 <= uid < given.n_users:
            raise InvalidRequestError(
                f"user {user} out of range [0, {given.n_users})"
            )
        kernel = self._require_kernel()
        key = (given.row_key(user), uid)
        state = self._cache.get(key)
        if state is not None:
            return state
        state = self._compute_active_state(given, user, kernel)
        with self._state_lock:
            superseded = self._state_keys.get(uid)
            if superseded is not None:
                self._cache.discard(superseded)
            self._state_keys[uid] = key
            self._cache.put(key, state)
        return state

    def has_active_state(self, given: RatingMatrix, user: int) -> bool:
        """Whether *user*'s state for their row of *given* is cached.

        A read-only look at the state cache: it moves no hit or miss
        counter and no recency, so asking does not disturb the LRU.  The
        serving layer asks it to fuse users with warm states before
        those that need a fold-in.  The answer is a snapshot; a state
        may be evicted (or stored) just after.
        """
        uid = int(user)
        return 0 <= uid < given.n_users and (given.row_key(uid), uid) in self._cache

    def _compute_active_state(
        self, given: RatingMatrix, user: int, kernel: FusionKernel
    ) -> ActiveUserState:
        train, _gis, smoothed, icluster = self._require_online()
        cfg = self.config
        items_idx, ratings = given.user_profile(user)
        # Reject a poisoned row (an ingestion layer that bypassed
        # RatingMatrix validation) here rather than as an opaque NaN
        # from the kernel.  A cache hit implies identical content, which
        # was checked when it was computed.
        lo, hi = train.rating_scale
        if ratings.size:
            if not np.isfinite(ratings).all():
                raise InvalidRequestError(
                    f"given profile of user {user} contains non-finite ratings"
                )
            rmin, rmax = float(ratings.min()), float(ratings.max())
            if rmin < lo or rmax > hi:
                raise InvalidRequestError(
                    f"given ratings of user {user} lie in [{rmin:g}, {rmax:g}], "
                    f"outside the trained scale [{lo:g}, {hi:g}]"
                )
        mean = float(ratings.mean()) if ratings.size else train.global_mean()
        active_dev = ratings - mean

        assert self._affinity_prep is not None  # built with the kernel
        affinity = profile_cluster_affinity(items_idx, active_dev, self._affinity_prep)
        ranking = np.argsort(-affinity, kind="stable").astype(np.intp)

        # Smooth the active profile from the top clusters.  With one
        # cluster this is exactly the Eq. 7 treatment a training user
        # gets; blending several (affinity-weighted) hedges the noisy
        # cluster pick a Given5 profile produces.
        n_soft = min(cfg.active_smoothing_clusters, ranking.size) or 1
        chosen = ranking[:n_soft]
        weights = np.maximum(affinity[chosen], 0.0)
        if weights.sum() <= 0.0:
            weights = np.ones(chosen.size)
        weights = weights / weights.sum()
        smoothed_row = mean + weights @ smoothed.deviations[chosen]
        np.clip(smoothed_row, lo, hi, out=smoothed_row)
        profile = np.where(given.mask[user], given.values[user], smoothed_row)

        candidates = icluster.candidates_for_ranking(
            ranking,
            cfg.effective_candidate_pool(),
            max_clusters=cfg.candidate_clusters,
        )
        if candidates.size == 0:
            candidates = np.arange(train.n_users, dtype=np.intp)
        top_k = select_top_k_users(
            items_idx,
            active_dev,
            candidates,
            smoothed,
            k=cfg.top_k_users,
            epsilon=cfg.epsilon,
            weight_matrix=kernel.weight_matrix,
            deviation_matrix=kernel.deviation_matrix,
        )
        observed = given.mask[user].copy()
        return ActiveUserState(
            profile=profile,
            observed=observed,
            mean=mean,
            cluster_ranking=ranking,
            top_k=top_k,
            prepared=kernel.prepare_user(
                top_k.users, top_k.similarities, profile, observed, mean
            ),
        )

    # ------------------------------------------------------------------
    # Online phase: literal single-request path (step 6)
    # ------------------------------------------------------------------
    def build_local(self, given: RatingMatrix, user: int, item: int) -> LocalMatrix:
        """Construct the local M x K matrix for one request."""
        train, gis, smoothed, _ = self._require_online()
        if not 0 <= item < train.n_items:
            raise InvalidRequestError(
                f"item {item} out of range [0, {train.n_items})"
            )
        kernel = self._require_kernel()
        state = self.active_user_state(given, user)
        item_idx, item_sims = gis.top_m(item, self.config.top_m_items)
        return build_local_matrix(
            active_item=item,
            item_indices=item_idx,
            item_sims=item_sims,
            user_indices=state.top_k.users,
            user_sims=state.top_k.similarities,
            smoothed=smoothed,
            active_profile=state.profile,
            active_observed=state.observed,
            active_user_mean=state.mean,
            epsilon=self.config.epsilon,
            item_means=self._item_means,
            global_mean=self._global_mean,
            weight_matrix=kernel.weight_matrix,
        )

    def predict_one_detailed(
        self, given: RatingMatrix, user: int, item: int
    ) -> FusedPrediction:
        """One request through the literal LocalMatrix + fuse path."""
        local = self.build_local(given, user, item)
        return fuse(
            local,
            lam=self.config.lam,
            delta=self.config.delta,
            adjust_biases=self.config.adjust_biases,
        )

    # ------------------------------------------------------------------
    # Online phase: batched path
    # ------------------------------------------------------------------
    def predict_many(
        self,
        given: RatingMatrix,
        users: np.ndarray | Sequence[int],
        items: np.ndarray | Sequence[int],
    ) -> np.ndarray:
        users, items = self._check_request(given, users, items)
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        self._require_online()
        kernel = self._require_kernel()
        # Fuse user-sorted runs as blocks; the live-traffic shape (one
        # user, or requests a router grouped) is already sorted, so
        # only a shuffled batch pays the argsort and the scatter back.
        order = None
        diffs = np.diff(users)
        if (diffs < 0).any():
            order = np.argsort(users, kind="stable")
            users, items = users[order], items[order]
            diffs = np.diff(users)
        edges = [0, *(np.flatnonzero(diffs) + 1).tolist(), users.size]
        fused = kernel.fuse_many(
            [
                (self.active_user_state(given, int(users[start])).prepared, items[start:stop])
                for start, stop in zip(edges[:-1], edges[1:])
            ]
        )
        if order is not None:
            out = np.empty_like(fused)
            out[order] = fused
            fused = out
        return self._clip(fused)

    def warm_online(self) -> None:
        """Ensure the online hot-path structures exist (idempotent).

        Serving layers call this before forking workers or taking
        traffic so the first request does not pay the one-off kernel
        build.  A fresh kernel is a no-op; only a missing or stale one
        (config changed since fit) is rebuilt.
        """
        self._require_kernel()

    @contextmanager
    def borrowed_kernel(self, kernel: FusionKernel) -> Iterator[FusionKernel]:
        """Route this thread's predictions through *kernel*.

        The serving layer's :class:`~repro.serving.pool.KernelPool`
        checks out per-worker :meth:`FusionKernel.clone` copies and
        pins one here for the duration of a dispatch, so concurrent
        ``predict_many`` calls never share the non-re-entrant scratch
        buffers.  The override is **per thread** (a ``threading.local``),
        so borrowing on one thread does not disturb others, and it
        nests (the previous override is restored on exit).
        """
        prev = getattr(self._tl_kernel, "kernel", None)
        self._tl_kernel.kernel = kernel
        try:
            yield kernel
        finally:
            self._tl_kernel.kernel = prev

    def _require_kernel(self) -> FusionKernel:
        """The batched fusion kernel, (re)built when absent or stale.

        A thread-local :meth:`borrowed_kernel` override wins outright —
        the pool that lent it owns its lifecycle.  Staleness covers
        direct ``model.config`` replacement after fit (the sweeps and
        ablation suites change online fields on a fitted model): any
        config change rebuilds the kernel and drops the per-user state
        built under the old config (serialised by a lock so concurrent
        callers cannot race the rebuild).
        """
        borrowed = getattr(self._tl_kernel, "kernel", None)
        if borrowed is not None:
            return borrowed
        if self.kernel is None or self.config is not self._kernel_config:
            with self._kernel_build_lock:
                if self.kernel is None or self.config != self._kernel_config:
                    self.build_online_kernel()
                # An equal config is adopted without a rebuild, so the
                # identity test above passes from here on.
                self._kernel_config = self.config
        assert self.kernel is not None
        return self.kernel

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def offline_summary(self) -> dict[str, Any]:
        """Diagnostics of the fitted offline state (for reports/tests)."""
        train, gis, smoothed, _ = self._require_online()
        assert self.clusters is not None
        return {
            "n_users": train.n_users,
            "n_items": train.n_items,
            "gis_threshold": gis.threshold,
            "gis_sparsity": gis.sparsity(),
            "n_clusters": self.clusters.n_clusters,
            "kmeans_iterations": self.clusters.n_iter,
            "kmeans_converged": self.clusters.converged,
            "cluster_sizes": self.clusters.sizes().tolist(),
            "smoothed_fraction": smoothed.smoothed_fraction(),
            "cache_size": self._cache.maxsize,
            "neighbor_cache_bytes": gis.cache.memory_bytes() if gis.cache is not None else 0,
            "kernel_bytes": self.kernel.memory_bytes() if self.kernel is not None else 0,
        }

    def cache_stats(self) -> dict[str, float]:
        """Hit/miss counters of the online intermediate-result cache."""
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "hit_rate": self._cache.hit_rate,
            "entries": len(self._cache),
        }
