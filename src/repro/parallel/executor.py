"""Multi-process online prediction (Section VI: "in a parallel manner").

The paper names parallel scalability as future work; this module
delivers it for the online phase.  Active users are independent —
their cached state (cluster assignment, top-K selection) is per-user —
so the request stream shards cleanly by user.

Transport: with ``fork`` (default on Linux) workers inherit the fitted
model's arrays copy-on-write, so the model is neither copied nor
serialised and the only pickled payload per task is an index array.
``spawn`` pickles the model once per worker instead.

Load balance: users carry unequal work (held-out items per user vary
by an order of magnitude in the GivenN protocol), so shards are built
by :func:`greedy_partition`, the LPT heuristic on per-user request
counts, rather than by contiguous blocks of users.

Fault tolerance: the pool is built on
:class:`concurrent.futures.ProcessPoolExecutor`, whose
``BrokenProcessPool`` surfaces abrupt worker deaths (OOM kills,
segfaults, ``os._exit``) instead of hanging the batch the way a raw
``multiprocessing.Pool.map`` does.  On a crash the predictor discards
the broken pool, respawns a fresh one, and retries the whole batch
(prediction is pure, so re-execution is safe); after
``max_pool_retries`` respawns it runs the batch inline in the parent,
where the model lives, so the request is always answered.  The
``crash_recoveries`` / ``inline_fallbacks`` counters expose what
happened.

Speedups are bounded by BLAS already using multiple threads inside a
single process — set ``OMP_NUM_THREADS=1`` in workers (done by the
initializer) to avoid oversubscription, the standard HPC hygiene.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

import numpy as np

from repro.baselines.base import Recommender
from repro.data.matrix import RatingMatrix
from repro.obs import NULL_REGISTRY, MetricsRegistry, get_registry
from repro.utils.validation import check_positive_int

__all__ = ["ParallelPredictor", "greedy_partition", "recommended_workers"]

# Worker-global state, set once per worker by the pool initializer so
# that per-task payloads stay tiny.  (Module-level by necessity:
# multiprocessing cannot pickle closures into initializers.)
_WORKER_MODEL: Recommender | None = None
_WORKER_GIVEN: RatingMatrix | None = None
_WORKER_HOOK: Callable[[np.ndarray, np.ndarray], None] | None = None
# Worker-local registry: tasks record into it and ship drained deltas
# back with their results; a registry object never crosses the process
# boundary, only plain-dict snapshots do.
_WORKER_METRICS = NULL_REGISTRY


def _init_worker(
    model: Recommender,
    given: RatingMatrix,
    hook: Callable[[np.ndarray, np.ndarray], None] | None,
    metrics_enabled: bool = False,
) -> None:
    """Pool initializer: pin state and tame BLAS thread fan-out."""
    global _WORKER_MODEL, _WORKER_GIVEN, _WORKER_HOOK, _WORKER_METRICS
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"
    _WORKER_MODEL = model
    _WORKER_GIVEN = given
    _WORKER_HOOK = hook
    _WORKER_METRICS = MetricsRegistry() if metrics_enabled else NULL_REGISTRY


def _predict_chunk(
    args: tuple[np.ndarray, np.ndarray, float | None],
) -> tuple[np.ndarray, dict | None]:
    """Worker task: predict one shard of (users, items).

    Returns the predictions plus the drained metric delta (``None``
    when observability is off).  Queue wait is measured on the wall
    clock because the submit stamp comes from the parent process;
    task latency stays on the worker's own ``perf_counter``.
    """
    users, items, submitted_at = args
    assert _WORKER_MODEL is not None and _WORKER_GIVEN is not None
    reg = _WORKER_METRICS
    if reg.enabled and submitted_at is not None:
        reg.histogram("parallel.task.queue_wait").observe(
            max(0.0, time.time() - submitted_at)
        )
    start = time.perf_counter()
    if _WORKER_HOOK is not None:
        _WORKER_HOOK(users, items)
    preds = _WORKER_MODEL.predict_many(_WORKER_GIVEN, users, items)
    if reg.enabled:
        reg.histogram("parallel.task.latency").observe(time.perf_counter() - start)
        reg.counter("parallel.task.requests").inc(int(users.size))
        return preds, reg.drain()
    return preds, None


def greedy_partition(costs: np.ndarray, n_parts: int) -> list[np.ndarray]:
    """LPT scheduling: heaviest item first onto the lightest part.

    Parameters
    ----------
    costs:
        Per-element nonnegative work estimates (e.g. held-out items
        per active user).
    n_parts:
        Number of parts (workers).

    Returns
    -------
    list of index arrays, one per part; within a part indices are
    sorted ascending (cache-friendlier gathers).

    Notes
    -----
    LPT's makespan is at most ``4/3 − 1/(3m)`` of optimal — plenty for
    a prediction fan-out where per-task variance dominates anyway.
    """
    check_positive_int(n_parts, "n_parts")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ValueError(f"costs must be 1-D, got ndim={costs.ndim}")
    if (costs < 0).any():
        raise ValueError("costs must be nonnegative")
    order = np.argsort(-costs, kind="stable")
    loads = np.zeros(n_parts)
    buckets: list[list[int]] = [[] for _ in range(n_parts)]
    for idx in order:
        p = int(np.argmin(loads))
        buckets[p].append(int(idx))
        loads[p] += costs[idx]
    return [np.array(sorted(b), dtype=np.intp) for b in buckets]


def recommended_workers(max_workers: int | None = None) -> int:
    """A sane worker count: the CPUs this process may run on, capped at
    *max_workers*.

    Counts the process's affinity mask where the platform has one, so a
    process pinned to one CPU gets one worker; elsewhere falls back to
    ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    if max_workers is not None:
        n = min(n, max_workers)
    return max(1, n)


class ParallelPredictor:
    """Shard ``predict_many`` across a process pool.

    Parameters
    ----------
    model:
        A *fitted* recommender.  With the ``fork`` start method the
        model is inherited copy-on-write; it must not be mutated while
        the predictor is alive.
    n_workers:
        Pool size (default: :func:`recommended_workers`).
    start_method:
        ``"fork"`` (default, Linux) or ``"spawn"``.  Spawn pickles the
        model once per worker — correct everywhere but slower to start.
    max_pool_retries:
        How many times a crashed pool is respawned (batch retried)
        before degrading to inline serial prediction in the parent.
    worker_hook:
        Optional picklable callable run inside the worker before each
        task — the seam the fault-injection harness
        (:mod:`repro.serving.faults`) uses to kill workers or induce
        latency deterministically.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` receiving task latency /
        queue-wait histograms (merged back from workers via the delta
        protocol) and pool respawn / inline-fallback counters.
        Defaults to the ambient registry — a no-op unless
        observability was opted into.  Worker deltas from an attempt
        that dies in a crash are discarded wholesale and the retried
        attempt's deltas are merged exactly once, so counts reconcile
        across crashes.

    Examples
    --------
    >>> from repro.core import CFSF
    >>> from repro.data import make_movielens_like, make_split
    >>> split = make_split(make_movielens_like(seed=0).ratings,
    ...                    n_train_users=300, given_n=10)
    >>> model = CFSF().fit(split.train)
    >>> users, items, _ = split.targets_arrays()
    >>> with ParallelPredictor(model, n_workers=2) as pp:
    ...     preds = pp.predict_many(split.given, users[:100], items[:100])
    >>> preds.shape
    (100,)
    """

    def __init__(
        self,
        model: Recommender,
        *,
        n_workers: int | None = None,
        start_method: str = "fork",
        max_pool_retries: int = 2,
        worker_hook: Callable[[np.ndarray, np.ndarray], None] | None = None,
        metrics=None,
    ) -> None:
        if start_method not in ("fork", "spawn"):
            raise ValueError(f"start_method must be 'fork' or 'spawn', got {start_method!r}")
        if max_pool_retries < 0:
            raise ValueError(f"max_pool_retries must be >= 0, got {max_pool_retries}")
        self.model = model
        self.n_workers = (
            recommended_workers()
            if n_workers is None
            else check_positive_int(n_workers, "n_workers")
        )
        self.start_method = start_method
        self.max_pool_retries = int(max_pool_retries)
        self.worker_hook = worker_hook
        self.metrics = get_registry() if metrics is None else metrics
        self._pool: ProcessPoolExecutor | None = None
        self._pool_given: RatingMatrix | None = None
        #: Times a broken pool was detected and respawned.
        self.crash_recoveries = 0
        #: Times a batch fell back to inline serial prediction.
        self.inline_fallbacks = 0

    # ------------------------------------------------------------------
    def _ensure_pool(self, given: RatingMatrix) -> ProcessPoolExecutor:
        """(Re)create the pool when the given matrix changes.

        Workers hold the given matrix in their globals, so a new active
        population requires a fresh pool.  The common serving pattern —
        many requests against one population — pays the fork cost once.
        """
        if self._pool is not None and self._pool_given is given:
            return self._pool
        self.close()
        # Build the online kernel (neighbour cache + fusion globals)
        # *before* forking so every worker inherits the warm structures
        # copy-on-write instead of each rebuilding them on first request.
        warm = getattr(self.model, "warm_online", None)
        if callable(warm):
            warm()
        ctx = mp.get_context(self.start_method)
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.model, given, self.worker_hook, self.metrics.enabled),
        )
        self._pool_given = given
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool without waiting on it."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_given = None

    def predict_many(
        self,
        given: RatingMatrix,
        users: np.ndarray | Sequence[int],
        items: np.ndarray | Sequence[int],
    ) -> np.ndarray:
        """Parallel equivalent of ``model.predict_many`` (bit-identical).

        Requests are sharded by active user with LPT balancing on
        per-user request counts; each worker prediction batch keeps all
        of a user's requests together to preserve the model's per-user
        caching.  Worker crashes are recovered transparently (pool
        respawn, then inline fallback); results are complete either
        way.
        """
        users = np.asarray(users, dtype=np.intp)
        items = np.asarray(items, dtype=np.intp)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be parallel 1-D arrays")
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        if self.n_workers == 1:
            return self.model.predict_many(given, users, items)

        unique_users, inverse = np.unique(users, return_inverse=True)
        counts = np.bincount(inverse, minlength=unique_users.size)
        parts = greedy_partition(counts, min(self.n_workers, unique_users.size))

        tasks: list[tuple[np.ndarray, np.ndarray]] = []
        request_slices: list[np.ndarray] = []
        for part in parts:
            if part.size == 0:
                continue
            sel = np.isin(inverse, part)
            idx = np.nonzero(sel)[0]
            tasks.append((users[idx], items[idx]))
            request_slices.append(idx)

        batch_start = time.perf_counter() if self.metrics.enabled else 0.0
        results = self._run_tasks(given, tasks)
        out = np.empty(users.shape, dtype=np.float64)
        for idx, chunk in zip(request_slices, results):
            out[idx] = chunk
        if self.metrics.enabled:
            self.metrics.histogram("parallel.batch.latency").observe(
                time.perf_counter() - batch_start
            )
        return out

    def _run_tasks(
        self,
        given: RatingMatrix,
        tasks: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[np.ndarray]:
        """Run the task list, surviving worker crashes.

        A ``BrokenProcessPool`` means at least one worker died holding
        part of the batch; the safe recovery for a pure function is to
        discard the pool and re-run everything.  Bounded respawns, then
        inline execution — the request is answered regardless.

        Metric deltas piggyback on task results, so an attempt that
        crashes contributes *nothing* (its partial results are thrown
        away un-merged) and the attempt that completes contributes
        exactly one delta per task — crashes cannot lose or
        double-count samples.
        """
        reg = self.metrics
        for _attempt in range(self.max_pool_retries + 1):
            pool = self._ensure_pool(given)
            submitted_at = time.time() if reg.enabled else None
            payload = [(users, items, submitted_at) for users, items in tasks]
            try:
                fetched = list(pool.map(_predict_chunk, payload))
            except BrokenProcessPool:
                self.crash_recoveries += 1
                if reg.enabled:
                    reg.counter("parallel.pool.respawn").inc()
                self._discard_pool()
                continue
            for _preds, delta in fetched:
                if delta is not None:
                    reg.merge(delta)
            return [preds for preds, _delta in fetched]
        self.inline_fallbacks += 1
        if reg.enabled:
            reg.counter("parallel.inline.fallback").inc()
        results = []
        for users, items in tasks:
            start = time.perf_counter()
            results.append(self.model.predict_many(given, users, items))
            if reg.enabled:
                reg.histogram("parallel.task.latency").observe(
                    time.perf_counter() - start
                )
                reg.counter("parallel.task.requests").inc(int(users.size))
        return results

    def stats(self) -> dict[str, int]:
        """Crash/fallback counters for health reporting."""
        return {
            "crash_recoveries": self.crash_recoveries,
            "inline_fallbacks": self.inline_fallbacks,
            "pool_alive": int(self._pool is not None),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_given = None

    def __enter__(self) -> "ParallelPredictor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
