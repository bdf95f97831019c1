"""Concurrent micro-batched serving: coalesce, sort, dispatch.

CFSF's local M×K formulation (PAPER.md §IV) makes per-request work
small — small enough that per-*call* overhead (validation, cache
probes, kernel dispatch) dominates a single-request path.  The
standard scaling move for memory-based CF is request-level concurrency
over shared read-only state (cf. Lucene-backed memory CF); this module
adds the missing front:

* :class:`MicroBatcher` accepts requests from any number of caller
  threads and dispatches them as coalesced batches — **user-sorted**,
  so :meth:`CFSF.predict_many` hits its sorted fast path and
  same-user requests share one prepared state — through the owning
  :class:`~repro.serving.service.PredictionService`.  It holds
  requests back only while one of its batches is in flight (Nagle's
  rule, RFC 896): an idle batcher dispatches whatever is queued at
  once, and during a dispatch later requests wait at most
  ``max_wait_us`` microseconds (or until ``max_batch_size``
  accumulate) for companions.
* Each dispatch borrows a private kernel clone from a
  :class:`~repro.serving.pool.KernelPool`, so concurrent dispatches
  never share the non-re-entrant fusion scratch buffers.
* **Admission control**: the queue is bounded (``max_queue``).  When
  full, policy ``"raise"`` rejects with the typed
  :class:`~repro.serving.errors.OverloadedError`; policy ``"shed"``
  answers immediately through the service's existing fallback chain
  (a zero-deadline dispatch short-circuits to the cheap user-mean
  stage, flagged ``deadline_deferred``) — every request still gets an
  answer, it just skips the queue *and* the expensive primary stage.

Observability (ambient or injected registry):

=================================  ====================================
``serving.batcher.queue_depth``    gauge — pending requests
``serving.batcher.batch_size``     histogram — requests per dispatch
``serving.batcher.coalesce_wait``  histogram — submit→dispatch seconds
``serving.batcher.dispatches``     counter — batches dispatched
``serving.batcher.overloaded``     counter — admissions refused/shed
``serving.pool.checkout``          histogram — kernel checkout wait
``serving.pool.in_use``            gauge — kernels checked out
=================================  ====================================

Each :meth:`MicroBatcher.submit` returns one :class:`Reply`, which is
also the request's queue entry: one small slotted object per request,
where a ``concurrent.futures.Future`` would allocate a condition
variable, its lock's bound methods, a waiter deque and a callback
list.  Those allocations set off the full garbage collections that
dominated the front's tail latency (``docs/performance.md``).  A
reply keeps the part of the ``Future`` API that callers use —
``done()``, ``result(timeout)``, ``exception(timeout)`` and
``add_done_callback(fn)`` — and raises
``concurrent.futures.TimeoutError`` on timeout (a class of its own on
Python 3.10, the built-in ``TimeoutError`` from 3.11).  It has no
``cancel()``: a queued request is always dispatched and answered.

A dispatch answers its batch in readiness order, in at most three
waves.  The service hands back answers as they become final through
``predict_many``'s ``on_final`` hook, and the dispatch resolves those
replies at once: first the request-cache hits and out-of-range
requests, before the fallback chain runs, so a cached answer does not
wait out the kernel pass over the batch's misses; then the misses of
users whose per-user state is warm, fused in a pass of their own, so
they do not wait out another user's fold-in.  The rest are resolved
when ``predict_many`` returns.  A batch the cache answers whole, or
one whose misses are all warm or all cold, takes fewer waves.  An
exception out of the service reaches only the replies not yet
answered.  Each wave builds its answers in one pass: one ``tolist()``
per result field, queue waits from one vectorised subtraction off the
dispatch's clock reading, the replies picked in the batch's
user-sorted order by one ``operator.itemgetter``, and each
:class:`BatchedPrediction` (a named tuple) made by
``map(BatchedPrediction._make, zip(...))``.  When the
request cache answers the whole batch, that pass and the cache probe
are most of what a request costs (``docs/performance.md``, "Answer
path").

``servebench/`` measures the result end to end (its ``hot_repeat``
workload is this front under load), and
``test_concurrent_submitters_all_get_right_answers`` checks that
batched answers equal the serial path's.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.obs import get_registry
from repro.serving.errors import OverloadedError
from repro.serving.pool import KernelPool
from repro.serving.service import PredictionService, ServingResult
from repro.utils.validation import check_positive_int

__all__ = ["BatchedPrediction", "MicroBatcher", "Reply"]

#: Batch-size histogram buckets (requests per dispatch, powers of two).
#: The default obs buckets are latencies — meaningless for counts.
_BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Callback failures are logged where ``Future`` logs them.
_CALLBACK_LOG = logging.getLogger("concurrent.futures")


class BatchedPrediction(NamedTuple):
    """One request's answer, with its serving provenance.

    An immutable named tuple: fields read by name or position, and the
    batcher builds a batch's answers in one ``map(_make, zip(...))``
    pass rather than one keyword call per request.  Being a tuple, an
    answer is iterable and compares equal to a plain tuple of the same
    values.

    >>> answer = BatchedPrediction(3.5, 0, "CFSF", False, 0.0)
    >>> answer.stage, answer == (3.5, 0, "CFSF", False, 0.0)
    ('CFSF', True)
    """

    value: float
    fallback_level: int
    stage: str
    degraded: bool
    queue_wait: float  # seconds from submit to dispatch start


class Reply:
    """One request's pending answer, and its entry in the batcher queue.

    Resolves to a :class:`BatchedPrediction`, or to the exception the
    dispatch raised.  Supports the ``concurrent.futures.Future`` calls
    ``done``, ``result``, ``exception`` and ``add_done_callback``;
    there is no ``cancel``.  The outcome is written once, under the
    owning batcher's reply lock; a ``threading.Event`` is made only
    for a caller that has to block on an unanswered reply.
    """

    __slots__ = (
        "given", "user", "item", "enqueued_at", "_lock", "_outcome", "_event", "_callbacks"
    )

    def __init__(
        self,
        given: RatingMatrix,
        user: int,
        item: int,
        enqueued_at: float,
        lock: threading.Lock,
    ) -> None:
        self.given = given
        self.user = user
        self.item = item
        self.enqueued_at = enqueued_at
        self._lock = lock
        # BatchedPrediction, or the BaseException the dispatch raised.
        self._outcome: BatchedPrediction | BaseException | None = None
        self._event: threading.Event | None = None
        self._callbacks: list[Callable[[Reply], object]] | None = None

    def done(self) -> bool:
        """Whether the answer (or the dispatch's exception) is in."""
        return self._outcome is not None

    def _wait(self, timeout: float | None) -> BatchedPrediction | BaseException:
        if self._outcome is None:
            with self._lock:
                if self._outcome is None:
                    if self._event is None:
                        self._event = threading.Event()
                    event = self._event
                else:
                    event = None
            if event is not None and not event.wait(timeout):
                raise FuturesTimeoutError()
        return self._outcome

    def result(self, timeout: float | None = None) -> BatchedPrediction:
        """The answer; waits up to *timeout* seconds (``None``: forever).

        Re-raises the dispatch's exception, and raises
        ``concurrent.futures.TimeoutError`` when the wait runs out.
        """
        outcome = self._wait(timeout)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The dispatch's exception, or ``None`` if it answered; waits
        and times out as :meth:`result` does."""
        outcome = self._wait(timeout)
        return outcome if isinstance(outcome, BaseException) else None

    def add_done_callback(self, fn: Callable[["Reply"], object]) -> None:
        """Call ``fn(reply)`` once answered, at once if it already is.

        Callbacks run on the thread that answers the reply.  One that
        raises is logged to the ``concurrent.futures`` logger and stops
        neither the other callbacks nor the dispatch.
        """
        if self._outcome is None:
            with self._lock:
                if self._outcome is None:
                    if self._callbacks is None:
                        self._callbacks = [fn]
                    else:
                        self._callbacks.append(fn)
                    return
        self._call(fn)

    def _call(self, fn: Callable[["Reply"], object]) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - a caller's hook must not stop the dispatch
            _CALLBACK_LOG.exception("exception calling callback for %r", self)

    def _notify(self) -> None:
        """Wake the waiter and run the callbacks (outcome already set)."""
        if self._event is not None:
            self._event.set()
        if self._callbacks is not None:
            for fn in self._callbacks:
                self._call(fn)


def _pick(seq: Sequence[Reply], idx: list[int]) -> Sequence[Reply]:
    """The items of *seq* at *idx*, in that order, as a sequence."""
    # (itemgetter of a single index returns the item, not a tuple.)
    return itemgetter(*idx)(seq) if len(idx) > 1 else [seq[i] for i in idx]


def _unanswered(n: int, answered: list[int]) -> list[int]:
    """The positions in ``range(n)`` not in *answered*, ascending."""
    return sorted(set(range(n)).difference(answered))


def _answers(
    result: ServingResult, waits: np.ndarray, rows: np.ndarray | slice = slice(None)
) -> list[BatchedPrediction]:
    """The answers at *rows* of *result* and its parallel queue *waits*.

    One ``tolist()`` per field and one C-level pass to build the
    answers: per-request array indexing (or the ``degraded`` property,
    which ORs four arrays) and keyword construction cost more than the
    answer itself.
    """
    levels = result.fallback_level[rows].tolist()
    return list(map(BatchedPrediction._make, zip(
        result.predictions[rows].tolist(),
        levels,
        map(result.stage_names.__getitem__, levels),
        result.degraded[rows].tolist(),
        waits[rows].tolist(),
    )))


def _resolve(lock: threading.Lock, replies: Sequence[Reply], outcomes: list) -> None:
    """Set each reply's outcome under *lock*, then notify outside it."""
    watched = []
    with lock:
        for reply, outcome in zip(replies, outcomes):
            reply._outcome = outcome
            if reply._event is not None or reply._callbacks is not None:
                watched.append(reply)
    for reply in watched:
        reply._notify()


class MicroBatcher:
    """Coalesce concurrent requests into sorted batches over a kernel pool.

    Parameters
    ----------
    service:
        The :class:`~repro.serving.service.PredictionService` to
        dispatch through (lenient mode recommended: a strict service
        raising on one bad request fails its whole coalesced batch).
    max_batch_size:
        Most requests dispatched per batch.
    max_wait_us:
        Longest a request waits (microseconds) for companions while
        another batch of this batcher is in flight; with nothing in
        flight, queued requests dispatch at once.  The knob trades
        tail latency for coalescing under load: 0 dispatches
        immediately (batching only what is already queued), larger
        values let a saturated queue build bigger batches.
    max_queue:
        Admission bound on pending requests (see *overload_policy*).
    workers:
        Dispatch threads, and the default :class:`KernelPool` size.
        More workers than CPU cores rarely helps: the fusion kernels
        are NumPy-bound and mostly hold the GIL only briefly.
    pool:
        An explicit :class:`~repro.serving.pool.KernelPool` to share
        between batchers; built automatically from ``service.model``'s
        kernel when omitted.  Models without a fusion kernel (plain
        baselines) fall back to serialised dispatch under one mutex —
        correct, just not concurrent.
    overload_policy:
        ``"raise"`` (default) or ``"shed"`` — see the module docstring.
    clock:
        Injectable time source for queue-wait bookkeeping.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` (defaults to ambient).

    Examples
    --------
    >>> from repro.core import CFSF
    >>> from repro.data import make_movielens_like, make_split
    >>> from repro.serving import PredictionService
    >>> split = make_split(make_movielens_like(seed=0).ratings,
    ...                    n_train_users=300, given_n=10)
    >>> service = PredictionService(CFSF().fit(split.train))
    >>> users, items, _ = split.targets_arrays()
    >>> with MicroBatcher(service, workers=2) as batcher:
    ...     value = batcher.predict(split.given, int(users[0]), int(items[0]))
    >>> abs(value - service.predict(split.given, int(users[0]), int(items[0]))) < 1e-12
    True
    """

    def __init__(
        self,
        service: PredictionService,
        *,
        max_batch_size: int = 64,
        max_wait_us: float = 500.0,
        max_queue: int = 1024,
        workers: int = 2,
        pool: KernelPool | None = None,
        overload_policy: str = "raise",
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        if overload_policy not in ("raise", "shed"):
            raise ValueError(
                f"overload_policy must be 'raise' or 'shed', got {overload_policy!r}"
            )
        self.service = service
        self.max_batch_size = check_positive_int(max_batch_size, "max_batch_size")
        if max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {max_wait_us}")
        self.max_wait = float(max_wait_us) * 1e-6
        self.max_queue = check_positive_int(max_queue, "max_queue")
        self.overload_policy = overload_policy
        self._clock = clock
        self.metrics = get_registry() if metrics is None else metrics

        model = service.model
        if pool is not None:
            self._pool = pool
        else:
            kernel = getattr(model, "kernel", None)
            can_borrow = hasattr(model, "borrowed_kernel")
            self._pool = (
                KernelPool(kernel, max_workers=workers, metrics=self.metrics)
                if kernel is not None and can_borrow
                else None
            )
        # Serialised-dispatch fallback for models with no kernel pool.
        self._serial_mutex = threading.Lock()

        self._cond = threading.Condition()
        self._queue: deque[Reply] = deque()
        self._reply_lock = threading.Lock()  # guards every reply's outcome
        self._closed = False
        self._in_flight = 0  # batches popped and not yet answered
        self.dispatched_batches = 0
        self.dispatched_requests = 0
        self.shed_total = 0
        self.rejected_total = 0
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"microbatch-{i}", daemon=True
            )
            for i in range(check_positive_int(workers, "workers"))
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, given: RatingMatrix, user: int, item: int) -> Reply:
        """Enqueue one request; the :class:`Reply` resolves to a
        :class:`BatchedPrediction`.

        The reply supports ``done()``, ``result(timeout=None)``,
        ``exception(timeout=None)`` and ``add_done_callback(fn)`` as a
        ``concurrent.futures.Future`` does, and raises
        ``concurrent.futures.TimeoutError`` when a wait runs out.  It
        has no ``cancel()``: every queued request is answered.

        Never blocks.  On a full queue the overload policy decides:
        ``"raise"`` fails fast with :class:`OverloadedError`,
        ``"shed"`` returns a reply already answered from the fallback
        chain (degraded, but answered).
        """
        user, item = int(user), int(item)
        reg = self.metrics
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            depth = len(self._queue)
            if depth >= self.max_queue:
                overloaded = True
            else:
                overloaded = False
                reply = Reply(given, user, item, self._clock(), self._reply_lock)
                self._queue.append(reply)
                self._cond.notify()
        # The queue-depth gauge is refreshed at dispatch (and below on
        # overload) rather than per submit: a per-submit registry write
        # is measurable at micro-batch request rates.
        if overloaded:
            if reg.enabled:
                reg.gauge("serving.batcher.queue_depth").set(depth)
                reg.counter(
                    "serving.batcher.overloaded", policy=self.overload_policy
                ).inc()
            if self.overload_policy == "raise":
                with self._cond:
                    self.rejected_total += 1
                raise OverloadedError(depth, self.max_queue)
            # Shed: a zero-deadline dispatch walks the existing
            # fallback machinery but defers every block to the cheap
            # stage — bounded work, flagged degraded.
            with self._cond:
                self.shed_total += 1
            result = self.service.predict_many(
                given, np.array([user]), np.array([item]), deadline=0.0
            )
            level = int(result.fallback_level[0])
            # Not yet shared with any other thread: no lock, no waiters.
            reply = Reply(given, user, item, self._clock(), self._reply_lock)
            reply._outcome = BatchedPrediction(
                value=float(result.predictions[0]),
                fallback_level=level,
                stage=result.stage_names[level],
                degraded=True,
                queue_wait=0.0,
            )
        return reply

    def predict(
        self, given: RatingMatrix, user: int, item: int, *, timeout: float | None = None
    ) -> float:
        """Blocking convenience wrapper: submit and wait for the value."""
        return self.submit(given, user, item).result(timeout=timeout).value

    # ------------------------------------------------------------------
    # Dispatch workers
    # ------------------------------------------------------------------
    def _collect(self) -> list[Reply] | None:
        """Block until a batch is ready; ``None`` means shut down.

        A batch is ready at once when nothing is in flight; otherwise
        when it is full, its head has waited ``max_wait``, or the
        batcher is closing.
        """
        with self._cond:
            while True:
                if not self._queue:
                    if self._closed:
                        return None
                    self._cond.wait()
                    continue
                head = self._queue[0]
                now = self._clock()
                deadline = head.enqueued_at + self.max_wait
                if (
                    not self._in_flight
                    or len(self._queue) >= self.max_batch_size
                    or self._closed
                    or now >= deadline
                ):
                    self._in_flight += 1
                    return self._pop_batch_locked()
                # Condition.wait runs on real time; self._clock only
                # stamps bookkeeping.  An injected manual clock makes
                # waits degenerate to immediate dispatch, which is the
                # deterministic behaviour tests want.
                self._cond.wait(timeout=max(deadline - now, 0.0))

    def _pop_batch_locked(self) -> list[Reply]:
        """Pop a same-given run off the queue head (caller holds lock)."""
        first = self._queue.popleft()
        batch = [first]
        while (
            self._queue
            and len(batch) < self.max_batch_size
            and self._queue[0].given is first.given
        ):
            batch.append(self._queue.popleft())
        if self._queue:
            # Leftovers (different given matrix, or overflow): another
            # worker can start on them immediately.
            self._cond.notify()
        return batch

    @contextmanager
    def _dispatch_slot(self) -> Iterator[None]:
        pool = self._pool
        if pool is None:
            with self._serial_mutex:
                yield
        else:
            with pool.checkout() as kernel, self.service.model.borrowed_kernel(kernel):
                yield

    def _dispatch(self, batch: list[Reply]) -> None:
        t_dispatch = self._clock()
        n = len(batch)
        users = np.fromiter(map(attrgetter("user"), batch), dtype=np.intp, count=n)
        items = np.fromiter(map(attrgetter("item"), batch), dtype=np.intp, count=n)
        enqueued = np.fromiter(map(attrgetter("enqueued_at"), batch), dtype=np.float64, count=n)
        waits = np.maximum(t_dispatch - enqueued, 0.0)
        order = np.argsort(users, kind="stable")
        given = batch[0].given
        reg = self.metrics
        if reg.enabled:
            reg.gauge("serving.batcher.queue_depth").set(len(self._queue))
            reg.histogram(
                "serving.batcher.batch_size", buckets=_BATCH_SIZE_BUCKETS
            ).observe(n)
            coalesce = reg.histogram("serving.batcher.coalesce_wait")
            for wait in waits.tolist():
                coalesce.observe(wait)
        # Replies and queue waits in the user-sorted order the service
        # answers in.
        replies = _pick(batch, order.tolist())
        waits = waits[order]
        lock = self._reply_lock
        answered: list[int] = []  # positions the early waves answered

        def answer_final(rows: np.ndarray, early: ServingResult) -> None:
            idx = rows.tolist()
            answers = _answers(early, waits[rows])
            answered.extend(idx)
            _resolve(lock, _pick(replies, idx), answers)

        try:
            with self._dispatch_slot():
                result = self.service.predict_many(
                    given, users[order], items[order], on_final=answer_final
                )
        except BaseException as exc:  # noqa: BLE001 - fault must reach every caller
            if answered:
                replies = _pick(replies, _unanswered(n, answered))
            _resolve(lock, replies, [exc] * len(replies))
            return
        with self._cond:
            self.dispatched_batches += 1
            self.dispatched_requests += n
        if reg.enabled:
            reg.counter("serving.batcher.dispatches").inc()
        if not answered:
            _resolve(lock, replies, _answers(result, waits))
        else:
            rest = _unanswered(n, answered)
            _resolve(lock, _pick(replies, rest), _answers(result, waits, np.asarray(rest)))

    def _worker(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            try:
                self._dispatch(batch)
            finally:
                with self._cond:
                    self._in_flight -= 1
                    # A dispatch that raises ends this thread, so wake a
                    # worker holding back for companions to take over.
                    self._cond.notify()

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, *, timeout: float | None = None) -> None:
        """Drain the queue, stop the workers, reject further submits."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in self._workers:
            thread.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        """Requests currently pending."""
        return len(self._queue)

    def stats(self) -> dict:
        """Operational snapshot (batches, coalescing, pool occupancy)."""
        out = {
            "queue_depth": len(self._queue),
            "max_queue": self.max_queue,
            "max_batch_size": self.max_batch_size,
            "max_wait_us": self.max_wait * 1e6,
            "workers": len(self._workers),
            "dispatched_batches": self.dispatched_batches,
            "dispatched_requests": self.dispatched_requests,
            "mean_batch_size": (
                self.dispatched_requests / self.dispatched_batches
                if self.dispatched_batches
                else 0.0
            ),
            "rejected_total": self.rejected_total,
            "shed_total": self.shed_total,
            "closed": self._closed,
        }
        if self._pool is not None:
            out["pool"] = self._pool.stats()
        return out
