"""MicroBatcher: correctness, coalescing, admission control, lifecycle.

The batcher must be an *invisible* optimisation: every answer it
returns has to match what a direct ``PredictionService`` call would
have said, whatever the interleaving.  On top of that these tests pin
the contracts that make it operable — an idle batcher dispatches at
once, coalescing while a batch is in flight, the two overload
policies, and a clean drain on close.
"""

from __future__ import annotations

import concurrent.futures
import copy
import gc
import logging
import sys
import threading
import time
from functools import partial

import hypothesis
import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serving import (
    KernelPool,
    MicroBatcher,
    OverloadedError,
    PredictionService,
)
from repro.serving.batcher import BatchedPrediction
from repro.serving.faults import ManualClock, SlowRecommender, poison_given


@pytest.fixture(scope="module")
def service(cfsf_small):
    svc = PredictionService(cfsf_small, request_cache_size=0)
    svc.model.warm_online()
    return svc


@pytest.fixture(scope="module")
def stream(split_small):
    users, items, _ = split_small.targets_arrays()
    n = min(96, users.size)
    return users[:n], items[:n]


def test_batched_answers_match_direct_service(service, split_small, stream):
    users, items = stream
    direct = service.predict_many(split_small.given, users, items)
    with MicroBatcher(service, workers=2, max_wait_us=200.0) as batcher:
        futures = [
            batcher.submit(split_small.given, int(u), int(i))
            for u, i in zip(users, items)
        ]
        got = np.array([f.result(timeout=30).value for f in futures])
    assert np.array_equal(got, direct.predictions)


def test_result_carries_serving_provenance(service, split_small, stream):
    users, items = stream
    with MicroBatcher(service, workers=1) as batcher:
        result = batcher.submit(split_small.given, int(users[0]), int(items[0])).result(
            timeout=30
        )
    assert result.fallback_level == 0
    assert result.stage == "CFSF"
    assert not result.degraded
    assert result.queue_wait >= 0.0


def test_concurrent_submitters_all_get_right_answers(service, split_small, stream):
    users, items = stream
    direct = service.predict_many(split_small.given, users, items).predictions
    n_threads = 8
    got = np.empty(users.size, dtype=np.float64)
    barrier = threading.Barrier(n_threads)
    per = users.size // n_threads

    def client(t):
        lo = t * per
        barrier.wait()
        futures = [
            (idx, service_batcher.submit(split_small.given, int(users[idx]), int(items[idx])))
            for idx in range(lo, lo + per)
        ]
        for idx, future in futures:
            got[idx] = future.result(timeout=30).value

    with MicroBatcher(service, workers=2, max_wait_us=500.0) as service_batcher:
        threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        stats = service_batcher.stats()
    assert np.array_equal(got[: per * n_threads], direct[: per * n_threads])
    assert stats["dispatched_requests"] == per * n_threads


@pytest.mark.stress
def test_in_flight_count_survives_concurrent_dispatch(service, split_small, stream):
    """More workers than cores, thread switches every 10 µs: once every
    answer is in, no batch may still count as in flight, or a lone
    request would sit out the 2 s max_wait."""
    users, items = stream
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MicroBatcher(
            service, workers=4, max_batch_size=n_threads, max_wait_us=2_000_000.0
        ) as batcher:

            def client(t):
                barrier.wait()
                for idx in range(t, users.size, n_threads):
                    batcher.submit(
                        split_small.given, int(users[idx]), int(items[idx])
                    ).result(timeout=30)

            threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert batcher.stats()["dispatched_requests"] == users.size
            started = time.monotonic()
            batcher.submit(split_small.given, int(users[0]), int(items[0])).result(timeout=30)
            assert time.monotonic() - started < 0.5
    finally:
        sys.setswitchinterval(old_interval)


def _stalled_batcher(service, workers=1, **kwargs):
    """A batcher whose dispatches park on an empty one-kernel pool.

    Checking out the only kernel ourselves means every dispatch blocks
    in ``pool.checkout()`` — a batch held in flight on demand, for
    deterministic back-pressure.  Returns (batcher, release_callable).
    """
    pool = KernelPool(service.model.kernel, max_workers=1)
    hold = pool.checkout()
    hold.__enter__()
    batcher = MicroBatcher(service, workers=workers, pool=pool, **kwargs)
    return batcher, lambda: hold.__exit__(None, None, None)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


def test_idle_batcher_dispatches_a_lone_request_at_once(service, split_small, stream):
    """max_wait only holds requests back while a batch is in flight."""
    users, items = stream
    with MicroBatcher(service, workers=1, max_wait_us=2_000_000.0) as batcher:
        started = time.monotonic()
        batcher.submit(split_small.given, int(users[0]), int(items[0])).result(timeout=30)
        elapsed = time.monotonic() - started
    assert elapsed < 0.5


def test_coalesces_at_batch_size_threshold(service, split_small, stream):
    """While a batch is in flight, submits coalesce until max_batch_size."""
    users, items = stream
    batch = 8
    batcher, release = _stalled_batcher(
        service, workers=2, max_batch_size=batch, max_wait_us=2_000_000.0
    )
    try:
        first = batcher.submit(split_small.given, int(users[0]), int(items[0]))
        # The idle batcher pops the lone request at once; its dispatch
        # then parks on the pool, so one batch is in flight.
        assert _wait_until(lambda: batcher.queue_depth == 0)
        futures = [
            batcher.submit(split_small.given, int(users[i]), int(items[i]))
            for i in range(1, batch)
        ]
        # The second worker is free but holds the short batch back.
        time.sleep(0.05)
        assert batcher.queue_depth == batch - 1
        futures.append(
            batcher.submit(split_small.given, int(users[batch]), int(items[batch]))
        )
        # A full batch goes without waiting out max_wait.
        assert _wait_until(lambda: batcher.queue_depth == 0)
    finally:
        release()
    for future in [first, *futures]:
        future.result(timeout=30)
    stats = batcher.stats()
    batcher.close()
    assert stats["dispatched_batches"] == 2
    assert stats["dispatched_requests"] == batch + 1


def test_overload_policy_raise(service, split_small, stream):
    users, items = stream
    batcher, release = _stalled_batcher(
        service, max_queue=2, max_wait_us=0.0, overload_policy="raise"
    )
    try:
        batcher.submit(split_small.given, int(users[0]), int(items[0]))
        # The worker pops the head then parks on the pool; wait for it
        # so the next two submits deterministically fill the queue.
        assert _wait_until(lambda: batcher.queue_depth == 0)
        batcher.submit(split_small.given, int(users[1]), int(items[1]))
        batcher.submit(split_small.given, int(users[2]), int(items[2]))
        with pytest.raises(OverloadedError) as excinfo:
            batcher.submit(split_small.given, int(users[3]), int(items[3]))
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.max_queue == 2
        assert batcher.stats()["rejected_total"] == 1
    finally:
        release()
        batcher.close()


def test_overload_policy_shed_answers_degraded(service, split_small, stream):
    users, items = stream
    batcher, release = _stalled_batcher(
        service, max_queue=1, max_wait_us=0.0, overload_policy="shed"
    )
    try:
        batcher.submit(split_small.given, int(users[0]), int(items[0]))
        assert _wait_until(lambda: batcher.queue_depth == 0)
        batcher.submit(split_small.given, int(users[1]), int(items[1]))
        shed = batcher.submit(split_small.given, int(users[2]), int(items[2]))
        # Shed replies resolve immediately (no queue slot, no kernel):
        # the answer comes from the cheap fallback stage, flagged so.
        assert shed.done()
        result = shed.result(timeout=0)
        assert result.degraded
        assert result.fallback_level > 0
        assert np.isfinite(result.value)
        assert batcher.stats()["shed_total"] == 1
    finally:
        release()
        batcher.close()


def test_close_drains_pending_requests(service, split_small, stream):
    users, items = stream
    batcher, release = _stalled_batcher(
        service, workers=2, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        head = batcher.submit(split_small.given, int(users[0]), int(items[0]))
        assert _wait_until(lambda: batcher.queue_depth == 0)  # in flight
        futures = [
            batcher.submit(split_small.given, int(u), int(i))
            for u, i in zip(users[1:17], items[1:17])
        ]
        # A batch is in flight, max_wait is 2s and the batch is far
        # from full: nothing would dispatch yet.
        time.sleep(0.05)
        assert batcher.queue_depth == 16
        # close() must flush the queue, not abandon it.
        closer = threading.Thread(target=batcher.close, kwargs={"timeout": 30})
        closer.start()
        assert _wait_until(lambda: batcher.queue_depth == 0)
    finally:
        release()
    closer.join(timeout=30)
    assert not closer.is_alive()
    futures.append(head)
    assert all(future.done() for future in futures)
    assert all(np.isfinite(future.result().value) for future in futures)


def test_submit_after_close_raises(service, split_small, stream):
    users, items = stream
    batcher = MicroBatcher(service, workers=1)
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(split_small.given, int(users[0]), int(items[0]))


def test_dispatch_failure_reaches_every_caller(service, split_small, stream):
    users, items = stream

    class _BrokenService:
        model = service.model

        def predict_many(self, given, users, items, *, on_final=None):
            raise RuntimeError("induced dispatch fault")

    batcher = MicroBatcher(_BrokenService(), workers=1, max_wait_us=2_000_000.0)
    try:
        future = batcher.submit(split_small.given, int(users[0]), int(items[0]))
        with pytest.raises(RuntimeError, match="induced dispatch fault"):
            future.result(timeout=30)
        assert isinstance(future.exception(timeout=30), RuntimeError)
        # The failed batch no longer counts as in flight: with a 2 s
        # max_wait, a later lone submit still dispatches at once.
        started = time.monotonic()
        later = batcher.submit(split_small.given, int(users[1]), int(items[1]))
        with pytest.raises(RuntimeError, match="induced dispatch fault"):
            later.result(timeout=30)
        assert time.monotonic() - started < 0.5
    finally:
        batcher.close()


def test_rejects_bad_knobs(service):
    with pytest.raises(ValueError, match="overload_policy"):
        MicroBatcher(service, overload_policy="drop")
    with pytest.raises(ValueError, match="max_wait_us"):
        MicroBatcher(service, max_wait_us=-1.0)


# ----------------------------------------------------------------------
# The reply: the Future calls callers use, and what a submit allocates
# ----------------------------------------------------------------------
def _held_in_flight(batcher, split_small, stream):
    """Submit one request and wait until its dispatch is parked."""
    users, items = stream
    head = batcher.submit(split_small.given, int(users[0]), int(items[0]))
    assert _wait_until(lambda: batcher.queue_depth == 0)
    return head


def test_reply_result_and_exception_wait_and_time_out(service, split_small, stream):
    users, items = stream
    batcher, release = _stalled_batcher(service, max_wait_us=0.0)
    try:
        _held_in_flight(batcher, split_small, stream)
        reply = batcher.submit(split_small.given, int(users[1]), int(items[1]))
        assert not reply.done()
        # The class a Future raises, distinct from the built-in on 3.10.
        with pytest.raises(concurrent.futures.TimeoutError):
            reply.result(timeout=0.01)
        with pytest.raises(concurrent.futures.TimeoutError):
            reply.exception(timeout=0)
    finally:
        release()
    answer = reply.result(timeout=30)
    assert isinstance(answer, BatchedPrediction)
    assert reply.done()
    assert reply.result() is answer
    assert reply.exception() is None
    assert reply.exception(timeout=0) is None
    batcher.close()


def test_reply_callbacks_before_and_after_answer(service, split_small, stream):
    users, items = stream
    batcher, release = _stalled_batcher(service, max_wait_us=0.0)
    calls = []

    def record(tag):
        return lambda reply: calls.append((tag, reply, threading.current_thread().name))

    try:
        _held_in_flight(batcher, split_small, stream)
        reply = batcher.submit(split_small.given, int(users[1]), int(items[1]))
        reply.add_done_callback(record("before-1"))
        reply.add_done_callback(record("before-2"))
        assert calls == []
    finally:
        release()
    reply.result(timeout=30)
    assert _wait_until(lambda: len(calls) == 2)
    assert [tag for tag, _, _ in calls] == ["before-1", "before-2"]
    assert all(got is reply for _, got, _ in calls)
    assert {thread for _, _, thread in calls} == {"microbatch-0"}
    # Added once answered: runs at once, on the caller's thread.
    reply.add_done_callback(record("after"))
    assert calls[-1] == ("after", reply, threading.current_thread().name)
    batcher.close()


def test_blocked_waiter_is_woken_by_the_dispatch(service, split_small, stream):
    users, items = stream
    batcher, release = _stalled_batcher(service, max_wait_us=0.0)
    got = []
    try:
        _held_in_flight(batcher, split_small, stream)
        reply = batcher.submit(split_small.given, int(users[1]), int(items[1]))
        waiter = threading.Thread(target=lambda: got.append(reply.result(timeout=30)))
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive() and not got
    finally:
        release()
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert got == [reply.result()]
    assert np.isfinite(got[0].value)
    batcher.close()


def test_raising_callback_spares_the_batch_and_the_worker(
    service, split_small, stream, caplog
):
    """A done-callback that raises is logged; the rest of its batch is
    still answered and the lone dispatch worker keeps serving."""
    users, items = stream
    batcher, release = _stalled_batcher(
        service, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        head = _held_in_flight(batcher, split_small, stream)
        replies = [
            batcher.submit(split_small.given, int(u), int(i))
            for u, i in zip(users[1:6], items[1:6])
        ]

        def boom(_reply):
            raise RuntimeError("callback fault")

        seen = []
        replies[2].add_done_callback(boom)
        replies[2].add_done_callback(seen.append)
        with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
            release()
            for reply in [head, *replies]:
                assert np.isfinite(reply.result(timeout=30).value)
            assert _wait_until(lambda: seen == [replies[2]])
        assert any(
            record.exc_info and "callback fault" in str(record.exc_info[1])
            for record in caplog.records
        )
        assert batcher.stats()["dispatched_batches"] == 2
        # The lone worker survived: a later request is answered.
        later = batcher.submit(split_small.given, int(users[6]), int(items[6]))
        assert np.isfinite(later.result(timeout=30).value)
    finally:
        batcher.close()


def test_mixed_fallback_levels_scatter_to_the_right_replies(service, split_small):
    """One unsorted batch holding primary, sanitised and invalid
    requests, and one single-request batch: every reply gets its own
    request's value, level, stage and degraded flag, as plain Python
    types, with a non-negative queue wait."""
    users, items, _ = split_small.targets_arrays()
    picks = np.unique(users, return_index=True)[1][:4]
    poisoned_user = int(users[picks[1]])
    given = poison_given(split_small.given, [(poisoned_user, 0, float("nan"))])
    # Unsorted, with two user ids and one item id out of range, and one
    # poisoned profile.
    req_users = np.array(
        [users[picks[3]], 10_000, poisoned_user, users[picks[0]], -1, users[picks[2]],
         users[picks[0]]]
    )
    req_items = np.array(
        [items[picks[3]], 0, items[picks[1]], items[picks[0]], 0, items[picks[2]],
         given.n_items + 5]
    )
    order = np.argsort(req_users, kind="stable")
    direct = service.predict_many(given, req_users[order], req_items[order])
    want = {}
    for pos, src in enumerate(order.tolist()):
        level = int(direct.fallback_level[pos])
        want[src] = (
            float(direct.predictions[pos]),
            level,
            direct.stage_names[level],
            bool(direct.degraded[pos]),
        )
    levels = {level for _, level, _, _ in want.values()}
    assert len(levels) > 1
    assert {flag for *_, flag in want.values()} == {True, False}
    assert want[2][1] == 0 and want[2][3]  # sanitised: primary, yet degraded
    assert want[6][1] > 0 and want[6][3]  # item out of range: a fallback answers

    batcher, release = _stalled_batcher(
        service, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        # Dispatched alone, and held in flight while the rest queue.
        head = batcher.submit(given, int(req_users[0]), int(req_items[0]))
        assert _wait_until(lambda: batcher.queue_depth == 0)
        replies = [batcher.submit(given, int(u), int(i)) for u, i in zip(req_users, req_items)]
    finally:
        release()
    for src, reply in [(0, head), *enumerate(replies)]:
        answer = reply.result(timeout=30)
        got = (answer.value, answer.fallback_level, answer.stage, answer.degraded)
        assert got == want[src]
        assert [type(field) for field in answer] == [float, int, str, bool, float]
        assert answer.queue_wait >= 0.0
    assert batcher.stats()["dispatched_batches"] == 2
    batcher.close()


# ----------------------------------------------------------------------
# Two waves: answers final before the chain runs are not held for it
# ----------------------------------------------------------------------
class _Abort(BaseException):
    """Not an ``Exception``: the fallback chain does not absorb it."""


def _parked_service(model, *, fault=None):
    """A cached service whose primary stage parks until released.

    Returns ``(service, entered, release)``.  Each call of the primary
    stage sets ``entered``, then waits for ``release`` (bounded, so a
    regression fails instead of hanging) and raises a popped *fault*,
    if any is left.
    """
    entered, release = threading.Event(), threading.Event()
    release.set()

    def park(_delay):
        entered.set()
        assert release.wait(timeout=30), "the parked stage was never released"
        if fault:
            raise fault.pop()

    stage = SlowRecommender(model, delay=0.0, sleep=park)
    return PredictionService(stage, request_cache_size=1024), entered, release


def _one_batch(batcher, given, head, requests, unstall, clock=None):
    """Dispatch *head* alone, then *requests* as one batch behind it.

    *batcher* must come from :func:`_stalled_batcher`; *unstall* is its
    release callable.  With a *clock*, each request is enqueued one
    millisecond after the previous one.
    """
    try:
        first = batcher.submit(given, *head)
        assert _wait_until(lambda: batcher.queue_depth == 0)
        replies = []
        for user, item in requests:
            if clock is not None:
                clock.advance(1e-3)
            replies.append(batcher.submit(given, user, item))
    finally:
        unstall()
    return first, replies


def _picks(split):
    """Two held-out pairs of each of four users, users ascending."""
    users, items, _ = split.targets_arrays()
    firsts = np.unique(users, return_index=True)[1][:4]
    return [(int(users[p + j]), int(items[p + j])) for p in firsts for j in (0, 1)]


def test_cache_hits_answer_before_the_kernel_pass(cfsf_small, split_small):
    """While the primary stage works on a batch's misses, its cache
    hits and out-of-range requests are already answered."""
    given = split_small.given
    pairs = _picks(split_small)
    cached, uncached = pairs[0::2], pairs[1::2]
    service, entered, release = _parked_service(cfsf_small)
    service.predict_many(given, *map(np.array, zip(*cached)))  # warm the cache
    entered.clear()
    release.clear()
    requests = [
        uncached[2], cached[1], (10_000, 0), uncached[0], cached[3],
        (cached[0][0], given.n_items + 5),
    ]
    early, late = [1, 2, 4, 5], [0, 3]
    batcher, unstall = _stalled_batcher(
        service, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        # An all-hit head batch: it never reaches the stage.
        head, replies = _one_batch(batcher, given, cached[0], requests, unstall)
        assert entered.wait(timeout=30)
        assert head.done()
        assert [replies[j].done() for j in early] == [True] * len(early)
        assert [replies[j].done() for j in late] == [False] * len(late)
        assert replies[1].result(timeout=0).stage == "CFSF"
        assert replies[2].result(timeout=0).stage == "global_mean"
        assert replies[5].result(timeout=0).degraded
    finally:
        release.set()
    users = np.array([user for user, _ in requests])
    items = np.array([item for _, item in requests])
    order = np.argsort(users, kind="stable")
    reference = PredictionService(cfsf_small, request_cache_size=0)
    direct = reference.predict_many(given, users[order], items[order])
    for pos, src in enumerate(order.tolist()):
        answer = replies[src].result(timeout=30)
        level = int(direct.fallback_level[pos])
        assert answer[:4] == (
            float(direct.predictions[pos]), level, direct.stage_names[level],
            bool(direct.degraded[pos]),
        )
    assert batcher.stats()["dispatched_batches"] == 2
    batcher.close()


def test_an_escaping_base_exception_reaches_only_unanswered_replies(
    cfsf_small, split_small
):
    """A ``BaseException`` out of the chain fails the replies still
    waiting for it; the answered ones keep their answers, and the lone
    worker keeps serving."""
    given = split_small.given
    pairs = _picks(split_small)
    cached, uncached = pairs[0::2], pairs[1::2]
    fault = []
    service, _, _ = _parked_service(cfsf_small, fault=fault)
    service.predict_many(given, *map(np.array, zip(*cached)))
    fault.append(_Abort("induced abort"))
    requests = [uncached[1], cached[2], (-1, 0), uncached[3]]
    batcher, unstall = _stalled_batcher(
        service, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        head, replies = _one_batch(batcher, given, cached[0], requests, unstall)
        for j in (0, 3):
            assert isinstance(replies[j].exception(timeout=30), _Abort)
            with pytest.raises(_Abort, match="induced abort"):
                replies[j].result()
        assert head.result(timeout=30).stage == "CFSF"
        assert replies[1].result(timeout=30).stage == "CFSF"
        assert replies[2].result(timeout=30).stage == "global_mean"
        assert not fault
        later = batcher.submit(given, *uncached[1])
        assert later.result(timeout=30).stage == "CFSF"
    finally:
        batcher.close()


# ----------------------------------------------------------------------
# Three waves: a warm miss does not wait out another user's fold-in
# ----------------------------------------------------------------------
def _cold_model(model):
    """A private copy of *model* with no per-user state cached."""
    private = copy.deepcopy(model)
    private.build_online_kernel()
    return private


def _held_fold_in(model, user):
    """Park *model*'s fold-in of *user* until released.

    Returns ``(entered, release)``.  The wait is bounded, so a
    regression fails instead of hanging.
    """
    entered, release = threading.Event(), threading.Event()
    compute = model._compute_active_state

    def held(given, who, kernel):
        if int(who) == user:
            entered.set()
            assert release.wait(timeout=30), "the held fold-in was never released"
        return compute(given, who, kernel)

    model._compute_active_state = held
    return entered, release


class _FailsFor:
    """A primary stage that raises *exc* on every call whose batch
    holds *user*; any other call, and every attribute, is *inner*'s."""

    def __init__(self, inner, user, exc):
        self.inner, self.user, self.exc = inner, user, exc

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def predict_many(self, given, users, items):
        if self.user in np.asarray(users).tolist():
            raise self.exc
        return self.inner.predict_many(given, users, items)


def _three_kinds(split):
    """``(pairs, cached, requests, kinds)`` over :func:`_picks`' four users.

    The first two users have their first pair in the request cache
    (so their state is warm), the third has a warm state and nothing
    cached, and the fourth is cold.  *requests* mixes every kind with
    an out-of-range request; *kinds* names each one's wave.
    """
    pairs = _picks(split)
    cached = [pairs[0], pairs[2]]
    requests = [pairs[7], pairs[1], (10_000, 0), pairs[4], pairs[0], pairs[6],
                pairs[3], pairs[5], pairs[2]]
    kinds = ["cold", "warm", "final", "warm", "final", "cold", "warm", "warm", "final"]
    return pairs, cached, requests, kinds


def _prepared(model, given, cached, warm_user, **kwargs):
    """A cached service over *model*, with *cached* in its request cache
    and *warm_user*'s state folded in."""
    service = PredictionService(
        model, request_cache_size=1024, metrics=MetricsRegistry(), **kwargs
    )
    service.predict_many(given, *map(np.array, zip(*cached)))
    service.model.active_user_state(given, warm_user)
    return service


def _sorted_direct(service, given, requests):
    """``service``'s one-wave answer per request, in *requests*' order,
    on the batch sorted by user as the batcher sends it."""
    users = np.array([user for user, _ in requests])
    items = np.array([item for _, item in requests])
    order = np.argsort(users, kind="stable")
    result = service.predict_many(given, users[order], items[order])
    want = [None] * len(requests)
    for pos, src in enumerate(order.tolist()):
        level = int(result.fallback_level[pos])
        want[src] = (
            float(result.predictions[pos]), level, result.stage_names[level],
            bool(result.degraded[pos]),
        )
    return want


def test_warm_misses_answer_before_a_fold_in(cfsf_small, split_small):
    """While one user's fold-in runs, the batch's cache hits and the
    misses of users whose state is warm are already answered; only
    the folded-in user's requests wait for it."""
    given = split_small.given
    pairs, cached, requests, kinds = _three_kinds(split_small)
    model = _cold_model(cfsf_small)
    service = _prepared(model, given, cached, pairs[4][0])
    entered, release = _held_fold_in(model, pairs[6][0])
    release.clear()
    batcher, unstall = _stalled_batcher(
        service, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        head, replies = _one_batch(batcher, given, cached[0], requests, unstall)
        assert entered.wait(timeout=30)
        assert head.done()
        assert [reply.done() for reply in replies] == [kind != "cold" for kind in kinds]
        assert {replies[j].result(timeout=0).stage for j in (1, 3, 6, 7)} == {"CFSF"}
    finally:
        release.set()
    want = _sorted_direct(PredictionService(cfsf_small, request_cache_size=0), given, requests)
    assert [reply.result(timeout=30)[:4] for reply in replies] == want
    assert batcher.stats()["dispatched_batches"] == 2
    batcher.close()


@pytest.mark.parametrize("failing", ["warm", "cold"])
def test_a_failed_pass_walks_the_chain_as_one_wave_does(cfsf_small, split_small, failing):
    """A primary stage that fails only in the warm-state pass, or only
    in the fold-in pass, gives the answers, counts and stage failures
    of the one-wave chain walk over the same batch."""
    given = split_small.given
    pairs, cached, requests, _ = _three_kinds(split_small)
    user = pairs[4][0] if failing == "warm" else pairs[6][0]
    model = _cold_model(cfsf_small)
    primary = _FailsFor(model, user, RuntimeError("induced stage fault"))
    via = _prepared(primary, given, cached, pairs[4][0])
    direct = _prepared(primary, given, cached, pairs[4][0])
    batcher, unstall = _stalled_batcher(
        via, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        head, replies = _one_batch(batcher, given, cached[0], requests, unstall)
        answers = [reply.result(timeout=30)[:4] for reply in replies]
        head.result(timeout=30)
    finally:
        batcher.close()
    direct.predict_many(given, np.array([cached[0][0]]), np.array([cached[0][1]]))
    want = _sorted_direct(direct, given, requests)
    assert answers == want
    assert {level for _, level, _, _ in want} == {0, 1, 3}
    assert _service_totals(via) == _service_totals(direct)
    name = str(model.name)
    assert via.metrics.counter_value("serving.stage.failures", stage=name) == 2
    assert direct.metrics.counter_value("serving.stage.failures", stage=name) == 2


def test_a_base_exception_in_the_fold_in_pass_reaches_only_its_replies(
    cfsf_small, split_small
):
    """A ``BaseException`` out of the fold-in pass fails only the
    replies that waited for it: the cache hits and warm-state misses
    were answered before it ran."""
    given = split_small.given
    pairs, cached, requests, kinds = _three_kinds(split_small)
    model = _cold_model(cfsf_small)
    primary = _FailsFor(model, pairs[6][0], _Abort("induced abort"))
    service = _prepared(primary, given, cached, pairs[4][0])
    batcher, unstall = _stalled_batcher(
        service, max_wait_us=2_000_000.0, max_batch_size=512
    )
    try:
        head, replies = _one_batch(batcher, given, cached[0], requests, unstall)
        for reply, kind in zip(replies, kinds):
            if kind == "cold":
                assert isinstance(reply.exception(timeout=30), _Abort)
            else:
                assert reply.result(timeout=30).stage in ("CFSF", "global_mean")
        assert head.result(timeout=30).stage == "CFSF"
        later = batcher.submit(given, *pairs[5])
        assert later.result(timeout=30).stage == "CFSF"
    finally:
        batcher.close()


def test_the_state_query_moves_no_counter_and_no_recency(cfsf_small, split_small):
    """``has_active_state`` answers for the given row only, and leaves
    the state cache's hit/miss counters and its LRU order alone."""
    given = split_small.given
    pairs = _picks(split_small)
    u, v, w = pairs[0][0], pairs[2][0], pairs[4][0]
    model = _cold_model(cfsf_small)
    model.config = model.config.with_(cache_size=2)
    model.active_user_state(given, u)
    model.active_user_state(given, v)
    before = model.cache_stats()
    assert model.has_active_state(given, u) and model.has_active_state(given, v)
    assert not model.has_active_state(given, w)
    assert not model.has_active_state(given, -1)
    assert not model.has_active_state(given, given.n_users)
    unrated = int(np.flatnonzero(~given.mask[u])[0])
    assert not model.has_active_state(given.with_ratings([(u, unrated, 3.0)]), u)
    assert model.cache_stats() == before
    # Asking about u did not refresh it: it is still the LRU entry.
    model.active_user_state(given, w)
    assert not model.has_active_state(given, u)
    assert model.has_active_state(given, v) and model.has_active_state(given, w)


#: Out-of-range requests the property test mixes in.
_OUT_OF_RANGE = [(10_000, 0), (-1, 3), (0, 10_000), (1, -2)]
#: Pairs :func:`_picks` returns.
_N_PAIRS = 8


def _service_totals(service):
    health = service.health()
    totals = {
        key: health[key]
        for key in (
            "requests_total", "invalid_total", "sanitized_total",
            "degraded_total", "deadline_deferred_total",
        )
    }
    cache = health.get("request_cache")
    totals["cache"] = None if cache is None else (cache["hits"], cache["misses"])
    totals["latency_count"] = health["latency"]["count"]
    totals["served"] = [
        service.metrics.counter_value("serving.fallback", stage=name)
        for name in service.stage_names
    ]
    return totals


@hypothesis.given(
    cache_on=st.booleans(),
    warm_users=st.sets(st.integers(0, 3)),
    picks=st.lists(st.integers(0, _N_PAIRS + len(_OUT_OF_RANGE) - 1), min_size=1, max_size=24),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_two_waves_answer_as_the_service_result_does(
    cfsf_small, split_small, cache_on, warm_users, picks
):
    """Random batches of cached, warm-state, cold, out-of-range and
    poisoned-row requests: through the batcher, each reply equals,
    field by field, the service's one-wave answer for that request in
    the same sorted batch, and the service counts the same totals."""
    pairs = _picks(split_small)
    # The third and fourth users' rows carry a NaN: their requests are
    # served from the sanitised profile, flagged degraded.
    given = poison_given(
        split_small.given, [(pairs[4][0], 0, float("nan")), (pairs[6][0], 1, float("inf"))]
    )
    candidates = pairs + _OUT_OF_RANGE
    requests = [candidates[k] for k in picks]
    # Each warm user's first pair is served before the batch: that
    # folds the user in and, with the cache on, caches the pair.
    warm = [pairs[2 * user] for user in sorted(warm_users)]
    head = _OUT_OF_RANGE[0]
    model = _cold_model(cfsf_small)

    def fresh():
        svc = PredictionService(
            model, request_cache_size=1024 if cache_on else 0,
            metrics=MetricsRegistry(),
        )
        if warm:
            svc.predict_many(given, *map(np.array, zip(*warm)))
        return svc

    via, direct = fresh(), fresh()
    clock = ManualClock()
    batcher, unstall = _stalled_batcher(
        via, max_wait_us=2_000_000.0, max_batch_size=512, clock=clock
    )
    try:
        first, replies = _one_batch(batcher, given, head, requests, unstall, clock)
        answers = [reply.result(timeout=30) for reply in replies]
        first.result(timeout=30)
        assert batcher.stats()["dispatched_batches"] == 2
    finally:
        batcher.close()
    t_dispatch = clock()
    direct.predict_many(given, np.array([head[0]]), np.array([head[1]]))
    users = np.array([user for user, _ in requests])
    items = np.array([item for _, item in requests])
    order = np.argsort(users, kind="stable")
    result = direct.predict_many(given, users[order], items[order])
    for pos, src in enumerate(order.tolist()):
        level = int(result.fallback_level[pos])
        want = BatchedPrediction(
            float(result.predictions[pos]), level, result.stage_names[level],
            bool(result.degraded[pos]), max(t_dispatch - replies[src].enqueued_at, 0.0),
        )
        assert answers[src] == want
        assert [type(field) for field in answers[src]] == [float, int, str, bool, float]
    assert _service_totals(via) == _service_totals(direct)


def test_submit_allocates_one_tracked_object(service, split_small, stream):
    """The reply is the queue entry: a queued request adds one
    GC-tracked object (a concurrent.futures.Future adds about 12)."""
    users, items = stream
    n = 1000
    batcher, release = _stalled_batcher(
        service, max_wait_us=2_000_000.0, max_queue=2 * n
    )
    replies = [None] * n
    user, item = int(users[1]), int(items[1])
    try:
        _held_in_flight(batcher, split_small, stream)
        gc.collect()
        before = len(gc.get_objects())
        for j in range(n):
            replies[j] = batcher.submit(split_small.given, user, item)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert batcher.queue_depth == n
    finally:
        release()
    assert added <= 2 * n
    for reply in replies:
        reply.result(timeout=30)
    batcher.close()


def test_answered_request_holds_two_tracked_objects(service, split_small, stream):
    """Once answered, a request holds two GC-tracked objects: its
    reply and its answer."""
    users, items = stream
    n = 1000
    replies = [None] * n
    user, item = int(users[1]), int(items[1])
    with MicroBatcher(service, workers=1, max_queue=2 * n) as batcher:
        batcher.submit(split_small.given, user, item).result(timeout=30)
        gc.collect()
        before = len(gc.get_objects())
        for j in range(n):
            replies[j] = batcher.submit(split_small.given, user, item)
        # Polled rather than waited on: a blocked result() makes an Event.
        assert _wait_until(lambda: all(reply.done() for reply in replies), timeout=30)
        gc.collect()
        added = len(gc.get_objects()) - before
    assert added <= 2 * n
    assert all(reply.result().stage == "CFSF" for reply in replies)


@pytest.mark.stress
def test_reply_hooks_race_the_dispatch(service, split_small, stream):
    """Callbacks and waiters added while dispatches answer, with more
    workers than cores and thread switches every 10 µs: every callback
    runs exactly once and every waiter gets its own request's answer."""
    users, items = stream
    direct = service.predict_many(split_small.given, users, items).predictions
    n_threads = 8
    calls = np.zeros(users.size, dtype=np.int64)
    got = np.full(users.size, np.nan)
    barrier = threading.Barrier(n_threads)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MicroBatcher(service, workers=4, max_wait_us=50.0) as batcher:

            def count_call(idx, _reply):
                calls[idx] += 1

            def client(t):
                barrier.wait()
                mine = range(t, users.size, n_threads)
                replies = [
                    batcher.submit(split_small.given, int(users[i]), int(items[i]))
                    for i in mine
                ]
                for idx, reply in zip(mine, replies):
                    reply.add_done_callback(partial(count_call, idx))
                for idx, reply in zip(mine, replies):
                    got[idx] = reply.result(timeout=30).value

            threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert np.array_equal(got, direct)
    assert (calls == 1).all()
