"""Thread-safety regressions: service counters, health(), LRU, breakers.

Bare ``+=`` on a shared int is benign single-threaded and silently
lossy once the micro-batcher dispatches from several workers (two
threads read the same old value, both write old+n, one increment
vanishes).  The service counts into its metrics registry, whose
counters update under the registry lock.  These tests hammer the
shared state from many threads and assert the final tallies are
*exact*, not approximately right.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serving import PredictionService
from repro.serving.breaker import CircuitBreaker
from repro.utils.cache import LRUCache

N_THREADS = 8
ROUNDS = 30


@pytest.mark.stress
def test_counters_exact_under_concurrent_predict_many(cfsf_small, split_small):
    """8 threads x 30 batches: requests_total must equal the true total."""
    service = PredictionService(cfsf_small, request_cache_size=0)
    users, items, _ = split_small.targets_arrays()
    users, items = users[:40], items[:40]
    service.predict_many(split_small.given, users, items)  # warm prepared state
    barrier = threading.Barrier(N_THREADS)
    errors: list[BaseException] = []

    def worker():
        try:
            # Each thread borrows a private kernel clone (the supported
            # concurrent path — shared scratch buffers would race); the
            # *counters* are the shared state under test here.
            clone = cfsf_small.kernel.clone()
            barrier.wait()
            with cfsf_small.borrowed_kernel(clone):
                for _ in range(ROUNDS):
                    service.predict_many(split_small.given, users, items)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    expected = users.size * (N_THREADS * ROUNDS + 1)  # +1 for the warm pass
    health = service.health()
    assert health["requests_total"] == expected
    assert health["invalid_total"] == 0


@pytest.mark.stress
def test_health_readable_while_hammered(cfsf_small, split_small):
    """health() from 8 reader threads during traffic: no tears, no raises."""
    service = PredictionService(cfsf_small)
    users, items, _ = split_small.targets_arrays()
    users, items = users[:20], items[:20]
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader():
        try:
            while not stop.is_set():
                health = service.health()
                assert health["model"] == "CFSF"
                assert health["requests_total"] >= 0
                assert set(health["breakers"]) == set(health["stages"])
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(N_THREADS)]
    for thread in readers:
        thread.start()
    try:
        for _ in range(ROUNDS):
            service.predict_many(split_small.given, users, items)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
    assert not errors


@pytest.mark.stress
def test_lru_cache_counters_exact_under_contention():
    cache = LRUCache(maxsize=64)
    per_thread = 500
    barrier = threading.Barrier(N_THREADS)

    def worker(t):
        barrier.wait()
        for i in range(per_thread):
            key = (t, i % 16)
            if cache.get(key) is None:
                cache.put(key, i)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    # Every get() recorded exactly one hit or one miss.
    assert cache.hits + cache.misses == N_THREADS * per_thread
    assert len(cache) <= 64


@pytest.mark.stress
def test_breaker_failure_count_exact_under_contention():
    breaker = CircuitBreaker("stress", failure_threshold=10_000_000)
    per_thread = 1000
    barrier = threading.Barrier(N_THREADS)

    def worker():
        barrier.wait()
        for _ in range(per_thread):
            breaker.record_failure()

    threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert breaker.snapshot()["failures"] == N_THREADS * per_thread


@pytest.mark.stress
def test_sanitize_memo_safe_across_threads(cfsf_small, split_small):
    """Concurrent first-touch of the per-given sanitize memo is benign."""
    service = PredictionService(cfsf_small, request_cache_size=0)
    cfsf_small.warm_online()
    users, items, _ = split_small.targets_arrays()
    barrier = threading.Barrier(N_THREADS)
    outputs = [None] * N_THREADS

    def worker(t):
        clone = cfsf_small.kernel.clone()
        barrier.wait()
        with cfsf_small.borrowed_kernel(clone):
            outputs[t] = service.predict_many(
                split_small.given, users[:10], items[:10]
            ).predictions

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    for out in outputs[1:]:
        assert np.array_equal(out, outputs[0])
