"""The benchmark's own tests: generators, statistics, accounting, the check.

Run with ``python3 -m pytest servebench -q`` from the repository root.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from measure import (
    OK,
    REFUSED,
    RequestLog,
    account,
    check_answers,
    exact_percentile,
    typical,
)
from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOAD_NAMES
from workloads import (
    TRAIN_USERS,
    IndexStream,
    WriteSource,
    closed_client,
    cycle_slices,
    heldout_pool,
    saturating_client,
)

from repro.data import default_dataset, make_split
from repro.serving import BatchedPrediction, OverloadedError

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ratings():
    return default_dataset(seed=0)


@pytest.fixture(scope="module")
def split10(ratings):
    return make_split(ratings, n_train_users=TRAIN_USERS, given_n=10, seed=0)


def _write_source(split, seed):
    pool = heldout_pool(split, 50, np.random.default_rng([seed, 0]))
    return WriteSource(split.given, pool, np.random.default_rng([seed, 1]),
                       np.random.default_rng([seed, 2]), reads_per_write=64)


def _drain(source, windows):
    return [source.next_window(32) for _ in range(windows)]


# ----------------------------------------------------------------------
# Generators are deterministic per seed
# ----------------------------------------------------------------------
def test_index_stream_depends_on_seed_not_on_slicing():
    a = IndexStream(np.random.default_rng([3, 1]), 1000)
    b = IndexStream(np.random.default_rng([3, 1]), 1000)
    whole = a.take(5000)
    pieces = np.concatenate([b.take(n) for n in (1, 31, 32, 4000, 936)])
    assert np.array_equal(whole, pieces)
    other = IndexStream(np.random.default_rng([4, 1]), 1000).take(5000)
    assert not np.array_equal(whole, other)


def test_pools_and_write_sequences_repeat_per_seed(split10):
    first, second = _write_source(split10, 7), _write_source(split10, 7)
    for (v1, g1, u1, i1, t1), (v2, g2, u2, i2, t2) in zip(
        _drain(first, 40), _drain(second, 40)
    ):
        assert v1 == v2 and g1 == g2
        assert np.array_equal(u1, u2) and np.array_equal(i1, i2) and np.array_equal(t1, t2)
    assert first.chain.writes == second.chain.writes
    other = _write_source(split10, 8)
    _drain(other, 40)
    assert other.chain.writes != first.chain.writes


# ----------------------------------------------------------------------
# profile_writes never sends a given an earlier pass sent
# ----------------------------------------------------------------------
def test_profile_writes_never_resends_a_given(split10):
    source = _write_source(split10, 3)
    first_pass = _drain(source, 60)
    second_pass = _drain(source, 60)
    sent = {}
    for version, given, *_ in first_pass + second_pass:
        sent.setdefault(version, given)
    versions = sorted(sent)
    assert versions == list(range(len(versions))) and len(versions) > 20
    # Each write adds one rating, so every version differs from all
    # earlier ones, including the cache key the program derives from it.
    counts = [sent[v].n_ratings for v in versions]
    assert counts == list(range(counts[0], counts[0] + len(counts)))
    keys = [hash(sent[v]) for v in versions]
    assert len(set(keys)) == len(keys)
    # The chain rebuilds exactly what was sent.
    for v in versions:
        assert source.chain[v] == sent[v]


# ----------------------------------------------------------------------
# Exact percentiles
# ----------------------------------------------------------------------
def test_percentile_is_an_exact_nearest_rank_sample():
    samples = np.random.default_rng(0).permutation(np.arange(1, 1001, dtype=float))
    assert exact_percentile(samples, 50) == 500.0
    assert exact_percentile(samples, 99) == 990.0
    assert exact_percentile(samples, 90) == 900.0
    odd = np.array([0.3, 0.1, 0.7, 0.2, 0.9] * 5)
    assert exact_percentile(odd, 50) in set(odd.tolist())


def test_percentile_needs_ten_samples_beyond_it():
    assert exact_percentile(np.arange(1000.0), 99) is not None   # 10 beyond
    assert exact_percentile(np.arange(999.0), 99) is None        # 9 beyond
    assert exact_percentile(np.arange(19.0), 50) is None
    with pytest.raises(ValueError):
        exact_percentile(np.arange(10.0), 100)


def test_typical_is_the_median_over_slices():
    # Five one-second slices of 2000 requests; slice 3 is a slow outlier.
    # Requests go out over the first 0.9 s of their slice and the last
    # one is answered at its end.  Requests labelled -1 belong to no slice.
    n, per = 10_000, 2_000
    latency = np.tile(np.arange(1, per + 1) * 1e-6, 5)
    latency[3 * per:4 * per] *= 100
    sent = np.repeat(np.arange(5.0), per) + np.tile(np.arange(per) / per * 0.9, 5)
    sent[per - 1::per] = np.arange(1, 6) - latency[per - 1::per]
    log = RequestLog()
    log.add(version=np.zeros(n), user=np.zeros(n), item=np.zeros(n), truth=np.zeros(n),
            sent=sent, value=np.zeros(n), latency=latency, wait=np.zeros(n),
            degraded=np.zeros(n, dtype=bool), status=np.zeros(n, dtype=np.int8))
    rps, p50, p99 = typical(log, np.repeat(np.arange(5), per))
    assert rps == pytest.approx(2000.0)
    assert p50 == pytest.approx(1000e-6) and p99 == pytest.approx(1980e-6)
    slices = np.repeat(np.arange(5), per)
    slices[:per] = -1
    assert typical(log, slices)[0] == pytest.approx(2000.0)


def test_profile_writes_slices_hold_whole_write_cycles():
    # Versions 3..40, 8 windows of 32 reads each, except the partial
    # first and last cycles.
    version = np.concatenate([np.full(96, 3), np.repeat(np.arange(4, 40), 256),
                              np.full(64, 40)])
    n = version.size
    log = RequestLog()
    log.add(version=version, user=np.zeros(n), item=np.zeros(n), truth=np.zeros(n),
            sent=np.zeros(n), value=np.zeros(n), latency=np.zeros(n), wait=np.zeros(n),
            degraded=np.zeros(n, dtype=bool), status=np.zeros(n, dtype=np.int8))
    slices = cycle_slices(log)
    # 37 cycles after the first; the last is partial, so 36 whole ones
    # make two slices of 16 and the remaining 4 are left out.
    kept = slices[slices >= 0]
    assert set(kept.tolist()) == {0, 1}
    assert (np.bincount(kept) == 16 * 256).all()
    assert (slices[version == 3] == -1).all() and (slices[version == 40] == -1).all()


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class _OneWindow:
    """A source that yields the same window every time."""

    def __init__(self, n: int) -> None:
        self.users = np.arange(n)
        self.items = np.arange(n) + 100

    def next_window(self, n):
        return 0, None, self.users, self.items, np.full(self.users.size, 3.0)


def test_refused_request_counts_as_failed_and_as_slo_miss():
    def submit(given, user, item):
        if user == 5:
            raise OverloadedError(1024, 1024)
        future: Future = Future()
        future.set_result(BatchedPrediction(3.0, 0, "CFSF", False, 0.0))
        return future

    log = RequestLog()
    ticks = iter(np.arange(0.0, 10.0, 1e-4))
    closed_client(submit, _OneWindow(32), stop_at=1e-4, log=log, clock=lambda: next(ticks))
    outcome = account(log, wall_s=1.0)
    assert outcome.attempted == 32 and outcome.refused == 1
    assert outcome.failed == 1 and outcome.answered == 31
    assert outcome.failed_frac == pytest.approx(1 / 32)
    # Every answer came back well inside the objective; the refusal did not.
    assert outcome.slo_frac == pytest.approx(31 / 32)
    status = log.column("status")
    assert status[5] == REFUSED and (np.delete(status, 5) == OK).all()


def test_saturating_client_keeps_depth_outstanding_and_logs_every_request():
    pending: deque[Future] = deque()
    lock = threading.Lock()
    most = [0]
    stop = threading.Event()

    def submit(given, user, item):
        if user == 5:
            raise OverloadedError(1024, 1024)  # holds no slot
        future: Future = Future()
        with lock:
            pending.append(future)
            most[0] = max(most[0], len(pending))
        return future

    def answer() -> None:
        while not stop.is_set() or pending:
            with lock:
                future = pending.popleft() if pending else None
            if future is not None:
                future.set_result(BatchedPrediction(3.0, 0, "CFSF", False, 0.0))
            time.sleep(1e-4)

    worker = threading.Thread(target=answer)
    worker.start()
    log = RequestLog()
    try:
        saturating_client(submit, _OneWindow(32), time.perf_counter() + 0.05, log, depth=40)
    finally:
        stop.set()
        worker.join()
    status = log.column("status")
    # More than one window in flight, never more than depth.
    assert 32 < most[0] <= 40
    assert status.size % 32 == 0 and status.size > 64
    assert (status[5::32] == REFUSED).all() and (status == OK).sum() == status.size * 31 // 32
    assert (log.column("latency")[status == OK] > 0).all()


def test_degraded_answers_are_answered_but_counted():
    log = RequestLog()
    n = 40
    log.add(version=np.zeros(n), user=np.arange(n), item=np.arange(n), truth=np.full(n, 3.0),
            sent=np.zeros(n), value=np.full(n, 3.5), latency=np.full(n, 0.001), wait=np.zeros(n),
            degraded=np.arange(n) < 4, status=np.zeros(n, dtype=np.int8))
    outcome = account(log, wall_s=2.0)
    assert outcome.failed == 0 and outcome.degraded == 4
    assert outcome.degraded_frac == pytest.approx(0.1)
    assert outcome.rps == pytest.approx(20.0) and outcome.mae == pytest.approx(0.5)


# ----------------------------------------------------------------------
# The correctness check
# ----------------------------------------------------------------------
class _Given:
    """A stand-in given matrix: a version number with the clip hook."""

    def __init__(self, version: int) -> None:
        self.version = version

    def clip(self, value):
        return value


class _Reference:
    """Answers ``user + item / 1000 + version`` on both paths."""

    def __init__(self, scalar_offset: float = 0.0) -> None:
        self.scalar_offset = scalar_offset

    def predict_many(self, given, users, items):
        return np.asarray(users, dtype=float) + np.asarray(items) / 1000.0 + given.version

    def predict_one_detailed(self, given, user, item):
        value = user + item / 1000.0 + given.version + self.scalar_offset
        return type("Detail", (), {"value": value})()


GIVENS = [_Given(0), _Given(1), _Given(2)]


def _served_log(perturb: int | None = None) -> RequestLog:
    rng = np.random.default_rng(0)
    n = 500
    version = rng.integers(0, 3, n)
    users, items = rng.integers(0, 20, n), rng.integers(0, 50, n)
    value = users + items / 1000.0 + version
    if perturb is not None:
        value = value.copy()
        value[perturb] += 1e-7
    log = RequestLog()
    log.add(version=version, user=users, item=items, truth=np.zeros(n), sent=np.zeros(n),
            value=value,
            latency=np.zeros(n), wait=np.zeros(n), degraded=np.zeros(n, dtype=bool),
            status=np.zeros(n, dtype=np.int8))
    return log


def test_check_accepts_exact_answers():
    check = check_answers(_Reference(), GIVENS, _served_log())
    assert check.ok and check.checked == 500 and check.max_abs_diff == 0.0


def test_check_rejects_one_perturbed_answer():
    check = check_answers(_Reference(), GIVENS, _served_log(perturb=123))
    assert not check.ok
    assert check.mismatches == 1
    assert check.max_abs_diff == pytest.approx(1e-7)


def test_check_uses_each_requests_own_given_version():
    # Serving every request against version 0 would be wrong for 2/3 of them.
    check = check_answers(_Reference(), [GIVENS[0]] * 3, _served_log())
    assert not check.ok


def test_check_rejects_a_kernel_that_drifts_from_the_scalar_path():
    # Batched reference and served answers agree; the scalar oracle does not.
    check = check_answers(_Reference(scalar_offset=1e-6), GIVENS, _served_log())
    assert not check.ok and check.mismatches == 200


# ----------------------------------------------------------------------
# The runner and BENCHMARK.json name the same metrics
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
