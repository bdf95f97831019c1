"""Worker metrics crossing the process boundary (drain/merge deltas).

The reconciliation invariant under test: whatever happens to the pool
— clean run, a killed worker mid-batch, or full inline degradation —
``parallel.task.requests`` ends up exactly equal to the number of
requests served, and the task-latency histogram holds exactly one
sample per completed task.  Crashed attempts must contribute nothing
(their deltas die with the worker or are thrown away un-merged) and
the retry must merge exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.parallel import ParallelPredictor
from repro.serving.faults import KillWorkerAlways, KillWorkerOnce

pytestmark = pytest.mark.obs


def _multi_user_slice(split, n_users=6, per_user=20):
    """Requests spanning several users, so partitioning yields >1 task.

    ``targets_arrays`` is grouped by user — a naive ``[:n]`` prefix can
    land on a single user and collapse the batch to one pool task.
    """
    users, items, _ = split.targets_arrays()
    picked_users, picked_items = [], []
    for uid in np.unique(users)[:n_users]:
        idx = np.flatnonzero(users == uid)[:per_user]
        picked_users.append(users[idx])
        picked_items.append(items[idx])
    return np.concatenate(picked_users), np.concatenate(picked_items)


class TestWorkerDeltaMerge:
    def test_clean_run_reconciles_and_matches_serial(self, cfsf_small, split_small):
        users, items = _multi_user_slice(split_small)
        serial = cfsf_small.predict_many(split_small.given, users, items)
        registry = MetricsRegistry()
        with ParallelPredictor(cfsf_small, n_workers=2, metrics=registry) as pp:
            out = pp.predict_many(split_small.given, users, items)
        assert np.array_equal(out, serial)
        assert registry.counter_value("parallel.task.requests") == users.size
        latency = registry.histogram("parallel.task.latency")
        queue_wait = registry.histogram("parallel.task.queue_wait")
        assert latency.count == queue_wait.count == 2  # one sample per task
        assert registry.histogram("parallel.batch.latency").count == 1
        assert registry.counter_value("parallel.pool.respawn") == 0
        assert registry.counter_value("parallel.inline.fallback") == 0

    def test_consecutive_batches_accumulate(self, cfsf_small, split_small):
        users, items = _multi_user_slice(split_small)
        registry = MetricsRegistry()
        with ParallelPredictor(cfsf_small, n_workers=2, metrics=registry) as pp:
            pp.predict_many(split_small.given, users, items)
            pp.predict_many(split_small.given, users, items)
        assert registry.counter_value("parallel.task.requests") == 2 * users.size
        assert registry.histogram("parallel.batch.latency").count == 2

    def test_disabled_registry_ships_no_deltas(self, cfsf_small, split_small):
        users, items = _multi_user_slice(split_small)
        registry = MetricsRegistry()
        with ParallelPredictor(cfsf_small, n_workers=2) as pp:  # ambient: disabled
            out = pp.predict_many(split_small.given, users, items)
        assert out.size == users.size
        assert registry.snapshot()["counters"] == []


@pytest.mark.faults
class TestCrashReconciliation:
    def test_killed_worker_loses_and_double_counts_nothing(
        self, cfsf_small, split_small, tmp_path
    ):
        users, items = _multi_user_slice(split_small)
        serial = cfsf_small.predict_many(split_small.given, users, items)
        registry = MetricsRegistry()
        hook = KillWorkerOnce(str(tmp_path / "kill.flag")).arm()
        with ParallelPredictor(
            cfsf_small, n_workers=2, worker_hook=hook, metrics=registry
        ) as pp:
            out = pp.predict_many(split_small.given, users, items)
            assert pp.crash_recoveries >= 1
            assert pp.inline_fallbacks == 0
        assert np.array_equal(out, serial)
        # The respawn shows up in the registry, mirroring the attribute.
        assert registry.counter_value("parallel.pool.respawn") == pp.crash_recoveries
        # Reconciliation: the killed attempt's partial work contributed
        # no deltas; the successful retry merged exactly once.
        assert registry.counter_value("parallel.task.requests") == users.size
        latency = registry.histogram("parallel.task.latency")
        assert latency.count == 2  # the surviving attempt's tasks, once each
        assert registry.counter_value("parallel.inline.fallback") == 0

    def test_inline_degradation_still_reconciles(self, cfsf_small, split_small):
        users, items = _multi_user_slice(split_small)
        serial = cfsf_small.predict_many(split_small.given, users, items)
        registry = MetricsRegistry()
        with ParallelPredictor(
            cfsf_small,
            n_workers=2,
            max_pool_retries=1,
            worker_hook=KillWorkerAlways(),
            metrics=registry,
        ) as pp:
            out = pp.predict_many(split_small.given, users, items)
            assert pp.inline_fallbacks == 1
        assert np.array_equal(out, serial)
        # Every request was ultimately predicted inline, exactly once.
        assert registry.counter_value("parallel.task.requests") == users.size
        assert registry.histogram("parallel.task.latency").count == 2
        assert registry.counter_value("parallel.inline.fallback") == 1
        assert (
            registry.counter_value("parallel.pool.respawn") == pp.crash_recoveries
        )
