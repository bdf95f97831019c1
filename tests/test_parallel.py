"""Tests for the parallel substrate: LPT partitioning and the
process-pool predictor."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.parallel import ParallelPredictor, greedy_partition, recommended_workers
from repro.serving.faults import KillWorkerAlways, KillWorkerOnce, SleepInWorker


class TestGreedyPartition:
    def test_covers_all_indices(self):
        costs = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        parts = greedy_partition(costs, 2)
        merged = np.concatenate(parts)
        assert sorted(merged.tolist()) == list(range(5))

    def test_balances_load(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(1, 10, 40)
        parts = greedy_partition(costs, 4)
        loads = [costs[p].sum() for p in parts]
        assert max(loads) / min(loads) < 1.3

    def test_lpt_beats_block_on_skewed_costs(self):
        costs = np.array([100.0] + [1.0] * 30)
        lpt = greedy_partition(costs, 4)
        blk = np.array_split(np.arange(31), 4)
        lpt_makespan = max(costs[p].sum() for p in lpt)
        blk_makespan = max(costs[p].sum() for p in blk)
        assert lpt_makespan <= blk_makespan

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            greedy_partition(np.array([-1.0]), 2)


class TestParallelPredictor:
    def test_matches_serial(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:120], items[:120]
        serial = cfsf_small.predict_many(split_small.given, users, items)
        with ParallelPredictor(cfsf_small, n_workers=2) as pp:
            par = pp.predict_many(split_small.given, users, items)
        assert np.array_equal(serial, par)

    def test_single_worker_shortcut(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        with ParallelPredictor(cfsf_small, n_workers=1) as pp:
            out = pp.predict_many(split_small.given, users[:10], items[:10])
        assert len(out) == 10

    def test_empty_request(self, cfsf_small, split_small):
        with ParallelPredictor(cfsf_small, n_workers=2) as pp:
            out = pp.predict_many(
                split_small.given, np.array([], dtype=int), np.array([], dtype=int)
            )
        assert out.shape == (0,)

    def test_pool_reuse_across_calls(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        with ParallelPredictor(cfsf_small, n_workers=2) as pp:
            pp.predict_many(split_small.given, users[:20], items[:20])
            pool_first = pp._pool
            pp.predict_many(split_small.given, users[20:40], items[20:40])
            assert pp._pool is pool_first

    def test_shape_validation(self, cfsf_small, split_small):
        with ParallelPredictor(cfsf_small, n_workers=2) as pp:
            with pytest.raises(ValueError):
                pp.predict_many(split_small.given, np.array([0, 1]), np.array([0]))

    def test_invalid_start_method(self, cfsf_small):
        with pytest.raises(ValueError):
            ParallelPredictor(cfsf_small, start_method="thread")


@pytest.mark.faults
class TestWorkerCrashRecovery:
    """The executor's contract: a killed worker never loses a batch."""

    def test_killed_worker_batch_still_completes(
        self, cfsf_small, split_small, tmp_path
    ):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:120], items[:120]
        serial = cfsf_small.predict_many(split_small.given, users, items)
        hook = KillWorkerOnce(str(tmp_path / "kill.flag")).arm()
        assert hook.armed
        with ParallelPredictor(cfsf_small, n_workers=2, worker_hook=hook) as pp:
            out = pp.predict_many(split_small.given, users, items)
            assert pp.crash_recoveries >= 1
            assert pp.inline_fallbacks == 0
        # The flag was consumed: exactly one worker died, the respawned
        # pool finished the batch, and the results are bit-identical.
        assert not hook.armed
        assert np.array_equal(out, serial)

    def test_persistent_crashes_degrade_to_inline(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:60], items[:60]
        serial = cfsf_small.predict_many(split_small.given, users, items)
        with ParallelPredictor(
            cfsf_small,
            n_workers=2,
            max_pool_retries=1,
            worker_hook=KillWorkerAlways(),
        ) as pp:
            out = pp.predict_many(split_small.given, users, items)
            assert pp.crash_recoveries == 2  # initial pool + one respawn
            assert pp.inline_fallbacks == 1
        assert np.array_equal(out, serial)

    def test_slow_workers_still_complete(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:40], items[:40]
        with ParallelPredictor(
            cfsf_small, n_workers=2, worker_hook=SleepInWorker(0.05)
        ) as pp:
            out = pp.predict_many(split_small.given, users, items)
        assert np.array_equal(
            out, cfsf_small.predict_many(split_small.given, users, items)
        )

    def test_stats_counters(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        with ParallelPredictor(cfsf_small, n_workers=2) as pp:
            pp.predict_many(split_small.given, users[:20], items[:20])
            stats = pp.stats()
            assert stats == {
                "crash_recoveries": 0,
                "inline_fallbacks": 0,
                "pool_alive": 1,
            }
        assert pp.stats()["pool_alive"] == 0

    def test_negative_retries_rejected(self, cfsf_small):
        with pytest.raises(ValueError):
            ParallelPredictor(cfsf_small, max_pool_retries=-1)


class TestRecommendedWorkers:
    def test_at_least_one(self):
        assert recommended_workers() >= 1

    def test_cap(self):
        assert recommended_workers(max_workers=1) == 1

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
    )
    def test_counts_affinity_mask(self):
        """A process pinned to one CPU gets one worker, however many
        CPUs the host has."""
        out = _run_python(
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro.parallel import recommended_workers\n"
            "print(recommended_workers())"
        )
        assert out == "1"


def _run_python(code: str) -> str:
    """Run *code* in a fresh interpreter that imports this checkout's
    ``repro``; return its stripped stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return out.stdout.strip()


def test_import_does_not_load_shared_memory():
    out = _run_python(
        "import sys, repro\n"
        "print('multiprocessing.shared_memory' in sys.modules)"
    )
    assert out == "False"
