"""Extension E1 — parallel online prediction (Section VI future work).

Measures the process-pool executor against serial prediction on the
full ML_300/Given10 request stream, each run from a cold per-user
state cache (as EXPERIMENTS.md E1's table is measured).

On a multi-core host the online phase scales with workers (active
users are independent); on a single-core container (like most CI
sandboxes) the pools add overhead — the bench records whichever is
true rather than asserting a speedup, but always asserts bit-identical
predictions.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.eval import format_table
from repro.parallel import ParallelPredictor

WORKER_COUNTS = (2, 4)


def test_ext_parallel_online(benchmark, cfsf_ml300, ml300_given10):
    split = ml300_given10
    users, items, _ = split.targets_arrays()

    def run():
        # Every timed run starts from a cold per-user state cache:
        # build_online_kernel() drops it, so the pools do not fork with
        # the states an earlier run (serial or another bench) left.
        cfsf_ml300.build_online_kernel()
        start = time.perf_counter()
        serial = cfsf_ml300.predict_many(split.given, users, items)
        t_serial = time.perf_counter() - start
        rows = [("serial", 1, t_serial, True)]
        for n in WORKER_COUNTS:
            cfsf_ml300.build_online_kernel()
            with ParallelPredictor(cfsf_ml300, n_workers=n) as pp:
                pp.predict_many(split.given, users[:50], items[:50])  # warm pool
                start = time.perf_counter()
                par = pp.predict_many(split.given, users, items)
                t_par = time.perf_counter() - start
            rows.append(("pool", n, t_par, bool(np.array_equal(serial, par))))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(f"host CPUs: {os.cpu_count()}")
    print(
        format_table(
            ["mode", "workers", "seconds", "matches serial"],
            [list(r) for r in rows],
            title="Extension: parallel online prediction (ML_300/Given10)",
        )
    )
    # Correctness is unconditional; speedup depends on the host.
    assert all(match for _, _, _, match in rows)
