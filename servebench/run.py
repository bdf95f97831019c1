"""Serving benchmark: one workload, one seed, one result line of JSON.

Usage, from the repository root::

    python3 servebench/run.py --workload hot_repeat --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` times an untraced run and reports the end-to-end
metrics; ``--trace 1`` runs an untraced window and then a traced one,
and reports the per-layer metrics.  The line before the result holds
the details: settings, seed, dataset source, raw failure counts and the
correctness check.  ``--workload all`` runs every workload, each in a
fresh process.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
WORKLOAD_NAMES = ("hot_repeat", "profile_writes")

END_TO_END_UNITS = {
    "setup_s": "s",
    "rps": "req/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "slo_frac": "fraction",
    "answered_frac": "fraction",
    "primary_frac": "fraction",
    "mae": "rating",
}

PER_LAYER_UNITS = {
    "client.users_per_write": "count",
    "batcher.submit_us": "us",
    "batcher.queue_wait_p50_ms": "ms",
    "batcher.queue_wait_p99_ms": "ms",
    "batcher.batch_size_mean": "req",
    "pool.checkout_wait_us": "us",
    "service.us_per_req": "us",
    "service.self_us_per_req": "us",
    "service.cache_hit_ratio": "fraction",
    "service.busy_frac": "fraction",
    "model.us_per_req": "us",
    "model.self_us_per_req": "us",
    "model.state_hit_ratio": "fraction",
    "model.fold_ins": "count",
    "model.fold_ins_per_write": "count",
    "model.fold_in_us": "us",
    "kernel.fuse_us_per_req": "us",
    "kernel.reqs_per_block": "req",
    "kernel.prepare_us": "us",
    "data.write_ms": "ms",
    "fit.gis_s": "s",
    "fit.cluster_s": "s",
    "fit.smooth_s": "s",
    "fit.icluster_s": "s",
    "fit.other_s": "s",
    "trace.overhead_frac": "fraction",
}


def _front_counters(stack) -> dict[str, int]:
    """Cumulative batcher and request-cache counters (diffed per window)."""
    stats = stack.batcher.stats()
    cache = stack.service.health()["request_cache"]
    return {
        "batches": stats["dispatched_batches"],
        "dispatched": stats["dispatched_requests"],
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
    }


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def _settings(stack) -> dict:
    stats = stack.batcher.stats()
    return {
        "request_cache": stack.service.health()["request_cache"]["maxsize"],
        "max_batch_size": stats["max_batch_size"],
        "max_wait_us": stats["max_wait_us"],
        "workers": stats["workers"],
        "max_queue": stats["max_queue"],
        "overload_policy": stack.batcher.overload_policy,
    }


def _timed_window(workload, seconds: float):
    before = _front_counters(workload.stack)
    win = workload.window(seconds)
    return win, _delta(before, _front_counters(workload.stack))


def _reference(stack):
    """An independent CFSF fitted on the same training matrix."""
    from repro.core import CFSF

    return CFSF().fit(stack.split.train)


def _details(name, seed, seconds, trace, workload, outcome, check, front) -> dict:
    from repro.data import dataset_source
    from workloads import DATASET_SEED

    lookups = front["cache_hits"] + front["cache_misses"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "settings": _settings(workload.stack),
        "dataset_source": dataset_source(seed=DATASET_SEED),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "samples": outcome.samples,
        "answered": outcome.answered,
        "refused": outcome.refused,
        "raised": outcome.raised,
        "timed_out": outcome.timed_out,
        "failed_frac": outcome.failed_frac,
        "degraded_frac": outcome.degraded_frac,
        "batches": front["batches"],
        "cache_hit_ratio": front["cache_hits"] / lookups if lookups else 0.0,
        "check": {"checked": check.checked, "mismatches": check.mismatches,
                  "max_abs_diff": check.max_abs_diff},
    }


def _result(correct: bool, outcome, metrics: dict, units: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from measure import account, check_answers, typical
    from workloads import WORKLOADS

    setups, workload = [], None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed)
        setups.append(time.perf_counter() - t0)
    try:
        win, front = _timed_window(workload, seconds)
    finally:
        workload.close()
    outcome = account(win.log, win.wall_s)
    check = check_answers(_reference(workload.stack), win.givens, win.log)
    rps, p50_s, p99_s = typical(win.log, win.slices)
    metrics = {
        "setup_s": statistics.median(setups),
        "rps": rps,
        "p50_ms": p50_s * 1e3,
        "p99_ms": p99_s * 1e3,
        "slo_frac": outcome.slo_frac,
        "answered_frac": 1.0 - outcome.failed_frac,
        "primary_frac": 1.0 - outcome.degraded_frac,
        "mae": outcome.mae,
    }
    details = _details(name, seed, seconds, 0, workload, outcome, check, front)
    details["setup_s_each"] = setups
    details["pooled"] = {"rps": outcome.rps, "p50_ms": outcome.p50_s * 1e3,
                         "p99_ms": outcome.p99_s * 1e3}
    return _result(check.ok, outcome, metrics, END_TO_END_UNITS), details


def _untraced_baseline(name: str, seed: int, seconds: float):
    """A window on its own fresh stack, for the tracing overhead."""
    from measure import typical
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    try:
        win, _ = _timed_window(workload, seconds)
    finally:
        workload.close()
    return win, typical(win.log, win.slices)


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import numpy as np
    from measure import OK, account, check_answers, exact_percentile, typical
    from tracer import LayerTracer, layer_metrics
    from workloads import WORKLOADS

    base_win, base = _untraced_baseline(name, seed, seconds)
    # The tracer wraps the classes before the traced stack is built.
    with LayerTracer() as tracer:
        workload = WORKLOADS[name](seed)
        try:
            tracer.reset()
            win, front = _timed_window(workload, seconds)
            totals = tracer.totals()
        finally:
            workload.close()
    outcome = account(win.log, win.wall_s)
    reference = _reference(workload.stack)
    check = check_answers(reference, win.givens, win.log)
    base_check = check_answers(reference, base_win.givens, base_win.log)

    def ms(value: float | None) -> float:
        return 0.0 if value is None else value * 1e3

    stack = workload.stack
    metrics = layer_metrics(totals, win.wall_s)
    waits = win.log.column("wait")[win.log.column("status") == OK]
    writes = len(win.users_per_write)
    lookups = front["cache_hits"] + front["cache_misses"]
    rps, _, _ = typical(win.log, win.slices)
    base_rps, base_p50_s, _ = base
    metrics.update({
        "client.users_per_write": float(np.mean(win.users_per_write)) if writes else 0.0,
        "batcher.queue_wait_p50_ms": ms(exact_percentile(waits, 50)),
        "batcher.queue_wait_p99_ms": ms(exact_percentile(waits, 99)),
        "batcher.batch_size_mean": front["dispatched"] / front["batches"]
        if front["batches"] else 0.0,
        "service.cache_hit_ratio": front["cache_hits"] / lookups if lookups else 0.0,
        "model.fold_ins_per_write": metrics["model.fold_ins"] / writes if writes else 0.0,
        "fit.gis_s": stack.fit_stages["gis.build"],
        "fit.cluster_s": stack.fit_stages["cluster.fit"],
        "fit.smooth_s": stack.fit_stages["smooth.apply"],
        "fit.icluster_s": stack.fit_stages["icluster.build"],
        "fit.other_s": stack.fit_s - sum(stack.fit_stages.values()),
        "trace.overhead_frac": 1.0 - rps / base_rps,
    })
    details = _details(name, seed, seconds, 1, workload, outcome, check, front)
    details["writes"] = writes
    details["untraced"] = {"rps": base_rps, "p50_ms": ms(base_p50_s), "check_ok": base_check.ok}
    correct = check.ok and base_check.ok
    return _result(correct, outcome, metrics, PER_LAYER_UNITS), details


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; the last line sums them up."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            print(line)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": len(done) == len(results) and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "workloads": {name: r and r["metrics"] for name, r in results.items()},
    }))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # Every thread on one CPU; README.md, "Why one CPU", says why.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = run_traced if args.trace else run_untraced
    result, details = runner(args.workload, args.seed, args.seconds)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
