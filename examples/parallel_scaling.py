#!/usr/bin/env python
"""Parallel online prediction: the paper's Section VI future work.

    python examples/parallel_scaling.py
    python examples/parallel_scaling.py --workers 1 2 4 8

Fits CFSF once, then serves the full ML_300/Given10 request stream
through process pools of increasing size, reporting throughput and
verifying the parallel predictions are identical to the serial ones.

On a single-core host the pools only add overhead — the printout makes
that visible rather than hiding it; on a multi-core machine the online
phase scales with workers because active users are independent.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core import CFSF
from repro.data import default_dataset, make_split
from repro.eval import format_table
from repro.parallel import ParallelPredictor


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ratings = default_dataset(seed=args.seed)
    split = make_split(ratings, n_train_users=300, given_n=10, seed=args.seed)
    users, items, _ = split.targets_arrays()
    print(f"host CPUs: {os.cpu_count()}, request stream: {len(users)} predictions")
    print()

    model = CFSF().fit(split.train)

    start = time.perf_counter()
    serial = model.predict_many(split.given, users, items)
    serial_s = time.perf_counter() - start

    rows = [["serial", 1, serial_s, len(users) / serial_s, "-"]]
    for n in args.workers:
        if n == 1:
            continue
        # Drop the per-user state cache the serial run filled, so the
        # pool does not fork with those states and skip their fold-ins.
        model.build_online_kernel()
        with ParallelPredictor(model, n_workers=n) as pp:
            pp.predict_many(split.given, users[:50], items[:50])  # warm the pool
            start = time.perf_counter()
            par = pp.predict_many(split.given, users, items)
            par_s = time.perf_counter() - start
        identical = bool(np.array_equal(serial, par))
        rows.append(["pool", n, par_s, len(users) / par_s, str(identical)])
    print(
        format_table(
            ["mode", "workers", "seconds", "preds/s", "matches serial"],
            rows,
            title="Online phase (predict_many over the full test stream)",
        )
    )


if __name__ == "__main__":
    main()
