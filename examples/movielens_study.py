#!/usr/bin/env python
"""The paper's Table II / Table III comparison, reproduced end to end.

    python examples/movielens_study.py            # ML_300 only (~1 min)
    python examples/movielens_study.py --full     # all nine cells

Fits CFSF and every comparator (SIR, SUR, SF, SCBPCC, EMDP, AM, PD) on
the paper's training prefixes and prints the MAE tables in the paper's
layout, next to the published values.
"""

from __future__ import annotations

import argparse

from repro.baselines import (
    EMDP,
    SCBPCC,
    AspectModel,
    ItemBasedCF,
    PersonalityDiagnosis,
    SimilarityFusion,
    UserBasedCF,
)
from repro.core import CFSF
from repro.data import default_dataset
from repro.eval import TABLE3_MAE, format_paper_table, run_grid

MODEL_FACTORIES = {
    "CFSF": lambda: CFSF(),
    "SUR": lambda: UserBasedCF(),                    # literal Eq. 2
    "SIR": lambda: ItemBasedCF(),                    # literal Eq. 1
    "SF": lambda: SimilarityFusion(),
    "SCBPCC": lambda: SCBPCC(),
    "EMDP": lambda: EMDP(),
    "AM": lambda: AspectModel(),
    "PD": lambda: PersonalityDiagnosis(),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="run all training sizes (100/200/300)"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ratings = default_dataset(seed=args.seed)
    training_sizes = (100, 200, 300) if args.full else (300,)

    grid = run_grid(
        ratings,
        MODEL_FACTORIES,
        training_sizes=training_sizes,
        given_sizes=(5, 10, 20),
        seed=args.seed,
        progress=print,
    )

    print()
    print(
        format_paper_table(
            grid.mae_map(),
            training_sets=[f"ML_{n}" for n in sorted(training_sizes, reverse=True)],
            methods=list(MODEL_FACTORIES),
            title="Measured MAE (this run)",
        )
    )

    print()
    paper_results = {
        (f"{ts}/{g}", m): v
        for (ts, m, g), v in TABLE3_MAE.items()
        if int(ts.split("_")[1]) in training_sizes
    }
    print(
        format_paper_table(
            paper_results,
            training_sets=[f"ML_{n}" for n in sorted(training_sizes, reverse=True)],
            methods=["CFSF", "AM", "EMDP", "SCBPCC", "SF", "PD"],
            title="Paper's Table III (published values, for comparison)",
        )
    )

    print()
    winners = grid.best_method_per_split()
    print("winner per cell:", winners)
    cfsf_wins = sum(1 for w in winners.values() if w == "CFSF")
    print(f"CFSF wins {cfsf_wins}/{len(winners)} cells (the paper reports 9/9)")


if __name__ == "__main__":
    main()
