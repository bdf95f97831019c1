"""Table II — MAE of CFSF vs the traditional memory-based approaches.

Regenerates the paper's Table II: CFSF (paper defaults C=30, λ=0.8,
δ=0.1, K=25, M=95, w=0.35) against the literal item-based (SIR, Eq. 1)
and user-based (SUR, Eq. 2) PCC recommenders, over
ML_{100,200,300} x Given{5,10,20}.

Reproduction targets (shape, not absolute values):
* CFSF beats SUR and SIR in every cell (paper: by 0.06–0.13 MAE).
* MAE falls down each column as the training prefix grows.
* MAE falls along each row as GivenN grows.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.baselines import ItemBasedCF, UserBasedCF
from repro.core import CFSF
from repro.eval import TABLE2_MAE, evaluate, format_paper_table

METHODS = {
    "CFSF": lambda: CFSF(),
    "SUR": lambda: UserBasedCF(),
    "SIR": lambda: ItemBasedCF(),
}


def test_table2_memory_based_cf(benchmark, grid_splits):
    def run():
        out = {}
        for (n_train, given_n), split in sorted(grid_splits.items()):
            for name, factory in METHODS.items():
                res = evaluate(factory(), split)
                out[(split.name, name)] = res.mae
        return out

    measured = run_once(benchmark, run)

    print()
    print(
        format_paper_table(
            measured,
            training_sets=("ML_300", "ML_200", "ML_100"),
            methods=list(METHODS),
            title="Table II (measured): MAE for SIR, SUR and CFSF",
        )
    )
    paper = {(f"{ts}/{g}", m): v for (ts, m, g), v in TABLE2_MAE.items()}
    print()
    print(
        format_paper_table(
            paper,
            training_sets=("ML_300", "ML_200", "ML_100"),
            methods=list(METHODS),
            title="Table II (paper)",
        )
    )

    # --- shape assertions ------------------------------------------------
    for n_train in (100, 200, 300):
        for given in (5, 10, 20):
            cell = f"ML_{n_train}/Given{given}"
            assert measured[(cell, "CFSF")] < measured[(cell, "SUR")], cell
            assert measured[(cell, "CFSF")] < measured[(cell, "SIR")], cell

    for given in (5, 10, 20):
        assert (
            measured[(f"ML_300/Given{given}", "CFSF")]
            < measured[(f"ML_100/Given{given}", "CFSF")]
        )
    for n_train in (100, 200, 300):
        assert (
            measured[(f"ML_{n_train}/Given20", "CFSF")]
            < measured[(f"ML_{n_train}/Given5", "CFSF")]
        )

    # Sanity band: nothing silently broken.
    for (cell, method), value in measured.items():
        assert 0.5 < value < 1.2, (cell, method, value)
