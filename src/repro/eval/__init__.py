"""Evaluation substrate: metrics, the GivenN protocol, and reporting.

The paper's evaluation pipeline end to end: MAE (Eq. 15) and friends
(:mod:`~repro.eval.metrics`), the fit/predict protocol driver
(:mod:`~repro.eval.protocol`), the Table II/III grid and parameter
sweeps (:mod:`~repro.eval.runner`), terminal tables and ASCII figures
(:mod:`~repro.eval.report`), and the transcribed published numbers for
side-by-side comparison (:mod:`~repro.eval.paper_values`).
"""

from repro.eval.metrics import coverage, mae, ndcg_at_n, precision_recall_at_n, rmse
from repro.eval.paper_values import (
    CFSF_DEFAULTS,
    FIG5_MAX_RESPONSE_SECONDS,
    TABLE2_MAE,
    TABLE3_MAE,
)
from repro.eval.protocol import EvaluationResult, evaluate, evaluate_fitted
from repro.eval.report import ascii_plot, format_paper_table, format_table
from repro.eval.significance import PairedResult, paired_comparison
from repro.eval.crossval import CrossValResult, cross_validate, user_kfold_splits
from repro.eval.tuning import Trial, TuningResult, tune_cfsf
from repro.eval.runner import (
    OFFLINE_PARAMETERS,
    GridResult,
    run_grid,
    scalability_sweep,
    sweep_cfsf_parameter,
)

__all__ = [
    "CFSF_DEFAULTS",
    "CrossValResult",
    "EvaluationResult",
    "FIG5_MAX_RESPONSE_SECONDS",
    "GridResult",
    "OFFLINE_PARAMETERS",
    "PairedResult",
    "paired_comparison",
    "TABLE2_MAE",
    "Trial",
    "TuningResult",
    "TABLE3_MAE",
    "ascii_plot",
    "coverage",
    "cross_validate",
    "evaluate",
    "evaluate_fitted",
    "format_paper_table",
    "format_table",
    "mae",
    "ndcg_at_n",
    "precision_recall_at_n",
    "rmse",
    "run_grid",
    "scalability_sweep",
    "sweep_cfsf_parameter",
    "tune_cfsf",
    "user_kfold_splits",
]
