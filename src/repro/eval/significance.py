"""Statistical significance of MAE differences between recommenders.

The paper reports point MAE values; a reproduction should also say
whether "CFSF beats X by 0.02" is signal or noise.  Given two
recommenders evaluated on the *same* held-out targets, the per-target
absolute errors form a paired sample, so the standard machinery
applies:

* :func:`paired_comparison` — mean difference, a paired t statistic,
  the Wilcoxon signed-rank test (scipy), and a sign-test summary.

These run inside the Table III benchmark so every "who wins" claim in
EXPERIMENTS.md carries a p-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_same_shape

__all__ = ["PairedResult", "paired_comparison"]


@dataclass(frozen=True)
class PairedResult:
    """Outcome of a paired error comparison (A vs B).

    ``mean_diff < 0`` means A has the lower (better) absolute error.
    """

    mean_diff: float
    t_statistic: float
    t_pvalue: float
    wilcoxon_statistic: float
    wilcoxon_pvalue: float
    n_a_better: int
    n_b_better: int
    n_ties: int

    @property
    def a_wins(self) -> bool:
        """A strictly better on average."""
        return self.mean_diff < 0.0

    def significant(self, alpha: float = 0.05) -> bool:
        """Wilcoxon-significant difference at level *alpha*."""
        return self.wilcoxon_pvalue < alpha


def paired_comparison(
    truth: np.ndarray,
    predictions_a: np.ndarray,
    predictions_b: np.ndarray,
) -> PairedResult:
    """Compare two prediction vectors on the same targets.

    Parameters
    ----------
    truth:
        Held-out true ratings.
    predictions_a, predictions_b:
        The two recommenders' predictions, aligned with *truth*.
    """
    truth = np.asarray(truth, dtype=np.float64)
    a = np.asarray(predictions_a, dtype=np.float64)
    b = np.asarray(predictions_b, dtype=np.float64)
    check_same_shape(truth, a, ("truth", "predictions_a"))
    check_same_shape(truth, b, ("truth", "predictions_b"))
    if truth.size < 2:
        raise ValueError("paired comparison needs at least 2 targets")

    err_a = np.abs(truth - a)
    err_b = np.abs(truth - b)
    diff = err_a - err_b

    from scipy import stats

    t_stat, t_p = stats.ttest_rel(err_a, err_b)
    nonzero = diff[diff != 0.0]
    if nonzero.size:
        w_stat, w_p = stats.wilcoxon(nonzero)
    else:  # identical errors everywhere
        w_stat, w_p = 0.0, 1.0
    return PairedResult(
        mean_diff=float(diff.mean()),
        t_statistic=float(t_stat),
        t_pvalue=float(t_p),
        wilcoxon_statistic=float(w_stat),
        wilcoxon_pvalue=float(w_p),
        n_a_better=int((diff < 0).sum()),
        n_b_better=int((diff > 0).sum()),
        n_ties=int((diff == 0).sum()),
    )
