"""Statistical significance of MAE differences between recommenders.

The paper reports point MAE values; a reproduction should also say
whether "CFSF beats X by 0.02" is signal or noise.  Given two
recommenders evaluated on the *same* held-out targets, the per-target
absolute errors form a paired sample, so the standard machinery
applies:

* :func:`paired_comparison` — mean difference, a paired t statistic,
  the Wilcoxon signed-rank test (scipy), and a sign-test summary.
* :func:`bootstrap_mae_ci` — a percentile bootstrap confidence
  interval for one recommender's MAE.

These run inside the Table III benchmark so every "who wins" claim in
EXPERIMENTS.md carries a p-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int, check_same_shape

__all__ = ["PairedResult", "paired_comparison", "bootstrap_mae_ci"]


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


def bootstrap_mae_ci(
    truth: np.ndarray,
    predictions: np.ndarray,
    *,
    n_resamples: int = 2000,
    confidence: float = 0.95,
    seed: int | np.random.Generator | None = 0,
) -> tuple[float, float, float]:
    """Percentile-bootstrap CI for the MAE: ``(mae, low, high)``."""
    check_positive_int(n_resamples, "n_resamples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    truth = np.asarray(truth, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    check_same_shape(truth, predictions, ("truth", "predictions"))
    errors = np.abs(truth - predictions)
    if errors.size == 0:
        raise ValueError("cannot bootstrap an empty target set")
    rng = as_generator(seed)
    idx = rng.integers(0, errors.size, size=(n_resamples, errors.size))
    samples = errors[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(samples, [alpha, 1.0 - alpha])
    return float(errors.mean()), float(low), float(high)
