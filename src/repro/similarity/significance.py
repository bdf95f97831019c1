"""Similarity post-processing: significance weighting and thresholds.

Section IV-B of the paper: "Given the large number of items, we set
thresholds for Eq. 5 to filter less important items. Then, the size of
GIS will be greatly reduced."  This module provides that thresholding
plus the classic Herlocker significance weighting (devaluing
correlations computed from few co-ratings), which EMDP's source paper
also applies and which we expose as an option everywhere a raw PCC is
consumed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "significance_weight",
    "apply_threshold",
    "overlap_counts",
    "top_k_indices",
]


def overlap_counts(mask: np.ndarray, *, axis: str = "columns") -> np.ndarray:
    """Co-rating counts for every pair of columns (or rows) of a mask.

    Parameters
    ----------
    mask:
        Boolean rated-mask, users on rows and items on columns.
    axis:
        ``"columns"`` for item pairs, ``"rows"`` for user pairs.
    """
    W = mask.astype(np.float64)
    if axis == "columns":
        return (W.T @ W).astype(np.intp)
    if axis == "rows":
        return (W @ W.T).astype(np.intp)
    raise ValueError(f"axis must be 'columns' or 'rows', got {axis!r}")


def significance_weight(
    sim: np.ndarray, counts: np.ndarray, *, gamma: int = 30
) -> np.ndarray:
    """Shrink similarities backed by few co-ratings: ``sim * min(n,γ)/γ``.

    Herlocker et al.'s devaluation: a correlation computed from 3
    common ratings is numerically a correlation but statistically
    noise.  ``gamma`` is the co-rating count at which a similarity is
    trusted at full strength.
    """
    check_positive_int(gamma, "gamma")
    if sim.shape != counts.shape:
        raise ValueError(f"sim shape {sim.shape} != counts shape {counts.shape}")
    return sim * (np.minimum(counts, gamma) / float(gamma))


def apply_threshold(sim: np.ndarray, threshold: float) -> np.ndarray:
    """Zero out similarities with absolute value below *threshold*.

    This is the paper's GIS filtering knob: entries below the threshold
    are dropped, shrinking the effective neighbour lists.  The diagonal
    is preserved.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if threshold == 0.0:
        return sim
    out = np.where(np.abs(sim) >= threshold, sim, 0.0)
    if out.ndim == 2 and out.shape[0] == out.shape[1]:
        np.fill_diagonal(out, np.diagonal(sim))
    return out


def top_k_indices(
    scores: np.ndarray, k: int, *, exclude: int | None = None
) -> np.ndarray:
    """Indices of the *k* largest entries of a 1-D score vector, sorted
    by descending score.

    Equal to ``np.argsort(-scores, kind="stable")[:k]`` less its
    non-finite scores: ties at the cut keep the lowest indices, and
    tied entries keep index order.

    Parameters
    ----------
    exclude:
        Optional index to skip (typically the query itself, whose
        self-similarity of 1.0 would always win).

    Notes
    -----
    Uses a ``partition`` cut + a small sort so the cost is
    O(n + k log k), not O(n log n).  Its caller is the SF baseline's
    per-request user selection
    (:class:`~repro.baselines.sf.SimilarityFusion`); CFSF selects its
    top-K users in :mod:`repro.core.selection`.
    """
    check_positive_int(k, "k")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got ndim={scores.ndim}")
    if exclude is not None:
        scores = scores.copy()
        scores[exclude] = -np.inf
    k = min(k, scores.size - (1 if exclude is not None else 0))
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    neg = -scores
    neg[np.isnan(neg)] = np.inf  # NaN ranks last, as in a sort
    kth = np.partition(neg, k - 1)[k - 1]
    keep = neg < kth
    keep[np.flatnonzero(neg == kth)[: k - np.count_nonzero(keep)]] = True
    top = np.flatnonzero(keep)
    top = top[np.argsort(neg[top], kind="stable")]
    return top[np.isfinite(scores[top])]
