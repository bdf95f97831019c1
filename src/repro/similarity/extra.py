"""Additional similarity measures beyond the paper's PCC/VSS pair.

The CF literature the paper builds on uses several other measures; a
usable library carries them, and the similarity ablation benchmarks
use them to show how much (or little) the GIS's choice of measure
matters on a given dataset:

* :func:`adjusted_cosine` — cosine over *user-mean-centred* ratings
  (Sarwar et al. 2001's best item–item measure): removes rating-style
  generosity before comparing items, which is the user-side analogue
  of what PCC's item-centering does.
* :func:`mean_squared_difference` — inverted MSD similarity
  (Shardanand & Maes 1995), ``1 / (1 + msd)``; bounded in (0, 1].
* :func:`jaccard` — co-rating structure only (values ignored); the
  degenerate baseline that shows how much signal the rating *values*
  add over mere co-occurrence.

All operate column-wise on the masked matrix, like
:func:`repro.similarity.pairwise_pcc`, and share its conventions
(symmetric output, unit diagonal, ``min_overlap`` zeroing).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_mask, check_rating_matrix

__all__ = [
    "adjusted_cosine",
    "mean_squared_difference",
    "jaccard",
]


def _prep(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values = check_rating_matrix(values)
    mask = check_mask(mask, values.shape)
    return np.where(mask, values, 0.0), mask


def adjusted_cosine(
    values: np.ndarray, mask: np.ndarray, *, min_overlap: int = 2
) -> np.ndarray:
    """Sarwar's adjusted cosine between columns (user-mean centred)."""
    R, W = _prep(values, mask)
    Wf = W.astype(np.float64)
    row_counts = Wf.sum(axis=1)
    with np.errstate(invalid="ignore"):
        row_means = np.where(row_counts > 0, R.sum(axis=1) / np.maximum(row_counts, 1), 0.0)
    Rc = (R - row_means[:, None]) * Wf
    n = Wf.T @ Wf
    num = Rc.T @ Rc
    Rc2 = Rc * Rc
    den = np.sqrt((Rc2.T @ Wf) * (Wf.T @ Rc2))
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    sim[n < min_overlap] = 0.0
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return sim


def mean_squared_difference(
    values: np.ndarray, mask: np.ndarray, *, min_overlap: int = 2
) -> np.ndarray:
    """Inverted mean-squared-difference similarity: ``1 / (1 + msd)``.

    ``msd(a, b)`` is the mean squared rating difference over co-raters;
    identical columns score 1.0, and the measure decays smoothly with
    disagreement.  Unlike correlation it is *location-sensitive*: two
    items rated identically-shifted profiles are not "similar".
    """
    R, W = _prep(values, mask)
    Wf = W.astype(np.float64)
    n = Wf.T @ Wf
    R2 = R * R
    # Σ (x − y)² over co-raters = Σx² + Σy² − 2Σxy, each co-rated.
    sum_sq = (R2.T @ Wf) + (Wf.T @ R2) - 2.0 * (R.T @ R)
    with np.errstate(invalid="ignore", divide="ignore"):
        msd = np.where(n > 0, sum_sq / np.maximum(n, 1.0), np.inf)
    np.maximum(msd, 0.0, out=msd)  # tiny negatives from cancellation
    sim = 1.0 / (1.0 + msd)
    sim[n < min_overlap] = 0.0
    np.fill_diagonal(sim, 1.0)
    return sim


def jaccard(mask: np.ndarray, *, min_overlap: int = 1) -> np.ndarray:
    """Jaccard overlap of the rater sets: ``|A ∩ B| / |A ∪ B|``."""
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        mask = mask.astype(bool)
    Wf = mask.astype(np.float64)
    inter = Wf.T @ Wf
    counts = Wf.sum(axis=0)
    union = counts[:, None] + counts[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    sim[inter < min_overlap] = 0.0
    np.fill_diagonal(sim, 1.0)
    return sim
