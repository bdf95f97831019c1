"""Vector Space Similarity (pure cosine) over masked matrices.

The paper's Section IV-B argues for PCC over Pure Cosine Similarity
(PCS/VSS) for the GIS because cosine "does not consider the diversity
in item ratings" — popular items get systematically higher raw ratings
and cosine rewards that shared offset as similarity.  We implement VSS
so the ablation benchmark (``bench_ablation_similarity``) can quantify
that claim on data with the popularity/quality coupling the generator
plants.

Two variants:

* ``corated=True`` (default) — denominators restricted to co-rated
  rows, the direct uncentered analogue of the paper's PCC and the form
  used by Sarwar et al. [11] for item-based CF.
* ``corated=False`` — classic IR cosine with full-column norms, which
  additionally penalises rarely-rated items.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_mask, check_rating_matrix

__all__ = ["pairwise_cosine", "item_cosine"]


def pairwise_cosine(
    values: np.ndarray,
    mask: np.ndarray,
    *,
    corated: bool = True,
    min_overlap: int = 1,
) -> np.ndarray:
    """All-pairs cosine similarity between the columns of a masked matrix.

    Parameters
    ----------
    values, mask:
        ``(n_rows, n_cols)`` ratings and rated-mask.
    corated:
        Restrict the denominators to co-rated rows (see module
        docstring).  The numerator is always over co-rated rows — a
        product with an unrated (zeroed) entry contributes nothing.
    min_overlap:
        Pairs with fewer co-rated rows get similarity 0.0.

    Returns
    -------
    numpy.ndarray
        ``(n_cols, n_cols)`` symmetric matrix in ``[0, 1]`` for
        non-negative ratings, unit diagonal.
    """
    values = check_rating_matrix(values)
    mask = check_mask(mask, values.shape)
    R = np.where(mask, values, 0.0)
    W = mask.astype(np.float64)
    n = W.T @ W
    num = R.T @ R
    R2 = R * R
    if corated:
        den1 = R2.T @ W
        den2 = W.T @ R2
        denom = np.sqrt(den1 * den2)
    else:
        norms = np.sqrt(R2.sum(axis=0))
        denom = norms[:, None] * norms[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    sim[n < min_overlap] = 0.0
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return sim


def item_cosine(
    values: np.ndarray, mask: np.ndarray, *, corated: bool = True, min_overlap: int = 1
) -> np.ndarray:
    """Item–item VSS: columns of the user-major matrix."""
    return pairwise_cosine(values, mask, corated=corated, min_overlap=min_overlap)

