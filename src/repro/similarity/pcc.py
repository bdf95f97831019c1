"""Masked pairwise Pearson Correlation Coefficient (PCC) kernels.

Every similarity in the paper — the item–item similarity of the GIS
(Eq. 5), the user–user similarity driving K-means (Eq. 6), the
user-to-cluster affinity (Eq. 9) and the ε-weighted online similarity
(Eq. 10) — is a PCC restricted to *co-rated* entries.  Naively that is
an O(n² · overlap) Python double loop; here every kernel is expressed
as a handful of masked Gram products (``A.T @ B`` on C-contiguous
float64 arrays), which is the difference between milliseconds and
minutes at MovieLens scale and the reason the offline phase is viable
in pure NumPy.

Two centering conventions are supported because the paper's Eq. 5/6
subtract the *overall* item/user mean (``r̄_i`` over all raters) inside
a sum restricted to co-raters, whereas the classic Sarwar/Resnick PCC
subtracts the mean over the *co-rated* subset:

* ``centering="global_mean"`` — the paper's formula.  Deviations are
  taken from each column's overall observed mean; sums (numerator and
  both denominator sums) run over co-rated rows only.
* ``centering="corated_mean"`` — textbook Pearson over the co-rated
  subset (means recomputed per pair).

Both are exact (no sampling, no approximation) and fully vectorised.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from repro.utils.validation import check_mask, check_rating_matrix

__all__ = [
    "pairwise_pcc",
    "item_pcc",
    "user_pcc",
    "pcc_to_rows",
    "Centering",
]

Centering = Literal["global_mean", "corated_mean"]


def _masked_columns(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and zero-out unrated entries; returns (R, W) float64."""
    values = check_rating_matrix(values)
    mask = check_mask(mask, values.shape)
    R = np.where(mask, values, 0.0)
    W = mask.astype(np.float64)
    return R, W


def pairwise_pcc(
    values: np.ndarray,
    mask: np.ndarray,
    *,
    centering: Centering = "global_mean",
    min_overlap: int = 2,
) -> np.ndarray:
    """All-pairs PCC between the **columns** of a masked matrix.

    Parameters
    ----------
    values, mask:
        ``(n_rows, n_cols)`` ratings and rated-mask.  Similarity is
        computed between columns over rows where *both* columns are
        rated.
    centering:
        ``"global_mean"`` (paper's Eq. 5/6) or ``"corated_mean"``
        (classic Pearson); see the module docstring.
    min_overlap:
        Pairs with fewer co-rated rows than this get similarity 0.0 —
        a single common rater yields a degenerate (always ±1 or 0/0)
        correlation, so the default is 2.

    Returns
    -------
    numpy.ndarray
        ``(n_cols, n_cols)`` symmetric matrix with unit diagonal
        (except columns with no or constant ratings, which get 0 off-
        diagonal and 1 on the diagonal by convention), values in
        ``[-1, 1]``.

    Notes
    -----
    With ``global_mean`` centering, let ``Rc = (R - colmean) * W``;
    then for columns *a, b* over their co-rated rows ``U``::

        num[a,b]  = sum_{u in U} Rc[u,a] * Rc[u,b]      = (Rc.T @ Rc)[a,b]
        den1[a,b] = sum_{u in U} Rc[u,a]^2              = (Rc^2).T @ W
        den2[a,b] = sum_{u in U} Rc[u,b]^2              = W.T @ (Rc^2)

    so the whole matrix is three BLAS calls.  ``corated_mean`` uses the
    six-Gram-product identity ``cov = Sxy - Sx*Sy/n`` instead.
    """
    R, W = _masked_columns(values, mask)
    n = W.T @ W  # co-rated counts

    if centering == "global_mean":
        counts = W.sum(axis=0)
        with np.errstate(invalid="ignore"):
            col_means = np.where(counts > 0, R.sum(axis=0) / np.maximum(counts, 1.0), 0.0)
        Rc = R - col_means[None, :]
        Rc *= W
        Rc2 = Rc * Rc
        num = Rc.T @ Rc
        denom = Rc2.T @ W
        denom *= W.T @ Rc2
        np.sqrt(denom, out=denom)
    elif centering == "corated_mean":
        Sxy = R.T @ R
        Sx = R.T @ W
        R2 = R * R
        Sxx = R2.T @ W
        num, denom = _corated_terms(Sxy, Sx, Sx.T, Sxx, Sxx.T, n)
    else:  # pragma: no cover - guarded by Literal type but kept for runtime safety
        raise ValueError(f"unknown centering {centering!r}")

    sim = _pcc_tail(num, denom, n, min_overlap)
    np.fill_diagonal(sim, 1.0)
    return sim


def item_pcc(
    values: np.ndarray,
    mask: np.ndarray,
    *,
    centering: Centering = "global_mean",
    min_overlap: int = 2,
) -> np.ndarray:
    """Item–item PCC (Eq. 5): columns of the user-major matrix."""
    return pairwise_pcc(values, mask, centering=centering, min_overlap=min_overlap)


def user_pcc(
    values: np.ndarray,
    mask: np.ndarray,
    *,
    centering: Centering = "global_mean",
    min_overlap: int = 2,
) -> np.ndarray:
    """User–user PCC (Eq. 6): columns of the transposed matrix."""
    return pairwise_pcc(
        np.ascontiguousarray(values.T),
        np.ascontiguousarray(mask.T),
        centering=centering,
        min_overlap=min_overlap,
    )


def pcc_to_rows(
    query_values: np.ndarray,
    query_mask: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
    *,
    centering: Centering = "global_mean",
    min_overlap: int = 2,
) -> np.ndarray:
    """PCC between each query **row** and each reference **row**.

    Used by the online phase (an active user against the candidate
    users) and by clustering (users against centroids): returns an
    ``(n_query, n_ref)`` matrix without materialising the full
    symmetric pairwise matrix.

    Both matrices must share the item axis.  Semantics match
    :func:`pairwise_pcc` applied to the stacked transpose, restricted
    to query-vs-reference pairs.
    """
    query = _RowSide.of(query_values, query_mask, centering, prefix="query_")
    ref = _RowSide.of(values, mask, centering)
    if query.values.shape[1] != ref.values.shape[1]:
        raise ValueError(
            f"query has {query.values.shape[1]} items but reference has {ref.values.shape[1]}"
        )
    return _pcc_rows(query, query.fixed_terms(ref.weights), ref, min_overlap)


class _RowSide(NamedTuple):
    """One side of :func:`pcc_to_rows`, masked (and centred) once.

    ``values`` is centred on each row's observed mean under
    ``global_mean`` and raw under ``corated_mean``; either way it is
    zero where unrated, and ``squares`` is its elementwise square.
    """

    weights: np.ndarray
    values: np.ndarray
    squares: np.ndarray
    centering: Centering

    @classmethod
    def of(
        cls, values: np.ndarray, mask: np.ndarray, centering: Centering, *, prefix: str = ""
    ) -> "_RowSide":
        values = check_rating_matrix(values, f"{prefix}values")
        mask = check_mask(mask, values.shape, f"{prefix}mask")
        X = np.where(mask, values, 0.0)
        W = mask.astype(np.float64)
        if centering == "global_mean":
            counts = W.sum(axis=1)
            with np.errstate(invalid="ignore"):
                means = np.where(counts > 0, X.sum(axis=1) / np.maximum(counts, 1.0), 0.0)
            X = X - means[:, None]
            X *= W
        elif centering != "corated_mean":  # pragma: no cover
            raise ValueError(f"unknown centering {centering!r}")
        return cls(W, X, X * X, centering)

    def fixed_terms(self, ref_weights: np.ndarray) -> tuple[np.ndarray, ...]:
        """The products that need only this side and the reference mask.

        ``(n, den1)`` under ``global_mean``, ``(n, Sx, Sxx)`` under
        ``corated_mean``: reusable while the reference rows' values
        change but their mask does not (k-means' centroids).
        """
        n = self.weights @ ref_weights.T
        if self.centering == "global_mean":
            return n, self.squares @ ref_weights.T
        return n, self.values @ ref_weights.T, self.squares @ ref_weights.T


def _pcc_rows(
    query: _RowSide, fixed: tuple[np.ndarray, ...], ref: _RowSide, min_overlap: int
) -> np.ndarray:
    """:func:`pcc_to_rows` from prepared sides: the reference products."""
    if query.centering == "global_mean":
        n, denom = fixed
        num = query.values @ ref.values.T
        denom = denom * (query.weights @ ref.squares.T)
        np.sqrt(denom, out=denom)
    else:
        n, Sx, Sxx = fixed
        Sxy = query.values @ ref.values.T
        Sy = query.weights @ ref.values.T
        Syy = query.weights @ ref.squares.T
        num, denom = _corated_terms(Sxy, Sx, Sy, Sxx, Syy, n)
    return _pcc_tail(num, denom, n, min_overlap)


def _corated_terms(
    Sxy: np.ndarray,
    Sx: np.ndarray,
    Sy: np.ndarray,
    Sxx: np.ndarray,
    Syy: np.ndarray,
    n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Co-rated covariance and ``sqrt(varx * vary)`` from the Gram sums."""
    inv_n = np.zeros_like(n)
    np.divide(1.0, n, out=inv_n, where=n > 0)
    num = Sx * Sy
    num *= inv_n
    np.subtract(Sxy, num, out=num)
    varx = Sx * Sx
    varx *= inv_n
    np.subtract(Sxx, varx, out=varx)
    vary = Sy * Sy
    vary *= inv_n
    np.subtract(Syy, vary, out=vary)
    # Tiny negative variances from floating-point cancellation.
    np.maximum(varx, 0.0, out=varx)
    np.maximum(vary, 0.0, out=vary)
    varx *= vary
    return num, np.sqrt(varx, out=varx)


def _pcc_tail(
    num: np.ndarray, denom: np.ndarray, n: np.ndarray, min_overlap: int
) -> np.ndarray:
    """``num / denom`` where defined and ``n >= min_overlap``, else 0; in [-1, 1]."""
    sim = np.zeros_like(num)
    np.divide(num, denom, out=sim, where=(denom > 0.0) & (n >= min_overlap))
    return np.clip(sim, -1.0, 1.0, out=sim)
