"""PD — Personality Diagnosis (Pennock et al., UAI 2000).

The hybrid memory/model comparator in Table III.  PD assumes every
user has a latent "true" personality — their noise-free rating vector —
and observed ratings are the truth plus Gaussian noise::

    p(r_obs(u, i) = x | r_true(u, i) = y) ∝ exp(−(x − y)² / 2σ²)

Treating each *training user* as a candidate personality for the active
user, the posterior over the active user's rating of item *a* is::

    p(r(b, a) = x) ∝ Σ_u  p(x | r(u, a)) · Π_{i ∈ given(b)} p(r(b,i) | r(u,i))

where the product runs over the given items the training user also
rated (users sharing no item contribute a flat likelihood).  Prediction
returns either the posterior mode (``mode="argmax"`` — the original
paper's choice, which predicts a valid discrete rating) or the
posterior mean (``mode="mean"`` — lower MAE; default, since Table III
scores MAE).

Implementation: per active user the log-likelihood of all P training
personalities is one masked matrix product; per queried item the
posterior over the discrete rating values is a weighted histogram.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.baselines.base import Recommender, fallback_baseline
from repro.data.matrix import RatingMatrix
from repro.utils.groups import user_blocks

__all__ = ["PersonalityDiagnosis"]


class PersonalityDiagnosis(Recommender):
    """Personality Diagnosis (Pennock et al. 2000).

    Parameters
    ----------
    sigma:
        Gaussian noise scale of the personality model (their paper
        uses σ in the order of 1 rating step).
    mode:
        ``"mean"`` (posterior expectation; default) or ``"argmax"``
        (most probable discrete rating — the original formulation).
    rating_values:
        The discrete rating alphabet; defaults to 1..5.
    """

    def __init__(
        self,
        *,
        sigma: float = 1.0,
        mode: Literal["mean", "argmax"] = "mean",
        rating_values: Sequence[float] | None = None,
    ) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        if mode not in ("mean", "argmax"):
            raise ValueError(f"mode must be 'mean' or 'argmax', got {mode!r}")
        self.sigma = float(sigma)
        self.mode = mode
        self.rating_values = (
            np.asarray(rating_values, dtype=np.float64)
            if rating_values is not None
            else np.arange(1.0, 6.0)
        )

    @property
    def name(self) -> str:
        return "PD"

    def fit(self, train: RatingMatrix) -> "PersonalityDiagnosis":
        """PD is lazy — fitting just stores the personalities."""
        super().fit(train)
        return self

    def _log_weights(self, given: RatingMatrix, b: int) -> np.ndarray:
        """``(P,)`` log-likelihood of each training personality for
        active user *b*, from the co-rated given items."""
        train = self._require_fitted()
        idx, vals = given.user_profile(b)
        if idx.size == 0:
            return np.zeros(train.n_users)
        diffs = vals[None, :] - train.values[:, idx]        # (P, f)
        co = train.mask[:, idx]
        # Unshared items contribute a constant factor (flat likelihood),
        # i.e. zero in log space.
        return -0.5 * ((diffs**2) * co).sum(axis=1) / (self.sigma**2)

    def predict_many(
        self,
        given: RatingMatrix,
        users: np.ndarray | Sequence[int],
        items: np.ndarray | Sequence[int],
    ) -> np.ndarray:
        users, items = self._check_request(given, users, items)
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        train = self._require_fitted()
        fallback = fallback_baseline(train, given, users, items)
        vals_axis = self.rating_values
        out = np.empty(users.shape, dtype=np.float64)

        for block in user_blocks(users):
            b = int(users[block[0]])
            q_items = items[block]
            logw = self._log_weights(given, b)
            w = np.exp(logw - logw.max())                   # (P,)

            raters = train.mask[:, q_items]                  # (P, nq)
            r_cells = train.values[:, q_items]
            # posterior[x, q] = Σ_u w_u · raters · exp(−(x − r(u,q))²/2σ²)
            diff = vals_axis[:, None, None] - r_cells[None, :, :]   # (X, P, nq)
            lik = np.exp(-0.5 * diff**2 / self.sigma**2) * raters[None, :, :]
            posterior = np.einsum("p,xpq->xq", w, lik)       # (X, nq)
            tot = posterior.sum(axis=0)
            ok = tot > 0.0
            if self.mode == "mean":
                with np.errstate(invalid="ignore", divide="ignore"):
                    pred = (vals_axis @ posterior) / np.where(ok, tot, 1.0)
            else:
                pred = vals_axis[np.argmax(posterior, axis=0)]
            out[block] = np.where(ok, pred, fallback[block])
        return self._clip(out)
