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
returns the posterior mean, which scores a lower MAE than the original
paper's posterior mode (Table III scores MAE).

Implementation: per active user the log-likelihood of all P training
personalities is one masked matrix product; per queried item the
posterior over the rating values 1..5 is a weighted histogram.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Recommender
from repro.data.matrix import RatingMatrix

__all__ = ["PersonalityDiagnosis"]

#: The rating alphabet the posterior ranges over.
_RATING_VALUES = np.arange(1.0, 6.0)


class PersonalityDiagnosis(Recommender):
    """Personality Diagnosis (Pennock et al. 2000).

    Parameters
    ----------
    sigma:
        Gaussian noise scale of the personality model (their paper
        uses σ in the order of 1 rating step).
    """

    def __init__(self, *, sigma: float = 1.0) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.sigma = float(sigma)

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

    def _predict_user(
        self, given: RatingMatrix, user: int, items: np.ndarray, batch: None
    ) -> tuple[np.ndarray, np.ndarray]:
        train = self._require_fitted()
        logw = self._log_weights(given, user)
        w = np.exp(logw - logw.max())                       # (P,)
        # Item-major, so each item's posterior is a sum over its own
        # contiguous row: BLAS products round a row according to the
        # rows around it, which would make a prediction depend on the
        # other items in its batch.
        raters = train.mask[:, items].T                     # (nq, P)
        r_cells = train.values[:, items].T
        # posterior[q, x] = Σ_u w_u · raters · exp(−(x − r(u,q))²/2σ²)
        diff = _RATING_VALUES[None, :, None] - r_cells[:, None, :]  # (nq, X, P)
        lik = np.exp(-0.5 * diff**2 / self.sigma**2) * raters[:, None, :]
        posterior = (lik * w).sum(axis=2)                   # (nq, X)
        tot = posterior.sum(axis=1)
        ok = tot > 0.0
        return (posterior * _RATING_VALUES).sum(axis=1) / np.where(ok, tot, 1.0), ok
