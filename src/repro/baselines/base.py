"""The common recommender interface.

Every algorithm in the reproduction — CFSF itself and all seven
comparators from Tables II/III — implements this interface so the
evaluation protocol (:mod:`repro.eval.protocol`) can drive them
uniformly.

The interface mirrors the paper's offline/online split:

* :meth:`Recommender.fit` consumes the *training* matrix only (the
  ``ML_100``/``ML_200``/``ML_300`` prefix).  Anything expensive — the
  GIS, clustering, smoothing, EM — happens here.
* :meth:`Recommender.predict_many` answers online requests for *active
  users who are not part of the training matrix*.  An active user is
  described by a row of the ``given`` matrix (their GivenN revealed
  ratings over the same item space).  This models the paper's protocol
  where active users first "rate a certain number of items" and are
  then served.  Its default is one per-user request loop; the six
  memory-based baselines supply only :meth:`Recommender._predict_user`
  (and, for batch-wide work, :meth:`Recommender._prepare_batch`), and
  the vectorised models (CFSF, AM, MF, the mean predictors) override
  it.

Predictions are clipped to the training matrix's rating scale; when an
algorithm has no information at all for a (user, item) pair it must
still return a finite fallback (conventionally blending the user's
given-mean and the item's training-mean) — Eq. 15's MAE is computed
over *every* held-out rating, so returning NaN would silently drop
targets and flatter the metric.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.utils.groups import user_blocks

__all__ = ["Recommender", "NotFittedError", "fallback_baseline"]


class NotFittedError(RuntimeError):
    """Raised when prediction is requested before :meth:`Recommender.fit`."""


class Recommender(abc.ABC):
    """Abstract base class for all recommenders in the reproduction."""

    #: Set by :meth:`fit`; checked by :meth:`_require_fitted`.
    _train: RatingMatrix | None = None

    @property
    def name(self) -> str:
        """Display name used in report tables (class name by default)."""
        return type(self).__name__

    @abc.abstractmethod
    def fit(self, train: RatingMatrix) -> "Recommender":
        """Run the offline phase on the training matrix.

        Returns ``self`` for chaining.  Implementations must call
        ``super().fit(train)`` (or set ``self._train``) so that the
        fitted-state check and scale clipping work.
        """
        self._train = train
        return self

    def predict_many(
        self,
        given: RatingMatrix,
        users: np.ndarray | Sequence[int],
        items: np.ndarray | Sequence[int],
    ) -> np.ndarray:
        """Predict ratings for parallel arrays of (active user row, item).

        This default is the request loop the memory-based baselines
        share: :meth:`_prepare_batch` runs once, then each user's block
        of requests goes through :meth:`_predict_user`, and a request
        it leaves without a neighbourhood keeps
        :func:`fallback_baseline`'s value.  Vectorised models override
        it.

        Parameters
        ----------
        given:
            Active users' revealed profiles; ``users`` indexes its rows.
            Item columns must align with the training matrix.
        users, items:
            Parallel index arrays; the result has the same length.

        Returns
        -------
        numpy.ndarray
            Finite float predictions, clipped to the rating scale.

        Examples
        --------
        Item 0 gets no prediction here, so it keeps the fallback
        ``0.5 * 1.0 + 0.5 * 3.0``:

        >>> class ItemOneOnly(Recommender):
        ...     def fit(self, train):
        ...         return super().fit(train)
        ...     def _predict_user(self, given, user, items, batch):
        ...         return np.full(items.shape, 5.0), items == 1
        >>> train = RatingMatrix(np.array([[4.0, 2.0], [2.0, 2.0]]))
        >>> given = RatingMatrix(np.array([[1.0, 0.0]]))
        >>> ItemOneOnly().fit(train).predict_many(given, [0, 0], [0, 1])
        array([2., 5.])
        """
        users, items = self._check_request(given, users, items)
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        out = fallback_baseline(self._require_fitted(), given, users, items)
        batch = self._prepare_batch(given)
        for block in user_blocks(users):
            pred, ok = self._predict_user(
                given, int(users[block[0]]), items[block], batch
            )
            out[block] = np.where(ok, pred, out[block])
        return self._clip(out)

    def _prepare_batch(self, given: RatingMatrix) -> Any:
        """Batch-wide work every user block reads (for example the
        active-vs-train PCC); passed to each :meth:`_predict_user`."""
        return None

    def _predict_user(
        self, given: RatingMatrix, user: int, items: np.ndarray, batch: Any
    ) -> tuple[Any, Any]:
        """``(pred, ok)`` for one active user's requested *items*: the
        loop keeps ``pred`` where ``ok`` holds and the fallback
        elsewhere (both broadcast against *items*)."""
        raise NotImplementedError(
            f"{type(self).__name__} overrides neither predict_many nor _predict_user"
        )

    def predict(self, given: RatingMatrix, user: int, item: int) -> float:
        """Single-pair convenience wrapper over :meth:`predict_many`."""
        return float(
            self.predict_many(given, np.array([user]), np.array([item]))[0]
        )

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    def _require_fitted(self) -> RatingMatrix:
        """Return the training matrix or raise :class:`NotFittedError`."""
        if self._train is None:
            raise NotFittedError(
                f"{type(self).__name__}.predict_many called before fit()"
            )
        return self._train

    def _check_request(
        self,
        given: RatingMatrix,
        users: np.ndarray | Sequence[int],
        items: np.ndarray | Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate a prediction request against the fitted state."""
        train = self._require_fitted()
        if given.n_items != train.n_items:
            raise ValueError(
                f"given has {given.n_items} items but model was fit on {train.n_items}"
            )
        users = np.asarray(users, dtype=np.intp)
        items = np.asarray(items, dtype=np.intp)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be parallel 1-D arrays")
        if users.size and (users.min() < 0 or users.max() >= given.n_users):
            raise ValueError("user index out of range of the given matrix")
        if items.size and (items.min() < 0 or items.max() >= train.n_items):
            raise ValueError("item index out of range")
        return users, items

    def _clip(self, predictions: np.ndarray) -> np.ndarray:
        """Clip predictions into the training rating scale."""
        return self._require_fitted().clip(predictions)


def fallback_baseline(
    train: RatingMatrix,
    given: RatingMatrix,
    users: np.ndarray,
    items: np.ndarray,
) -> np.ndarray:
    """The zero-information prediction every algorithm falls back to.

    ``0.5 * (active user's given-mean) + 0.5 * (item's training mean)``,
    each term defaulting to the global training mean when empty.  This
    is the standard fallback in the EMDP paper (their Eq. 12 with
    lambda = 0.5) and keeps MAE finite for cold items.
    """
    gmean = train.global_mean()
    user_means = given.user_means(fill=gmean)
    item_means = train.item_means(fill=gmean)
    return 0.5 * user_means[users] + 0.5 * item_means[items]
