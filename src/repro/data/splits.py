"""The paper's experimental protocol: training prefixes and GivenN.

Section V-A: from 500 users, the first 100/200/300 form the training
sets ``ML_100``/``ML_200``/``ML_300``; the *last 200 users* are the
test set.  For each test ("active") user, only ``Given5``/``Given10``/
``Given20`` of their ratings are revealed to the recommender; all of
their remaining ratings are held out and predicted, and MAE is computed
over the held-out set (Eq. 15).

This module provides:

* :class:`GivenNSplit` — a frozen view holding the training matrix, the
  *given* matrix (active users x items, only the revealed ratings) and
  the *held-out* matrix (the prediction targets).
* :func:`make_split` — builds one split from a full matrix.
* :func:`paper_grid` — the 3x3 grid of (ML_100/200/300, Given5/10/20)
  splits used by Tables II and III.
* :func:`subsample_heldout` — shrinks the evaluation workload for the
  Fig. 5 test-set-size sweep (10%..100% of the test users).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "GivenNSplit",
    "make_split",
    "paper_grid",
    "subsample_heldout",
    "TRAINING_SIZES",
    "GIVEN_SIZES",
]

#: Training-set prefixes evaluated in the paper.
TRAINING_SIZES = (100, 200, 300)
#: GivenN values evaluated in the paper.
GIVEN_SIZES = (5, 10, 20)


@dataclass(frozen=True)
class GivenNSplit:
    """One (training set, GivenN) evaluation configuration.

    Attributes
    ----------
    train:
        Rating matrix of the training users (``ML_100``-style prefix).
    given:
        Active users' *revealed* ratings, one row per active user, same
        item columns as ``train``.  Every active user has exactly
        ``given_n`` revealed ratings (users with fewer rated items than
        ``given_n + 1`` are dropped, which cannot happen with the
        paper's >=40-ratings floor).
    heldout:
        Active users' *hidden* ratings — the prediction targets.  Rows
        align with ``given``.
    name:
        Human-readable label, e.g. ``"ML_300/Given10"``.
    """

    train: RatingMatrix
    given: RatingMatrix
    heldout: RatingMatrix
    given_n: int
    name: str = ""
    active_user_ids: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.given.shape != self.heldout.shape:
            raise ValueError("given and heldout must share a shape")
        if self.given.n_items != self.train.n_items:
            raise ValueError("active users must share the training item space")
        overlap = self.given.mask & self.heldout.mask
        if overlap.any():
            raise ValueError("a rating cannot be both given and held out")

    @property
    def n_active_users(self) -> int:
        """Number of active (test) users."""
        return self.given.n_users

    @property
    def n_targets(self) -> int:
        """Number of held-out ratings to predict (``|T|`` in Eq. 15)."""
        return self.heldout.n_ratings

    def targets_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Targets as parallel arrays ``(user_rows, items, ratings)``."""
        users, items = np.nonzero(self.heldout.mask)
        return users, items, self.heldout.values[users, items]


def make_split(
    full: RatingMatrix,
    *,
    n_train_users: int,
    given_n: int,
    n_test_users: int = 200,
    seed: int | np.random.Generator | None = 0,
    name: str | None = None,
) -> GivenNSplit:
    """Build one GivenN split following the paper's protocol.

    The first *n_train_users* rows of *full* become the training matrix
    and the **last** *n_test_users* rows the active users, matching
    "We changed the size of the training set by selecting the first
    100, 200 and 300 users ... We selected the last 200 users as the
    testset."  The *given_n* revealed items per active user are sampled
    uniformly without replacement from that user's rated items.

    Raises
    ------
    ValueError
        If the training prefix and test suffix would overlap, or if an
        active user has fewer than ``given_n + 1`` ratings (no held-out
        target would remain).
    """
    check_positive_int(n_train_users, "n_train_users")
    check_positive_int(given_n, "given_n")
    check_positive_int(n_test_users, "n_test_users")
    if n_train_users + n_test_users > full.n_users:
        raise ValueError(
            f"train prefix ({n_train_users}) and test suffix ({n_test_users}) overlap "
            f"in a matrix of {full.n_users} users"
        )
    rng = as_generator(seed)
    train = full.subset_users(np.arange(n_train_users))
    active_ids = np.arange(full.n_users - n_test_users, full.n_users)
    active = full.subset_users(active_ids)

    given_mask = np.zeros(active.shape, dtype=bool)
    for row in range(active.n_users):
        rated = np.nonzero(active.mask[row])[0]
        if len(rated) < given_n + 1:
            raise ValueError(
                f"active user {active_ids[row]} has only {len(rated)} ratings; "
                f"needs > given_n={given_n}"
            )
        revealed = rng.choice(rated, size=given_n, replace=False)
        given_mask[row, revealed] = True

    heldout_mask = active.mask & ~given_mask
    given = RatingMatrix(
        np.where(given_mask, active.values, 0.0), given_mask, rating_scale=full.rating_scale
    )
    heldout = RatingMatrix(
        np.where(heldout_mask, active.values, 0.0), heldout_mask, rating_scale=full.rating_scale
    )
    label = name if name is not None else f"ML_{n_train_users}/Given{given_n}"
    return GivenNSplit(
        train=train,
        given=given,
        heldout=heldout,
        given_n=given_n,
        name=label,
        active_user_ids=active_ids,
    )


def paper_grid(
    full: RatingMatrix,
    *,
    training_sizes: Sequence[int] = TRAINING_SIZES,
    given_sizes: Sequence[int] = GIVEN_SIZES,
    n_test_users: int = 200,
    seed: int | np.random.Generator | None = 0,
) -> dict[tuple[int, int], GivenNSplit]:
    """The full 3x3 grid of splits behind Tables II and III.

    Returns a dict keyed by ``(n_train_users, given_n)``.  All splits of
    the same ``given_n`` share the revealed-item draws (seeded per
    ``given_n``) so that changing the training size does not also change
    the evaluation targets — the property that makes the columns of
    Table II comparable down the page.
    """
    rng = as_generator(seed)
    given_seeds = {g: int(s) for g, s in zip(given_sizes, rng.integers(0, 2**31, len(given_sizes)))}
    grid: dict[tuple[int, int], GivenNSplit] = {}
    for given_n in given_sizes:
        for n_train in training_sizes:
            grid[(n_train, given_n)] = make_split(
                full,
                n_train_users=n_train,
                given_n=given_n,
                n_test_users=n_test_users,
                seed=given_seeds[given_n],
            )
    return grid


def subsample_heldout(
    split: GivenNSplit,
    fraction: float,
    *,
    seed: int | np.random.Generator | None = 0,
) -> GivenNSplit:
    """Restrict a split to a random *fraction* of its active users.

    Fig. 5 varies the test-set size from 10% to 100% of the last 200
    users; this helper produces those reduced workloads while keeping
    the training matrix untouched.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return split
    rng = as_generator(seed)
    n_keep = max(1, int(round(split.n_active_users * fraction)))
    keep = np.sort(rng.choice(split.n_active_users, size=n_keep, replace=False))
    return GivenNSplit(
        train=split.train,
        given=split.given.subset_users(keep),
        heldout=split.heldout.subset_users(keep),
        given_n=split.given_n,
        name=f"{split.name}@{fraction:.0%}",
        active_user_ids=(
            split.active_user_ids[keep] if split.active_user_ids is not None else None
        ),
    )
