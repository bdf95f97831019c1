"""Loaders for the on-disk MovieLens file formats.

The paper evaluates on the GroupLens MovieLens dataset.  This
environment has no network access, so the benchmark harness defaults to
the calibrated synthetic generator (:mod:`repro.data.synthetic`) — but
when a real MovieLens copy is available locally, these loaders let
every experiment run on the genuine data unchanged:

* :func:`load_ml100k` — the ``u.data`` tab-separated format
  (``user \\t item \\t rating \\t timestamp``) of MovieLens-100K.
* :func:`load_ml1m` — the ``ratings.dat`` ``::``-separated format of
  MovieLens-1M.
* :func:`load_ratings_file` — autodetects the two formats.
* :func:`paper_subsample` — reproduces the paper's preprocessing:
  500 users with >= 40 ratings over the 1000 most-rated items.

All loaders re-index users and items densely (original ids are
returned) and produce a :class:`~repro.data.matrix.RatingMatrix`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.utils.rng import as_generator

__all__ = [
    "LoadedRatings",
    "load_ml100k",
    "load_ml1m",
    "load_ratings_file",
    "paper_subsample",
    "find_local_movielens",
]

#: Directories probed by :func:`find_local_movielens`, in order.
SEARCH_PATHS = (
    "/root/data",
    "/root/datasets",
    "/usr/share/movielens",
    os.path.expanduser("~/ml-100k"),
    os.path.expanduser("~/ml-1m"),
    ".",
)


@dataclass(frozen=True)
class LoadedRatings:
    """A loaded rating matrix plus the original id mappings."""

    ratings: RatingMatrix
    user_ids: np.ndarray = field(repr=False)
    item_ids: np.ndarray = field(repr=False)


def _parse_lines(path: str, sep: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse ``user<sep>item<sep>rating[<sep>timestamp]`` lines; any
    field after the rating is ignored."""
    users: list[int] = []
    items: list[int] = []
    ratings: list[float] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: expected >=3 fields, got {len(parts)}")
            users.append(int(parts[0]))
            items.append(int(parts[1]))
            ratings.append(float(parts[2]))
    if not users:
        raise ValueError(f"{path}: no ratings found")
    return (
        np.array(users, dtype=np.int64),
        np.array(items, dtype=np.int64),
        np.array(ratings, dtype=np.float64),
    )


def _densify(users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> LoadedRatings:
    """Re-index ids densely and build the matrix."""
    user_ids, user_idx = np.unique(users, return_inverse=True)
    item_ids, item_idx = np.unique(items, return_inverse=True)
    P, Q = len(user_ids), len(item_ids)
    values = np.zeros((P, Q), dtype=np.float64)
    mask = np.zeros((P, Q), dtype=bool)
    values[user_idx, item_idx] = ratings
    mask[user_idx, item_idx] = True
    return LoadedRatings(
        ratings=RatingMatrix(values, mask, rating_scale=(1.0, 5.0)),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def load_ml100k(path: str) -> LoadedRatings:
    """Load a MovieLens-100K ``u.data`` file (tab-separated)."""
    return _densify(*_parse_lines(path, "\t"))


def load_ml1m(path: str) -> LoadedRatings:
    """Load a MovieLens-1M ``ratings.dat`` file (``::``-separated)."""
    return _densify(*_parse_lines(path, "::"))


def load_ratings_file(path: str) -> LoadedRatings:
    """Load a ratings file, autodetecting the 100K vs 1M format."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
    if "::" in first:
        return load_ml1m(path)
    if "\t" in first:
        return load_ml100k(path)
    raise ValueError(f"{path}: unrecognised MovieLens format (no tab or '::' separator)")


def find_local_movielens() -> str | None:
    """Probe well-known locations for a MovieLens ratings file.

    Returns the first existing path among ``u.data`` / ``ratings.dat``
    under :data:`SEARCH_PATHS`, or ``None`` when no local copy exists
    (the usual case in this offline environment).
    """
    for root in SEARCH_PATHS:
        for name in ("u.data", "ratings.dat"):
            candidate = os.path.join(root, name)
            if os.path.isfile(candidate):
                return candidate
    return None


def paper_subsample(
    loaded: LoadedRatings,
    *,
    n_users: int = 500,
    n_items: int = 1000,
    min_ratings: int = 40,
    seed: int | np.random.Generator | None = 0,
) -> RatingMatrix:
    """Reproduce the paper's preprocessing on a full MovieLens dump.

    Section V-A: "We randomly extracted 500 users from MovieLens, where
    each user rated at least 40 movies."  Items are restricted to the
    *n_items* most-rated movies first (MovieLens-100K has 1682 movies;
    the paper's Table I reports 1000), then users are filtered by the
    minimum-rating requirement *within those items* and sampled.

    Raises
    ------
    ValueError
        If fewer than *n_users* users satisfy the rating floor.
    """
    rng = as_generator(seed)
    rm = loaded.ratings
    top_items = np.argsort(-rm.item_counts(), kind="stable")[:n_items]
    rm = rm.subset_items(np.sort(top_items))
    eligible = np.nonzero(rm.user_counts() >= min_ratings)[0]
    if len(eligible) < n_users:
        raise ValueError(
            f"only {len(eligible)} users have >= {min_ratings} ratings; need {n_users}"
        )
    chosen = rng.choice(eligible, size=n_users, replace=False)
    return rm.subset_users(np.sort(chosen))
