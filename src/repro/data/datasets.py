"""Dataset registry: one place the examples/benchmarks get data from.

Resolution order for :func:`default_dataset`:

1. A real MovieLens file found on disk (``u.data`` / ``ratings.dat`` in
   the well-known locations probed by
   :func:`repro.data.movielens.find_local_movielens`), subsampled with
   the paper's preprocessing (500 users x 1000 most-rated items).
2. Otherwise the calibrated synthetic generator
   (:func:`repro.data.synthetic.make_movielens_like`).

The resolved matrix is cached per-process so that the many benchmark
entry points do not regenerate it.
"""

from __future__ import annotations

from repro.data.matrix import RatingMatrix
from repro.data.movielens import find_local_movielens, load_ratings_file, paper_subsample
from repro.data.synthetic import SyntheticConfig, make_movielens_like

__all__ = ["default_dataset", "dataset_source", "clear_dataset_cache"]

_CACHE: dict[tuple, tuple[str, RatingMatrix]] = {}


def default_dataset(
    *,
    seed: int = 0,
    config: SyntheticConfig | None = None,
    prefer_real: bool = True,
) -> RatingMatrix:
    """Return the 500x1000 evaluation matrix (real if available)."""
    key = (seed, config, prefer_real)
    if key not in _CACHE:
        _CACHE[key] = _resolve(seed=seed, config=config, prefer_real=prefer_real)
    return _CACHE[key][1]


def dataset_source(
    *,
    seed: int = 0,
    config: SyntheticConfig | None = None,
    prefer_real: bool = True,
) -> str:
    """Where :func:`default_dataset` got its data: ``"movielens:<path>"``
    or ``"synthetic"``.  Recorded in EXPERIMENTS.md next to the results."""
    key = (seed, config, prefer_real)
    if key not in _CACHE:
        _CACHE[key] = _resolve(seed=seed, config=config, prefer_real=prefer_real)
    return _CACHE[key][0]


def clear_dataset_cache() -> None:
    """Drop all cached matrices (used by tests)."""
    _CACHE.clear()


def _resolve(
    *, seed: int, config: SyntheticConfig | None, prefer_real: bool
) -> tuple[str, RatingMatrix]:
    if prefer_real:
        path = find_local_movielens()
        if path is not None:
            try:
                loaded = load_ratings_file(path)
                matrix = paper_subsample(loaded, seed=seed)
                return f"movielens:{path}", matrix
            except (ValueError, OSError):
                # A malformed or too-small local file falls back to the
                # generator rather than failing the whole harness.
                pass
    dataset = make_movielens_like(config, seed=seed)
    return "synthetic", dataset.ratings

