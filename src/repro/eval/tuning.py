"""Hyper-parameter search for CFSF.

The paper states tuned values for MovieLens (Section V-C: C=30, λ=0.8,
δ=0.1, K=25, M=95, w=0.35) without describing the search; any new
deployment has to redo it.  This module provides that machinery:

* an **inner validation split** carved from the training users only
  (the held-out test users stay untouched — tuning on the test set is
  the classic CF-evaluation sin),
* **grid** and seeded **random** search over any subset of
  :class:`~repro.core.config.CFSFConfig` fields,
* **fit sharing**: trials that agree on every offline field (cluster
  count, GIS threshold, centering, ...) reuse one fitted model and
  only re-run the online phase, which makes λ/δ/ε/M/K sweeps hundreds
  of times cheaper than naive refitting.

``examples/parameter_sweep.py`` covers one-dimensional sensitivity;
this module is for the joint search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import CFSFConfig
from repro.core.model import CFSF
from repro.data.matrix import RatingMatrix
from repro.data.splits import make_split
from repro.eval.protocol import evaluate_fitted
from repro.eval.runner import OFFLINE_PARAMETERS
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["Trial", "TuningResult", "tune_cfsf"]


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration."""

    overrides: tuple[tuple[str, object], ...]
    mae: float

    def as_dict(self) -> dict[str, object]:
        """The overrides as a plain dict."""
        return dict(self.overrides)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a search.

    Attributes
    ----------
    best_config:
        The full winning configuration (base + best overrides).
    best_mae:
        Its validation MAE.
    trials:
        Every evaluated trial, in evaluation order.
    """

    best_config: CFSFConfig
    best_mae: float
    trials: tuple[Trial, ...] = field(repr=False)

    @property
    def n_trials(self) -> int:
        """Number of evaluated configurations."""
        return len(self.trials)

    def top(self, n: int = 5) -> list[Trial]:
        """The *n* best trials, ascending MAE."""
        return sorted(self.trials, key=lambda t: t.mae)[:n]


def _combinations(
    param_grid: Mapping[str, Sequence],
    *,
    search: str,
    n_random: int,
    seed,
) -> list[dict[str, object]]:
    names = list(param_grid)
    if search == "grid":
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(param_grid[n] for n in names))
        ]
    if search == "random":
        rng = as_generator(seed)
        combos = []
        for _ in range(n_random):
            combos.append({n: param_grid[n][int(rng.integers(len(param_grid[n])))] for n in names})
        return combos
    raise ValueError(f"search must be 'grid' or 'random', got {search!r}")


def tune_cfsf(
    train: RatingMatrix,
    param_grid: Mapping[str, Sequence],
    *,
    base_config: CFSFConfig | None = None,
    n_valid_users: int = 50,
    given_n: int = 10,
    search: str = "grid",
    n_random: int = 30,
    seed: int | np.random.Generator | None = 0,
) -> TuningResult:
    """Search *param_grid* for the lowest validation MAE.

    Parameters
    ----------
    train:
        The training matrix.  Its last *n_valid_users* rows become the
        inner validation actives; the rest is the inner training set.
    param_grid:
        ``{config_field: candidate values}``.  Fields must exist on
        :class:`~repro.core.config.CFSFConfig`.
    search:
        ``"grid"`` (every combination) or ``"random"`` (*n_random*
        seeded draws from the grid).
    seed:
        Seeds both the inner split's GivenN draw and random search.

    Examples
    --------
    >>> from repro.data import make_movielens_like, SyntheticConfig
    >>> rm = make_movielens_like(SyntheticConfig(
    ...     n_users=80, n_items=60, mean_ratings_per_user=20,
    ...     min_ratings_per_user=12), seed=0).ratings
    >>> result = tune_cfsf(rm, {"lam": [0.2, 0.8]}, n_valid_users=20,
    ...                    given_n=5,
    ...                    base_config=CFSFConfig(n_clusters=4,
    ...                                           top_m_items=10,
    ...                                           top_k_users=5))
    >>> result.n_trials
    2
    """
    base = base_config or CFSFConfig()
    check_positive_int(n_valid_users, "n_valid_users")
    if n_valid_users >= train.n_users:
        raise ValueError(
            f"n_valid_users ({n_valid_users}) must be < n_users ({train.n_users})"
        )
    unknown = [k for k in param_grid if not hasattr(base, k)]
    if unknown:
        raise ValueError(f"unknown CFSFConfig fields: {unknown}")
    if any(len(v) == 0 for v in param_grid.values()):
        raise ValueError("every parameter must offer at least one value")

    rng = as_generator(seed)
    inner = make_split(
        train,
        n_train_users=train.n_users - n_valid_users,
        given_n=given_n,
        n_test_users=n_valid_users,
        seed=rng,
    )

    combos = _combinations(param_grid, search=search, n_random=n_random, seed=rng)
    # Group by the offline-relevant fields so one fit serves a group.
    offline_fields = sorted(OFFLINE_PARAMETERS)

    def offline_key(overrides: dict[str, object]) -> tuple:
        merged = base.with_(**overrides)
        return tuple(getattr(merged, f) for f in offline_fields)

    trials: list[Trial] = []
    fitted: dict[tuple, CFSF] = {}
    for overrides in combos:
        key = offline_key(overrides)
        cfg = base.with_(**overrides)
        model = fitted.get(key)
        if model is None:
            model = CFSF(cfg)
            model.fit(inner.train)
            fitted[key] = model
        model.config = cfg
        res = evaluate_fitted(model, inner)
        trials.append(Trial(overrides=tuple(sorted(overrides.items())), mae=res.mae))

    best = min(trials, key=lambda t: t.mae)
    return TuningResult(
        best_config=base.with_(**dict(best.overrides)),
        best_mae=best.mae,
        trials=tuple(trials),
    )
