"""Experiment runner: the paper's evaluation grid as reusable driver code.

Each benchmark in ``benchmarks/`` is a thin wrapper around a function
here, so the same experiment can also be run from the examples or a
REPL.  The runner owns:

* the Table II/III grid (all methods x ML_100/200/300 x Given5/10/20),
* one-parameter sweeps over CFSF (Figs. 2–4 and 6–8), refitting only
  when the swept parameter touches the offline phase,
* the Fig. 5 scalability sweep over test-set fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.baselines.base import Recommender
from repro.core.config import CFSFConfig
from repro.core.model import CFSF
from repro.data.matrix import RatingMatrix
from repro.data.splits import GivenNSplit, paper_grid, subsample_heldout
from repro.eval.protocol import EvaluationResult, evaluate, evaluate_fitted

__all__ = [
    "GridResult",
    "run_grid",
    "sweep_cfsf_parameter",
    "scalability_sweep",
    "OFFLINE_PARAMETERS",
]

#: CFSF config fields that require a refit when swept.
OFFLINE_PARAMETERS = frozenset(
    {
        "n_clusters",
        "gis_threshold",
        "centering",
        "min_overlap",
        "kmeans_max_iter",
        "kmeans_seed",
        "smoothing_shrinkage",
    }
)


@dataclass(frozen=True)
class GridResult:
    """All evaluation results of a Table II/III style run."""

    results: tuple[EvaluationResult, ...]

    def mae_map(self) -> dict[tuple[str, str], float]:
        """``{(split_name, method): mae}`` for the report formatter."""
        return {(r.split_name, r.model_name): r.mae for r in self.results}

    def best_method_per_split(self) -> dict[str, str]:
        """``{split_name: winning method}`` by MAE."""
        best: dict[str, EvaluationResult] = {}
        for r in self.results:
            cur = best.get(r.split_name)
            if cur is None or r.mae < cur.mae:
                best[r.split_name] = r
        return {k: v.model_name for k, v in best.items()}


def run_grid(
    full: RatingMatrix,
    model_factories: Mapping[str, Callable[[], Recommender]],
    *,
    training_sizes: Sequence[int] = (100, 200, 300),
    given_sizes: Sequence[int] = (5, 10, 20),
    n_test_users: int = 200,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> GridResult:
    """Evaluate every method on every (training size, GivenN) split.

    Parameters
    ----------
    full:
        The 500-user evaluation matrix.
    model_factories:
        ``{name: zero-arg factory}`` — a *fresh* model is built per
        split so no state leaks across cells.
    progress:
        Optional callback receiving one line per completed cell.
    """
    grid = paper_grid(
        full,
        training_sizes=training_sizes,
        given_sizes=given_sizes,
        n_test_users=n_test_users,
        seed=seed,
    )
    results: list[EvaluationResult] = []
    for (n_train, given_n), split in sorted(grid.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
        for name, factory in model_factories.items():
            raw = evaluate(factory(), split)
            # Label with the caller's key, not the model's display name,
            # so two configurations of one class stay distinguishable.
            res = EvaluationResult(
                model_name=name,
                split_name=raw.split_name,
                mae=raw.mae,
                rmse=raw.rmse,
                n_targets=raw.n_targets,
                fit_seconds=raw.fit_seconds,
                predict_seconds=raw.predict_seconds,
            )
            results.append(res)
            if progress is not None:
                progress(
                    f"{split.name:16s} {name:8s} MAE={res.mae:.4f} "
                    f"(fit {res.fit_seconds:.2f}s, predict {res.predict_seconds:.2f}s)"
                )
    return GridResult(results=tuple(results))


def sweep_cfsf_parameter(
    split: GivenNSplit,
    parameter: str,
    values: Iterable,
    *,
    base_config: CFSFConfig | None = None,
) -> list[tuple[object, EvaluationResult]]:
    """Evaluate CFSF across values of one config field (Figs. 2–4, 6–8).

    Online-only parameters (λ, δ, ε, M, K, pools) reuse a single fitted
    model; offline parameters (C, thresholds, centering) refit per
    value.  The returned list preserves the input value order.
    """
    base = base_config or CFSFConfig()
    offline = parameter in OFFLINE_PARAMETERS
    out: list[tuple[object, EvaluationResult]] = []
    shared_model: CFSF | None = None
    if not offline:
        shared_model = CFSF(base)
        shared_model.fit(split.train)
    for value in values:
        cfg = base.with_(**{parameter: value})
        if offline:
            model = CFSF(cfg)
            out.append((value, evaluate(model, split).light()))
        else:
            assert shared_model is not None
            shared_model.config = cfg
            out.append((value, evaluate_fitted(shared_model, split).light()))
    return out


def scalability_sweep(
    split: GivenNSplit,
    model_factories: Mapping[str, Callable[[], Recommender]],
    *,
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    seed: int = 0,
    repeats: int = 1,
) -> dict[str, list[tuple[float, float]]]:
    """Fig. 5: online response time vs test-set fraction.

    Each model is fitted **once** on the split's training matrix; then
    the held-out workload is subsampled at each fraction and only the
    online phase is timed (best of *repeats*).

    Returns ``{method: [(fraction, seconds), ...]}``.
    """
    out: dict[str, list[tuple[float, float]]] = {}
    for name, factory in model_factories.items():
        model = factory()
        model.fit(split.train)
        series: list[tuple[float, float]] = []
        for frac in fractions:
            sub = subsample_heldout(split, frac, seed=seed)
            best = np.inf
            for _ in range(max(1, repeats)):
                res = evaluate_fitted(model, sub)
                best = min(best, res.predict_seconds)
            series.append((frac, float(best)))
        out[name] = series
    return out
