"""Ablation A1 — fusion-component knockouts and design-choice switches.

Not a paper table; quantifies the design choices DESIGN.md calls out,
on ML_300/Given10:

* component knockouts: SIR'-only, SUR'-only, SUIR'-only vs the fused
  default (the paper's Eq. 14 rationale),
* ``adjust_biases`` on/off (the documented substrate calibration:
  the literal raw Eq. 12 forms vs the mean-offset forms),
* the intermediate-result cache on/off (accuracy must be identical;
  only latency may move),
* smoothing-shrinkage beta (Eq. 8 literal vs shrunk deviations).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.core import CFSF
from repro.eval import evaluate, evaluate_fitted, format_table


def test_ablation_fusion_components(benchmark, ml300_given10):
    split = ml300_given10

    def run():
        out = {}
        model = CFSF().fit(split.train)
        variants = {
            "fused (paper defaults)": dict(lam=0.8, delta=0.1),
            "SIR' only": dict(lam=0.0, delta=0.0),
            "SUR' only": dict(lam=1.0, delta=0.0),
            "SUIR' only": dict(lam=0.8, delta=1.0),
            "no SUIR' (delta=0)": dict(lam=0.8, delta=0.0),
        }
        for label, overrides in variants.items():
            model.config = model.config.with_(**overrides)
            out[label] = evaluate_fitted(model, split).mae
        return out

    measured = run_once(benchmark, run)

    print()
    print(
        format_table(
            ["variant", "MAE"],
            [[k, v] for k, v in measured.items()],
            title="Ablation: fusion components on ML_300/Given10",
            float_fmt="{:.4f}",
        )
    )

    fused = measured["fused (paper defaults)"]
    # Fusion beats both single-source components (the Eq. 14 rationale).
    assert fused < measured["SIR' only"]
    assert fused < measured["SUR' only"]
    # The bias-adjusted SUIR' is a *strong* component on this substrate
    # (unlike the paper's raw SUIR', which is a weak supplement); the
    # paper-default fusion must at least stay within noise of it.
    assert fused <= measured["SUIR' only"] + 0.005


def test_ablation_bias_adjustment(benchmark, ml300_given10):
    split = ml300_given10

    def run():
        adj = evaluate(CFSF(adjust_biases=True), split).mae
        raw = evaluate(CFSF(adjust_biases=False), split).mae
        return {"adjusted (default)": adj, "literal Eq. 12 (raw)": raw}

    measured = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["variant", "MAE"],
            [[k, v] for k, v in measured.items()],
            title="Ablation: bias-adjusted vs literal Eq. 12 components",
            float_fmt="{:.4f}",
        )
    )
    # The calibration is load-bearing on this substrate.
    assert measured["adjusted (default)"] < measured["literal Eq. 12 (raw)"]


def test_ablation_cache_accuracy_invariant(benchmark, ml300_given10):
    split = ml300_given10

    def run():
        with_cache = evaluate(CFSF(cache_size=4096), split)
        without = evaluate(CFSF(cache_size=0), split)
        return with_cache, without

    with_cache, without = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["variant", "MAE", "predict (s)"],
            [
                ["cache on", with_cache.mae, with_cache.predict_seconds],
                ["cache off", without.mae, without.predict_seconds],
            ],
            title="Ablation: intermediate-result cache",
            float_fmt="{:.4f}",
        )
    )
    assert with_cache.mae == without.mae  # accuracy must be identical


def test_ablation_smoothing_shrinkage(benchmark, ml300_given10):
    split = ml300_given10

    def run():
        out = {}
        for beta in (0.0, 1.0, 3.0):
            out[beta] = evaluate(CFSF(smoothing_shrinkage=beta), split).mae
        return out

    measured = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["shrinkage beta", "MAE"],
            [[k, v] for k, v in measured.items()],
            title="Ablation: Eq. 8 deviation shrinkage",
            float_fmt="{:.4f}",
        )
    )
    values = np.array(list(measured.values()))
    assert values.max() - values.min() < 0.02  # a refinement, not a cliff
