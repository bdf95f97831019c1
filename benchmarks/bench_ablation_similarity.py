"""Ablation A2 — PCC vs pure cosine (VSS) for the GIS.

Section IV-B argues for PCC over Pure Cosine Similarity because cosine
"does not consider the diversity in item ratings" — popular items get
systematically higher raw ratings (the generator plants exactly that
coupling) and cosine rewards the shared offset as similarity.

The ablation swaps the fitted model's GIS for a cosine-built one and
re-evaluates on ML_300/Given10.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.core import CFSF
from repro.core.gis import GlobalItemSimilarity
from repro.eval import evaluate_fitted, format_table
from repro.similarity import (
    adjusted_cosine,
    item_cosine,
    jaccard,
    mean_squared_difference,
)


def _gis_from(sim: np.ndarray) -> GlobalItemSimilarity:
    # An empty neighbour order: build_online_kernel selects the top M.
    return GlobalItemSimilarity(
        sim=sim,
        neighbours=np.empty((sim.shape[0], 0), dtype=np.intp),
        threshold=0.0,
        centering="global_mean",
    )


def _cosine_gis(train) -> GlobalItemSimilarity:
    return _gis_from(item_cosine(train.values, train.mask))


def test_ablation_pcc_vs_cosine_gis(benchmark, ml300_given10):
    split = ml300_given10

    def run():
        model = CFSF().fit(split.train)
        pcc_mae = evaluate_fitted(model, split).mae

        model.gis = _cosine_gis(split.train)
        model.build_online_kernel()
        cos_mae = evaluate_fitted(model, split).mae
        return {"PCC GIS (Eq. 5)": pcc_mae, "cosine (VSS) GIS": cos_mae}

    measured = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["GIS similarity", "MAE"],
            [[k, v] for k, v in measured.items()],
            title="Ablation: item-similarity function for the GIS (ML_300/Given10)",
            float_fmt="{:.4f}",
        )
    )
    # The paper's Section IV-B claim: PCC is the better GIS choice.
    assert measured["PCC GIS (Eq. 5)"] <= measured["cosine (VSS) GIS"] + 1e-4


def test_ablation_alternate_measures(benchmark, ml300_given10):
    """Swap the GIS similarity for every measure the library carries.

    On this substrate the measure barely matters (the Fig. 2 finding:
    the dense smoothed profile makes CFSF robust to *which* similar
    items are picked) — except Jaccard, which ignores rating values
    entirely and loses the most.  The bench records the full picture.
    """
    split = ml300_given10

    def run():
        model = CFSF().fit(split.train)
        train = split.train
        out = {"PCC (Eq. 5, default)": evaluate_fitted(model, split).mae}
        measures = {
            "adjusted cosine": adjusted_cosine(train.values, train.mask),
            "MSD": mean_squared_difference(train.values, train.mask),
            "Jaccard (values ignored)": jaccard(train.mask),
        }
        for label, sim in measures.items():
            model.gis = _gis_from(sim)
            model.build_online_kernel()
            out[label] = evaluate_fitted(model, split).mae
        return out

    measured = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["GIS similarity", "MAE"],
            [[k, v] for k, v in measured.items()],
            title="Ablation: alternate GIS measures (ML_300/Given10)",
            float_fmt="{:.4f}",
        )
    )
    values = list(measured.values())
    assert max(values) - min(values) < 0.05  # robustness, per Fig. 2's finding
    assert all(0.5 < v < 1.2 for v in values)


def test_ablation_neighbour_overlap(benchmark, ml300_given10):
    """How different are the two GIS variants' neighbourhoods?  A
    diagnostic: if the top-M lists were near-identical the accuracy
    ablation above would be vacuous."""
    split = ml300_given10

    def run():
        model = CFSF().fit(split.train)
        pcc_gis = model.gis
        cos_gis = _cosine_gis(split.train)
        overlaps = []
        for item in range(0, split.train.n_items, 10):
            a, _ = pcc_gis.top_m(item, 95)
            b, _ = cos_gis.top_m(item, 95)
            union = max(1, min(len(a), len(b)))
            overlaps.append(len(np.intersect1d(a, b)) / union)
        return float(np.mean(overlaps))

    mean_overlap = run_once(benchmark, run)
    print(f"\nmean top-95 neighbourhood overlap (PCC vs cosine): {mean_overlap:.2%}")
    assert 0.0 < mean_overlap < 1.0
