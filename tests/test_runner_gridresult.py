"""Additional coverage for GridResult and protocol result helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.protocol import EvaluationResult
from repro.eval.runner import GridResult


def _result(name: str, split: str, mae: float, predict_s: float = 0.1) -> EvaluationResult:
    return EvaluationResult(
        model_name=name,
        split_name=split,
        mae=mae,
        rmse=mae * 1.2,
        n_targets=100,
        fit_seconds=0.5,
        predict_seconds=predict_s,
    )


class TestGridResult:
    def test_mae_map(self):
        grid = GridResult(results=(_result("A", "s1", 0.7), _result("B", "s1", 0.8)))
        assert grid.mae_map() == {("s1", "A"): 0.7, ("s1", "B"): 0.8}

    def test_best_method_per_split(self):
        grid = GridResult(
            results=(
                _result("A", "s1", 0.7),
                _result("B", "s1", 0.65),
                _result("A", "s2", 0.6),
                _result("B", "s2", 0.61),
            )
        )
        assert grid.best_method_per_split() == {"s1": "B", "s2": "A"}

    def test_empty_grid(self):
        grid = GridResult(results=())
        assert grid.mae_map() == {}
        assert grid.best_method_per_split() == {}


class TestEvaluationResult:
    def test_throughput(self):
        res = _result("A", "s", 0.7, predict_s=0.5)
        assert res.throughput == pytest.approx(200.0)

    def test_throughput_zero_time(self):
        res = EvaluationResult(
            model_name="A", split_name="s", mae=0.7, rmse=0.8,
            n_targets=10, fit_seconds=0.0, predict_seconds=0.0,
        )
        assert res.throughput == 0.0

    def test_light_strips_payload(self):
        res = EvaluationResult(
            model_name="A", split_name="s", mae=0.7, rmse=0.8,
            n_targets=3, fit_seconds=0.1, predict_seconds=0.1,
            predictions=np.zeros(3),
        )
        light = res.light()
        assert light.predictions is None
        assert light.mae == res.mae and light.model_name == res.model_name
