"""The paired gate's decision rule, fed synthetic servebench results.

``benchmarks/check_regression.py`` runs servebench on two checkouts;
these tests call its pure ``compare`` on made-up result lines instead,
so the rule is checked without starting a process.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

END_TO_END = [
    {"name": "rps", "better": "higher", "bound": 0.25},
    {"name": "p50_ms", "better": "lower", "bound": 0.25},
]
WORKLOADS = ("hot_repeat", "profile_writes")
BASE = {"rps": 20_000.0, "p50_ms": 1.2}
N = gate.PAIRS
#: Fewest pairs head must be worse in for a regression to count.
MOST = math.ceil(gate.MIN_WORSE_SHARE * N)


def result(scale=None, correct=True, attempted=100_000, failed=0, values=BASE):
    """One ``run.py --workload all`` result line; *scale* maps
    ``(workload, metric)`` to a factor on *values*."""
    scale = scale or {}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "workloads": {
            w: {m: {"value": v * scale.get((w, m), 1.0), "unit": ""} for m, v in values.items()}
            for w in WORKLOADS
        },
    }


def pairs_with(head_scales, end_to_end=END_TO_END, values=BASE, **head_kw):
    """Compare pairs whose base is *values* and whose i-th head scales
    them by ``head_scales[i]``."""
    return gate.compare(end_to_end, [(result(values=values),
                                      result(s, values=values, **head_kw))
                                     for s in head_scales])


def test_identical_runs_pass():
    assert pairs_with([{}] * N) == []


def test_noise_inside_every_bound_passes():
    factors = [0.9, 1.1, 1.15, 0.85, 1.05, 0.95]
    scales = [{(w, m): f for w in WORKLOADS for m in BASE} for f in (factors * N)[:N]]
    assert pairs_with(scales) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_median_worse_than_bound_in_most_pairs_fails(workload):
    scales = [{(workload, "p50_ms"): 1.4}] * MOST + [{(workload, "p50_ms"): 0.9}] * (N - MOST)
    problems = pairs_with(scales)
    assert len(problems) == 1
    assert problems[0].startswith(f"{workload} p50_ms")


def test_median_worse_than_bound_in_too_few_pairs_passes():
    scales = [{("hot_repeat", "p50_ms"): 1.4}] * (MOST - 1) + [{("hot_repeat", "p50_ms"): 0.9}]
    assert len(scales) <= N
    scales += [{}] * (N - len(scales))
    assert gate.worse("lower", 1.4, 1.0, 0.25)
    assert pairs_with(scales) == []


def test_median_worse_than_bound_in_a_minority_of_pairs_passes():
    # Base varies across pairs (seeds differ); head is worse in two
    # pairs only, yet its median is far above base's.
    base_p50 = [1.0, 1.0, 1.0, 1.0, 10.0, 10.0]
    head_p50 = [3.0, 3.0, 0.9, 0.9, 9.0, 9.0]
    pairs = []
    for b, h in zip(base_p50, head_p50):
        pairs.append((result({("profile_writes", "p50_ms"): b}),
                      result({("profile_writes", "p50_ms"): h})))
    assert gate.worse("lower", 3.0, 1.0, 0.25)  # the median did get worse
    assert gate.compare(END_TO_END, pairs) == []


@pytest.mark.parametrize(
    ("metric", "factor", "fails"),
    [
        ("rps", 0.6, True),      # higher is better: fewer req/s is worse
        ("rps", 1.6, False),
        ("p50_ms", 1.6, True),   # lower is better: more ms is worse
        ("p50_ms", 0.6, False),
    ],
)
def test_direction_of_better_is_honoured(metric, factor, fails):
    problems = pairs_with([{("hot_repeat", metric): factor}] * N)
    assert bool(problems) is fails
    if fails:
        assert problems[0].startswith(f"hot_repeat {metric}")


@pytest.mark.parametrize("side", ["base", "head"])
def test_incorrect_answers_fail(side):
    pairs = [(result(), result())] * N
    bad = result(correct=False)
    pairs[2] = (bad, result()) if side == "base" else (result(), bad)
    assert gate.compare(END_TO_END, pairs) == [f"{side} run 3 is incorrect"]


def test_higher_failed_share_fails():
    assert pairs_with([{}] * N, failed=3)[0].startswith("failed share")


def test_failed_share_no_higher_than_base_passes():
    pairs = [(result(failed=5), result(failed=2))] * N
    assert gate.compare(END_TO_END, pairs) == []


def test_a_metric_added_to_the_spec_is_gated():
    spec = END_TO_END + [{"name": "new_ms", "better": "lower", "bound": 0.1}]
    values = {**BASE, "new_ms": 2.0}
    assert pairs_with([{}] * N, end_to_end=spec, values=values) == []
    problems = pairs_with([{("profile_writes", "new_ms"): 1.2}] * N,
                          end_to_end=spec, values=values)
    assert len(problems) == 1
    assert problems[0].startswith("profile_writes new_ms")


def _tree(root, run_py):
    (root / "servebench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text("{}")
    (root / "servebench" / "run.py").write_text(run_py)
    return root


def test_a_changed_benchmark_is_not_compared(tmp_path, capsys):
    base = _tree(tmp_path / "base", "old")
    head = _tree(tmp_path / "head", "new")
    assert gate.main([str(base), str(head)]) == 0
    assert "nothing compared" in capsys.readouterr().out


def test_bytecode_caches_do_not_count_as_a_benchmark_change(tmp_path):
    base = _tree(tmp_path / "base", "same")
    head = _tree(tmp_path / "head", "same")
    (head / "servebench" / "__pycache__").mkdir()
    (head / "servebench" / "__pycache__" / "run.cpython-312.pyc").write_bytes(b"\0")
    assert gate.bench_files(base) == gate.bench_files(head)
