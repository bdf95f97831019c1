"""Paired CI gate: does the head checkout serve slower than the base?

    python benchmarks/check_regression.py <base-checkout> <head-checkout>

Runs ``<tree>/servebench/run.py --workload all`` in ``PAIRS`` pairs of
``SECONDS``-second runs; both runs of a pair share a seed, and the side
that runs first alternates, so drift in the host's speed hits both
sides alike.  For every ``end_to_end`` metric in head's
``BENCHMARK.json`` and every workload, the gate fails when head's
median is worse than base's by more than the metric's ``bound`` *and*
head is worse in at least ``MIN_WORSE_SHARE`` of the pairs.  It also
fails when a run exits non-zero or is ``"correct": false``, or when
head fails a larger share of its requests than base.  If
``servebench/`` or ``BENCHMARK.json`` differ between the trees, the
benchmark changed: nothing is compared, and it is re-baselined after
it lands.  docs/performance.md, "CI paired gate", gives the
measurements behind the constants.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Pairs of runs per gate (pair i runs seed i) and seconds per run.
PAIRS = 6
SECONDS = 10
#: Share of the pairs head must be worse in before a median counts:
#: all of them, since host stalls move a median past its bound alone.
MIN_WORSE_SHARE = 1.0


def worse(better: str, head: float, base: float, bound: float = 0.0) -> bool:
    """Whether *head* is worse than *base* by more than *bound* (relative)."""
    if better == "lower":
        return head > base * (1.0 + bound)
    return head < base * (1.0 - bound)


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(end_to_end: list[dict], pairs: list[tuple[dict, dict]], log=None) -> list[str]:
    """The gate's rule: its reasons to fail, one line each; none means pass.

    *end_to_end* is ``BENCHMARK.json``'s list of that name; each pair
    is ``(base, head)``, two result lines of ``run.py --workload all``.
    *log*, if given, receives one line per workload and metric.
    """
    bases, heads = [b for b, _ in pairs], [h for _, h in pairs]
    problems = [f"{side} run {i + 1} is incorrect"
                for side, runs in (("base", bases), ("head", heads))
                for i, run in enumerate(runs) if not run["correct"]]
    if failed_share(heads) > failed_share(bases):
        problems.append(f"failed share {failed_share(bases):.4g} -> {failed_share(heads):.4g}")
    for workload in heads[0]["workloads"]:
        for metric in end_to_end:
            name, better = metric["name"], metric["better"]
            base = [b["workloads"][workload][name]["value"] for b in bases]
            head = [h["workloads"][workload][name]["value"] for h in heads]
            base_med, head_med = statistics.median(base), statistics.median(head)
            n_worse = sum(worse(better, h, b) for b, h in zip(base, head))
            line = (f"{workload} {name}: {base_med:.4g} -> {head_med:.4g}, "
                    f"worse in {n_worse}/{len(pairs)} pairs, bound {metric['bound']}")
            if (worse(better, head_med, base_med, metric["bound"])
                    and n_worse >= MIN_WORSE_SHARE * len(pairs)):
                problems.append(line)
            if log:
                log(line)
    return problems


def bench_files(tree: Path) -> dict[str, bytes]:
    """What defines the benchmark in *tree*: servebench's files and BENCHMARK.json."""
    files = [tree / "BENCHMARK.json", *(tree / "servebench").rglob("*")]
    return {str(f.relative_to(tree)): f.read_bytes() for f in files
            if f.is_file() and not any(part == "__pycache__" or part.startswith(".")
                                       for part in f.relative_to(tree).parts)}


def run(tree: Path, seed: int) -> tuple[int, dict | None]:
    """One ``--workload all`` run: its exit code and its result line."""
    cmd = [sys.executable, str(tree / "servebench" / "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(SECONDS)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    print(f"{tree} seed {seed}: exit {proc.returncode}, "
          f"{time.perf_counter() - start:.0f} s\n{last}", flush=True)
    return proc.returncode, json.loads(last) if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the head commit")
    args = parser.parse_args(argv)
    base_tree, head_tree = args.base.resolve(), args.head.resolve()
    if bench_files(base_tree) != bench_files(head_tree):
        print("paired gate: servebench/ or BENCHMARK.json changed; nothing compared, "
              "re-baseline after this lands")
        return 0
    pairs, problems = [], []
    for seed in range(1, PAIRS + 1):
        order = (base_tree, head_tree) if seed % 2 else (head_tree, base_tree)
        done = {tree: run(tree, seed) for tree in order}
        problems += [f"{tree} seed {seed} exited {code}"
                     for tree, (code, _) in done.items() if code != 0]
        pairs.append((done[base_tree][1], done[head_tree][1]))
    if not problems:
        spec = json.loads((head_tree / "BENCHMARK.json").read_text())
        problems = compare(spec["end_to_end"], pairs, log=print)
    for problem in problems:
        print(f"paired gate: FAIL: {problem}")
    print(f"paired gate: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
