"""Parallel substrate: multi-process online prediction.

Addresses the paper's Section VI future work ("how CFSF can improve
its scalability in a parallel manner") for the online phase:
:class:`~repro.parallel.executor.ParallelPredictor` shards
``predict_many`` across a process pool (copy-on-write model
inheritance, LPT load balancing by active user via
:func:`~repro.parallel.executor.greedy_partition`).

The offline GIS is not parallelised here: it is one BLAS-backed matrix
product, and tiling it over processes measured slower than the serial
product (EXPERIMENTS.md, E1).
"""

from repro.parallel.executor import ParallelPredictor, greedy_partition, recommended_workers

__all__ = ["ParallelPredictor", "greedy_partition", "recommended_workers"]
