"""Serving: the fault-tolerant layer between requests and the model.

The paper's O(M·K) online phase is built for live traffic; this
subpackage makes it *operable* under the failures live traffic brings:

* :mod:`~repro.serving.errors` — the typed error taxonomy.
* :mod:`~repro.serving.breaker` — circuit breakers with jittered
  exponential backoff.
* :mod:`~repro.serving.service` — :class:`PredictionService`: input
  validation, per-request deadlines with partial-batch results, the
  CFSF → item-KNN → user-mean → global-mean fallback chain, and hot
  snapshot reload with last-known-good rollback.
* :mod:`~repro.serving.faults` — the deterministic fault-injection
  harness (snapshot corruption, worker death, induced latency,
  poisoned ratings) that the robustness tests drive everything with.
* :mod:`~repro.serving.pool` — :class:`KernelPool`: checkout/return
  pool of cloned fusion kernels (shared read-only matrices, private
  scratch) so concurrent dispatches never race.
* :mod:`~repro.serving.batcher` — :class:`MicroBatcher`: the
  concurrent serving front — coalesces in-flight requests into
  user-sorted batches over the kernel pool, with bounded-queue
  admission control.

See ``docs/robustness.md`` for the operational model and
``docs/performance.md`` for the concurrency/batching design.
"""

from repro.serving.batcher import BatchedPrediction, MicroBatcher
from repro.serving.breaker import CircuitBreaker, CircuitState
from repro.serving.errors import (
    InvalidRequestError,
    ModelUnavailableError,
    OverloadedError,
    ServingError,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
)
from repro.serving.pool import KernelPool
from repro.serving.service import PredictionService, ServingResult, StageFailure

__all__ = [
    "BatchedPrediction",
    "CircuitBreaker",
    "CircuitState",
    "InvalidRequestError",
    "KernelPool",
    "MicroBatcher",
    "ModelUnavailableError",
    "OverloadedError",
    "PredictionService",
    "ServingError",
    "ServingResult",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotVersionError",
    "StageFailure",
]
