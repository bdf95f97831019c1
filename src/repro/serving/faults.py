"""Deterministic fault injection for the serving stack.

Every degradation path in :mod:`repro.serving` is exercised by tests
rather than trusted on faith; this module supplies the faults.  All
injectors are deterministic (seeded byte flips, countdown-based
failures, flag-file worker kills) so a failing robustness test
reproduces exactly.

Injectable faults
-----------------
``corrupt_snapshot`` / ``truncate_snapshot``
    Damage a saved model file in place (seeded XOR byte flips, or
    truncation) to drive the checksum / bad-archive paths of
    :func:`repro.core.persistence.load_model`.
``poison_given``
    Return a copy of a given matrix carrying NaN or out-of-range
    observed ratings, *bypassing* :class:`~repro.data.matrix.
    RatingMatrix` validation — simulating an upstream ingestion bug.
``FlakyRecommender`` / ``SlowRecommender``
    Wrap any recommender to fail its first *n* ``predict_many`` calls,
    or to add induced latency, while proxying everything else (so the
    CFSF-specific fallback stages still see ``.gis`` etc.).
``KillWorkerOnce`` / ``KillWorkerAlways`` / ``SleepInWorker``
    Picklable worker hooks for :class:`~repro.parallel.executor.
    ParallelPredictor`: kill a pool worker mid-batch (exactly once,
    coordinated through a flag file, or on every task) or add latency
    inside workers.
``ManualClock``
    A controllable time source shared by the service, breakers, and
    slow wrappers, making deadline and backoff behaviour exact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.utils.rng import as_generator

__all__ = [
    "corrupt_snapshot",
    "truncate_snapshot",
    "poison_given",
    "FlakyRecommender",
    "SlowRecommender",
    "KillWorkerOnce",
    "KillWorkerAlways",
    "SleepInWorker",
    "ManualClock",
]


# ----------------------------------------------------------------------
# Snapshot corruption
# ----------------------------------------------------------------------
def corrupt_snapshot(path: str, *, n_bytes: int = 64, offset: int | None = None,
                     seed: int = 0) -> None:
    """Flip ``n_bytes`` bytes of the file at *path* in place.

    The damaged range starts at *offset* (default: the middle of the
    file, which lands inside a compressed array member rather than the
    zip directory) and each byte is XORed with a seeded random nonzero
    value, so the corruption is deterministic per ``(path size, seed)``.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    rng = as_generator(seed)
    start = size // 2 if offset is None else offset
    start = max(0, min(start, size - 1))
    n = min(n_bytes, size - start)
    with open(path, "r+b") as fh:
        fh.seek(start)
        original = bytearray(fh.read(n))
        flips = rng.integers(1, 256, size=len(original), dtype=np.uint8)
        damaged = bytes(b ^ int(f) for b, f in zip(original, flips))
        fh.seek(start)
        fh.write(damaged)
        fh.flush()
        os.fsync(fh.fileno())


def truncate_snapshot(path: str, *, keep_fraction: float = 0.5) -> None:
    """Truncate the file at *path* to ``keep_fraction`` of its size."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(int(size * keep_fraction))
        fh.flush()
        os.fsync(fh.fileno())


# ----------------------------------------------------------------------
# Malformed ratings
# ----------------------------------------------------------------------
def poison_given(
    given: RatingMatrix,
    entries: Sequence[tuple[int, int, float]],
) -> RatingMatrix:
    """A copy of *given* with raw ``(user, item, value)`` entries forced in.

    Unlike :meth:`RatingMatrix.with_ratings`, the values are **not**
    validated — NaN, inf and out-of-scale ratings pass straight
    through, simulating a corrupted upstream feed.  The returned object
    is a genuine :class:`RatingMatrix` (same slots, non-writeable
    arrays) whose invariants are deliberately broken.  Every memo
    starts empty and the matrix is marked unchecked, so it inherits no
    per-row fact from *given*, and :meth:`RatingMatrix.with_ratings` on
    it re-runs the full constructor checks.
    """
    values = given.values.copy()
    mask = given.mask.copy()
    for user, item, value in entries:
        values[user, item] = value
        mask[user, item] = True
    return RatingMatrix._from_parts(values, mask, given.rating_scale, checked=False)


# ----------------------------------------------------------------------
# Recommender wrappers
# ----------------------------------------------------------------------
class _RecommenderProxy:
    """Attribute-proxying base so wrappers stay usable as the primary
    stage of a fallback chain (``.gis``, ``._train``, ... resolve to the
    wrapped model)."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class FlakyRecommender(_RecommenderProxy):
    """Fail the first ``fail_times`` ``predict_many`` calls, then heal.

    Parameters
    ----------
    inner:
        The wrapped (fitted) recommender.
    fail_times:
        Number of initial calls that raise; ``None`` fails forever.
    exc_factory:
        Zero-argument callable producing the exception to raise.
    """

    def __init__(self, inner, *, fail_times: int | None = 3,
                 exc_factory=lambda: RuntimeError("injected stage failure")) -> None:
        super().__init__(inner)
        self.fail_times = fail_times
        self.exc_factory = exc_factory
        self.calls = 0
        self.failures_injected = 0

    def predict_many(self, given, users, items):
        """Raise while failures remain, else delegate to the wrapped model."""
        self.calls += 1
        if self.fail_times is None or self.failures_injected < self.fail_times:
            self.failures_injected += 1
            raise self.exc_factory()
        return self.inner.predict_many(given, users, items)


class SlowRecommender(_RecommenderProxy):
    """Add ``delay`` seconds of induced latency per ``predict_many``.

    The sleep function is injectable; pair it with
    :meth:`ManualClock.sleep` for instant, deterministic "slowness".
    """

    def __init__(self, inner, *, delay: float, sleep=time.sleep) -> None:
        super().__init__(inner)
        self.delay = float(delay)
        self._sleep = sleep
        self.calls = 0

    def predict_many(self, given, users, items):
        """Sleep ``delay`` seconds, then delegate to the wrapped model."""
        self.calls += 1
        self._sleep(self.delay)
        return self.inner.predict_many(given, users, items)


# ----------------------------------------------------------------------
# Worker hooks (picklable — they cross the process boundary)
# ----------------------------------------------------------------------
@dataclass
class KillWorkerOnce:
    """Kill exactly one pool worker, once, coordinated via a flag file.

    :meth:`arm` creates the flag; the first worker whose task runs the
    hook atomically claims the flag (``os.unlink``) and dies with
    ``os._exit`` — an abrupt death the pool cannot intercept, exactly
    like an OOM kill.  Respawned pools find no flag and proceed, so a
    retried batch completes deterministically.
    """

    flag_path: str
    exit_code: int = 1

    def arm(self) -> "KillWorkerOnce":
        """Create the flag file so the next hooked task kills its worker."""
        with open(self.flag_path, "w") as fh:
            fh.write("armed")
        return self

    @property
    def armed(self) -> bool:
        """Whether the flag is still unclaimed (no worker has died yet)."""
        return os.path.exists(self.flag_path)

    def __call__(self, users: np.ndarray, items: np.ndarray) -> None:
        try:
            os.unlink(self.flag_path)
        except FileNotFoundError:
            return
        os._exit(self.exit_code)


@dataclass
class KillWorkerAlways:
    """Kill the worker on every task — drives the inline-fallback path."""

    exit_code: int = 1

    def __call__(self, users: np.ndarray, items: np.ndarray) -> None:
        os._exit(self.exit_code)


@dataclass
class SleepInWorker:
    """Induce fixed latency inside each worker task."""

    seconds: float

    def __call__(self, users: np.ndarray, items: np.ndarray) -> None:
        time.sleep(self.seconds)


# ----------------------------------------------------------------------
# Deterministic time
# ----------------------------------------------------------------------
class ManualClock:
    """A hand-cranked monotonic clock for deterministic timing tests.

    Use instances both as the ``clock`` of services/breakers and (via
    :meth:`sleep`) as the sleep function of slow wrappers and reload
    backoff, so "time passing" is exact and instantaneous.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by *seconds* (negative is an error)."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        """Record the requested sleep and advance the clock by it at once."""
        self.sleeps.append(float(seconds))
        self.advance(max(0.0, seconds))
