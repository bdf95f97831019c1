"""Typed error taxonomy for the serving layer.

Every failure mode a production serving path meets is given a distinct
exception type so that callers (the :class:`~repro.serving.service.
PredictionService` fallback chain, operational dashboards, tests) can
react per *kind* of failure instead of string-matching messages:

===============================  =======================================
:class:`InvalidRequestError`     Malformed input — bad shapes, ids out of
                                 range, NaN / out-of-scale ratings.
:class:`ModelUnavailableError`   No usable model (never loaded, or every
                                 load attempt failed).
:class:`SnapshotError`           Umbrella for snapshot load problems.
:class:`SnapshotCorruptError`    The snapshot file is damaged (bad zip,
                                 missing arrays, checksum mismatch).
:class:`SnapshotVersionError`    Readable snapshot in an unknown format.
:class:`OverloadedError`         The admission queue is full; the
                                 request was refused (or shed to the
                                 fallback chain).
===============================  =======================================

The taxonomy deliberately multiple-inherits from the builtin types the
pre-robustness code raised (``ValueError``, ``RuntimeError``), so
introducing it is backward compatible: callers that caught
``ValueError`` from :func:`repro.core.persistence.load_model` still
catch :class:`SnapshotCorruptError`.

This module has no dependencies on the rest of :mod:`repro` (or on
NumPy) so any layer — including :mod:`repro.core` — may import it
without cycles.
"""

from __future__ import annotations

__all__ = [
    "ServingError",
    "InvalidRequestError",
    "ModelUnavailableError",
    "OverloadedError",
    "SnapshotError",
    "SnapshotCorruptError",
    "SnapshotVersionError",
]


class ServingError(Exception):
    """Base class for every error in the serving taxonomy."""


class InvalidRequestError(ServingError, ValueError):
    """A request failed input validation.

    Raised for structurally malformed requests (mismatched array
    shapes), ids outside the trained user/item space, and given
    matrices carrying NaN or out-of-scale ratings.
    """


class ModelUnavailableError(ServingError, RuntimeError):
    """No model is available to serve with (and no last-known-good)."""


class SnapshotError(ServingError, ValueError):
    """Base class for snapshot load/save problems."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file is damaged and must not be served from.

    Attributes
    ----------
    path:
        The offending snapshot file.
    detail:
        Human-readable description of what failed structurally.
    expected_checksum, actual_checksum:
        Set when the damage was detected by content-digest mismatch
        (both ``None`` when the archive was unreadable outright).
    """

    def __init__(
        self,
        path: str,
        detail: str,
        *,
        expected_checksum: str | None = None,
        actual_checksum: str | None = None,
    ) -> None:
        message = f"corrupt snapshot {path!r}: {detail}"
        if expected_checksum is not None:
            message += (
                f" (expected checksum {expected_checksum[:12]}..., "
                f"got {(actual_checksum or '?')[:12]}...)"
            )
        super().__init__(message)
        self.path = path
        self.detail = detail
        self.expected_checksum = expected_checksum
        self.actual_checksum = actual_checksum


class SnapshotVersionError(SnapshotError):
    """A snapshot was written by an unknown format version."""


class OverloadedError(ServingError, RuntimeError):
    """The serving front's admission queue is full.

    Raised by :meth:`repro.serving.batcher.MicroBatcher.submit` when
    the bounded queue holds ``max_queue`` pending requests and the
    overload policy is ``"raise"``.  Backpressure beats buffering: an
    unbounded queue converts overload into unbounded latency for
    every caller, while a typed rejection lets the client shed load,
    retry elsewhere, or accept the degraded (fallback-chain) answer.

    Attributes
    ----------
    queue_depth:
        Pending requests at the moment of rejection.
    max_queue:
        The configured admission bound.
    """

    def __init__(self, queue_depth: int, max_queue: int) -> None:
        super().__init__(
            f"serving queue is full ({queue_depth}/{max_queue} pending); "
            "request refused"
        )
        self.queue_depth = queue_depth
        self.max_queue = max_queue
