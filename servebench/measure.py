"""Exact statistics, failure accounting and the answer check.

Everything here works on raw per-request samples.  Percentiles are
nearest-rank values of the samples themselves, never interpolated
histogram buckets, and a percentile is only reported when at least
``MIN_BEYOND`` samples lie beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: A request answered later than this misses the latency objective.
SLO_S = 0.050
#: Served answers must match the reference model to this tolerance
#: (the suite's batched-against-scalar tolerance).
TOLERANCE = 1e-9
#: A percentile needs this many samples beyond it to be reported.
MIN_BEYOND = 10
#: Served answers also compared with the scalar LocalMatrix + fuse path.
ORACLE_SAMPLE = 200

# Per-request outcome codes in a RequestLog.
OK, REFUSED, RAISED, TIMED_OUT = 0, 1, 2, 3


def exact_percentile(samples: np.ndarray, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile of raw samples, or ``None``.

    Returns the sample of rank ``ceil(q/100 * n)`` in sorted order, so
    the value is always one of the measured samples.  ``None`` means
    fewer than :data:`MIN_BEYOND` samples lie beyond that rank, too few
    for the percentile to mean anything.
    """
    values = np.asarray(samples, dtype=np.float64).ravel()
    n = values.size
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must lie in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return float(np.partition(values, rank - 1)[rank - 1])


class RequestLog:
    """Columnar per-request record, filled one client window at a time."""

    FIELDS = ("version", "user", "item", "truth", "sent", "value", "latency", "wait",
              "degraded", "status")

    def __init__(self) -> None:
        self._chunks: dict[str, list[np.ndarray]] = {f: [] for f in self.FIELDS}

    def add(self, **columns) -> None:
        """Append one window; every field must be given, equal lengths."""
        for name in self.FIELDS:
            self._chunks[name].append(np.asarray(columns[name]))

    def column(self, name: str) -> np.ndarray:
        chunks = self._chunks[name]
        return np.concatenate(chunks) if chunks else np.empty(0)

    def select(self, keep: np.ndarray) -> "RequestLog":
        """The requests where *keep* is true, as a new log."""
        out = RequestLog()
        for name in self.FIELDS:
            out._chunks[name].append(self.column(name)[keep])
        return out


@dataclass(frozen=True)
class Outcome:
    """End-to-end accounting of one timed window."""

    attempted: int
    refused: int
    raised: int
    timed_out: int
    answered: int
    degraded: int
    samples: int
    p50_s: float | None
    p99_s: float | None
    slo_frac: float
    mae: float
    rps: float

    @property
    def failed(self) -> int:
        return self.refused + self.raised + self.timed_out

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def degraded_frac(self) -> float:
        return self.degraded / self.answered if self.answered else 0.0


def account(log: RequestLog, wall_s: float) -> Outcome:
    """Fold a window's log into the end-to-end numbers.

    Refused, raised and timed-out requests count against ``attempted``
    and as misses of the latency objective; degraded answers are
    answered, and counted separately.
    """
    status = log.column("status").astype(np.int64)
    ok = status == OK
    latency = log.column("latency")[ok]
    answered = int(ok.sum())
    attempted = int(status.size)
    errors = np.abs(log.column("value")[ok] - log.column("truth")[ok])
    return Outcome(
        attempted=attempted,
        refused=int((status == REFUSED).sum()),
        raised=int((status == RAISED).sum()),
        timed_out=int((status == TIMED_OUT).sum()),
        answered=answered,
        degraded=int(log.column("degraded")[ok].astype(bool).sum()),
        samples=int(latency.size),
        p50_s=exact_percentile(latency, 50),
        p99_s=exact_percentile(latency, 99),
        slo_frac=float((latency <= SLO_S).sum() / attempted) if attempted else 0.0,
        mae=float(errors.mean()) if answered else 0.0,
        rps=answered / wall_s if wall_s > 0 else 0.0,
    )


def typical(log: RequestLog, slices: np.ndarray) -> tuple[float, float, float]:
    """Median over slices of each slice's ``(rps, p50_s, p99_s)``.

    *slices* labels every request with its slice; a negative label
    leaves the request out.  A slice's rate is its answered requests
    over the time from its first send to its last answer, and its
    percentiles are exact over its own raw samples; slices too small
    for an exact p99 are left out.  A burst of outside load that hits
    a few slices then leaves the result alone.
    """
    log = log.select(np.ones(slices.size, dtype=bool))  # one chunk per field
    outcomes = []
    for sid in np.unique(slices[slices >= 0]):
        part = log.select(slices == sid)
        sent = part.column("sent")
        outcomes.append(account(part, float((sent + part.column("latency")).max() - sent.min())))
    outcomes = [o for o in outcomes if o.p99_s is not None]
    if not outcomes:
        raise RuntimeError("no slice has enough samples for an exact p99")
    return tuple(
        float(np.median([getattr(o, f) for o in outcomes])) for f in ("rps", "p50_s", "p99_s")
    )


@dataclass(frozen=True)
class Check:
    """Result of comparing served answers against a reference model."""

    checked: int
    mismatches: int  # answered requests that disagreed on either path
    max_abs_diff: float

    @property
    def ok(self) -> bool:
        return self.checked > 0 and self.mismatches == 0


def check_answers(reference, givens, log: RequestLog) -> Check:
    """Compare every answered request with ``reference.predict_many``.

    ``givens[v]`` is the exact given matrix that requests logged with
    version ``v`` were sent with; versions are visited in ascending
    order.  Distinct ``(user, item)`` pairs are predicted once per
    version and compared with every served answer for that pair.

    The reference runs the same batched kernel as the program, so a
    fixed sample of ``ORACLE_SAMPLE`` answers is also compared with the
    reference's scalar ``predict_one_detailed`` path, which catches a
    change to the kernel's arithmetic as well.
    """
    ok = log.column("status").astype(np.int64) == OK
    version = log.column("version").astype(np.int64)[ok]
    users = log.column("user").astype(np.intp)[ok]
    items = log.column("item").astype(np.intp)[ok]
    values = log.column("value").astype(np.float64)[ok]
    bad = np.zeros(values.size, dtype=bool)
    worst = 0.0
    for v in np.unique(version).tolist():
        sel = np.flatnonzero(version == v)
        pairs, inverse = np.unique(
            np.stack([users[sel], items[sel]]), axis=1, return_inverse=True
        )
        expected = np.asarray(reference.predict_many(givens[v], pairs[0], pairs[1]))
        diff = np.abs(values[sel] - expected[inverse.ravel()])
        bad[sel[diff > TOLERANCE]] = True
        worst = max(worst, float(diff.max()))
    sample = np.random.default_rng(0).choice(
        values.size, size=min(ORACLE_SAMPLE, values.size), replace=False
    )
    for k in sample[np.argsort(version[sample], kind="stable")].tolist():
        given = givens[int(version[k])]
        scalar = reference.predict_one_detailed(given, int(users[k]), int(items[k])).value
        diff = abs(values[k] - float(given.clip(scalar)))
        bad[k] |= diff > TOLERANCE
        worst = max(worst, diff)
    return Check(checked=int(values.size), mismatches=int(bad.sum()), max_abs_diff=worst)
