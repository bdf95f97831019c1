"""The serving stack under test, the workloads and their closed-loop client.

Every workload builds the whole online stack the way a caller would:
``default_dataset()`` -> ``make_split`` -> ``CFSF().fit`` on the
first 300 users (the paper's ML_300) -> ``PredictionService(model)`` ->
``MicroBatcher(service)``, the last two with their defaults.  It then
warms the stack and drives it for a timed window.  The stack sees only
the generated ``(given, user, item)`` requests.  The dataset is the
repository's standard one (seed 0), so every workload seed sees the
same matrix and model; the workload seed draws the splits, the users
and the order of the requests.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from measure import OK, RAISED, REFUSED, TIMED_OUT, RequestLog

from repro.core import CFSF
from repro.data import (
    GivenNSplit,
    RatingMatrix,
    clear_dataset_cache,
    default_dataset,
    make_split,
)
from repro.obs import MetricsRegistry, use_registry
from repro.serving import MicroBatcher, OverloadedError, PredictionService

DATASET_SEED = 0           # the repository's standard dataset
TRAIN_USERS = 300          # the paper's ML_300 training prefix
GIVEN_N = 10               # ratings revealed per active user (Given10)
PIPELINE = 32              # requests per client window
ANSWER_TIMEOUT_S = 10.0    # an answer later than this counts as timed out
WARM_S = 0.3               # untimed warm-up through the batcher, inside set-up
SLICE_S = 1.0              # hot_repeat timings are medians over slices this long
CYCLES_PER_SLICE = 16      # profile_writes timings: medians over slices of this many writes
DRAW_CHUNK = 4096          # seeded index draws leave the generator in chunks this size
FIT_STAGES = ("gis.build", "cluster.fit", "smooth.apply", "icluster.build")


# ----------------------------------------------------------------------
# The stack
# ----------------------------------------------------------------------
@dataclass
class Stack:
    split: GivenNSplit
    service: PredictionService
    batcher: MicroBatcher
    fit_s: float
    fit_stages: dict[str, float]


def build_stack(seed: int) -> Stack:
    """Dataset, split, fit, service and batcher: a cold start.

    The fit runs under an injected registry so the offline spans
    (``gis.build`` ... ``icluster.build``) can be read back; the
    service and batcher are built after it, on the default (disabled)
    registry.
    """
    clear_dataset_cache()
    ratings = default_dataset(seed=DATASET_SEED)
    split = make_split(ratings, n_train_users=TRAIN_USERS, given_n=GIVEN_N, seed=seed)
    registry = MetricsRegistry()
    t0 = time.perf_counter()
    with use_registry(registry):
        model = CFSF().fit(split.train)
    fit_s = time.perf_counter() - t0
    stages = {
        name: sum(rec["duration"] for rec in registry.spans(name)) for name in FIT_STAGES
    }
    service = PredictionService(model)
    return Stack(split, service, MicroBatcher(service), fit_s, stages)


# ----------------------------------------------------------------------
# Input generators (deterministic per seed)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Pool:
    """Held-out ``(user, item, truth)`` triples requests are drawn from."""

    users: np.ndarray
    items: np.ndarray
    truth: np.ndarray


def heldout_pool(split: GivenNSplit, n_users: int, rng: np.random.Generator) -> Pool:
    """Every held-out pair of *n_users* seeded-random active users."""
    users, items, truth = split.targets_arrays()
    chosen = rng.choice(split.n_active_users, size=n_users, replace=False)
    keep = np.isin(users, chosen)
    return Pool(users[keep], items[keep], truth[keep])


class IndexStream:
    """Seeded draws with replacement from ``range(size)``.

    Draws leave the generator in fixed-size chunks, so the sequence
    depends only on the seed, never on how callers slice it.
    """

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self._rng, self._size = rng, size
        self._buf = np.empty(0, dtype=np.int64)

    def take(self, n: int) -> np.ndarray:
        while self._buf.size < n:
            fresh = self._rng.integers(0, self._size, size=DRAW_CHUNK)
            self._buf = np.concatenate([self._buf, fresh])
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


class RepeatSource:
    """Reads drawn with replacement from a pool, all under one given."""

    def __init__(self, given: RatingMatrix, pool: Pool, rng: np.random.Generator) -> None:
        self._given = given
        self._pool = pool
        self._stream = IndexStream(rng, pool.users.size)

    def next_window(self, n: int):
        idx = self._stream.take(n)
        pool = self._pool
        return 0, self._given, pool.users[idx], pool.items[idx], pool.truth[idx]


class GivenChain:
    """Every given a sequence of writes produced, by version number.

    Version 0 is the base matrix and version ``v`` is the base with the
    first ``v`` writes applied.  Only the triplets are kept; a version
    is rebuilt on demand (cheaply, in ascending order), so a long run
    does not hold hundreds of full matrices.
    """

    def __init__(self, base: RatingMatrix) -> None:
        self.base = base
        self.writes: list[tuple[int, int, float]] = []
        self._last = (0, base)

    def __len__(self) -> int:
        return len(self.writes) + 1

    def __getitem__(self, version: int) -> RatingMatrix:
        start, given = self._last
        if version < start:
            start, given = 0, self.base
        if version > start:
            given = given.with_ratings(self.writes[start:version])
        self._last = (version, given)
        return given


class WriteSource:
    """Reads from a pool plus, after every *reads_per_write* reads, one write.

    A write reveals one seeded-random held-out rating of the pool
    through ``RatingMatrix.with_ratings``.  Writes only add ratings, so
    each new given holds one rating more than the one before and no
    given is ever sent twice.
    """

    def __init__(self, given: RatingMatrix, pool: Pool, read_rng: np.random.Generator,
                 write_rng: np.random.Generator, reads_per_write: int) -> None:
        self.chain = GivenChain(given)
        self.given = given
        self.users_per_write: list[int] = []
        self._pool = pool
        self._stream = IndexStream(read_rng, pool.users.size)
        self._write_rng = write_rng
        self._unrevealed = np.ones(pool.users.size, dtype=bool)
        self._reads_per_write = reads_per_write
        self._reads = 0
        self._readers: set[int] = set()

    def next_window(self, n: int):
        if self._reads >= self._reads_per_write:
            self._write()
        idx = self._stream.take(n)
        pool = self._pool
        users = pool.users[idx]
        self._reads += n
        self._readers.update(users.tolist())
        return len(self.chain) - 1, self.given, users, pool.items[idx], pool.truth[idx]

    def _write(self) -> None:
        open_idx = np.flatnonzero(self._unrevealed)
        pick = int(open_idx[self._write_rng.integers(open_idx.size)])
        self._unrevealed[pick] = False
        pool = self._pool
        triplet = (int(pool.users[pick]), int(pool.items[pick]), float(pool.truth[pick]))
        self.given = self.given.with_ratings([triplet])
        self.chain.writes.append(triplet)
        self.users_per_write.append(len(self._readers))
        self._reads = 0
        self._readers = set()


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
class _Stamps:
    """When each watched future completed, stamped by the thread that
    completed it, and an event set once every one has.  *on_stamp*, if
    given, runs right after each stamp."""

    def __init__(self, n: int, clock, on_stamp=None) -> None:
        self.at = [math.nan] * n
        self.all_done = threading.Event()
        self._clock = clock
        self._on_stamp = on_stamp
        self._lock = threading.Lock()
        self._pending = 0
        self._sealed = False

    def watch(self, j: int, future) -> None:
        with self._lock:
            self._pending += 1
        future.add_done_callback(partial(self._stamp, j))

    def _stamp(self, j: int, _future) -> None:
        self.at[j] = self._clock()
        if self._on_stamp is not None:
            self._on_stamp()
        with self._lock:
            self._pending -= 1
            if self._sealed and not self._pending:
                self.all_done.set()

    def seal(self) -> None:
        """No more futures will be watched."""
        with self._lock:
            self._sealed = True
            if not self._pending:
                self.all_done.set()


@dataclass
class _Flight:
    """One window of ``PIPELINE`` requests, sent and not yet logged."""

    version: int
    users: np.ndarray
    items: np.ndarray
    truth: np.ndarray
    sent: np.ndarray
    futures: list
    status: np.ndarray
    stamps: _Stamps
    stalled: bool  # no slot came free in time; the rest was never sent


def _send_window(submit, source, clock, slots=None) -> _Flight:
    """Submit the source's next window, one request per free slot if
    *slots* (a semaphore each answer releases) is given."""
    version, given, users, items, truth = source.next_window(PIPELINE)
    n = users.size
    sent = np.zeros(n)
    futures = [None] * n
    stamps = _Stamps(n, clock, None if slots is None else slots.release)
    status = np.full(n, OK, dtype=np.int8)
    stalled = False
    for j, (user, item) in enumerate(zip(users.tolist(), items.tolist())):
        if slots is not None and not slots.acquire(timeout=ANSWER_TIMEOUT_S):
            status[j:] = TIMED_OUT
            stalled = True
            break
        sent[j] = clock()
        try:
            futures[j] = submit(given, user, item)
        except OverloadedError:
            status[j] = REFUSED
        except Exception:  # noqa: BLE001 - every failure is counted, none stops the run
            status[j] = RAISED
        else:
            stamps.watch(j, futures[j])
            continue
        if slots is not None:
            slots.release()  # a request that failed at submit holds no slot
    stamps.seal()
    return _Flight(version, users, items, truth, sent, futures, status, stamps, stalled)


def _log_window(flight: _Flight, log: RequestLog) -> None:
    """Wait for the window's answers and append it to *log*."""
    flight.stamps.all_done.wait(timeout=ANSWER_TIMEOUT_S)
    n = flight.users.size
    status = flight.status
    value = np.zeros(n)
    wait = np.zeros(n)
    degraded = np.zeros(n, dtype=bool)
    for j, future in enumerate(flight.futures):
        if future is None:
            continue
        if not future.done() or math.isnan(flight.stamps.at[j]):
            status[j] = TIMED_OUT
        elif future.exception() is not None:
            status[j] = RAISED
        else:
            answer = future.result()
            value[j] = answer.value
            wait[j] = answer.queue_wait
            degraded[j] = answer.degraded or answer.fallback_level > 0
    latency = np.where(status == OK, np.asarray(flight.stamps.at) - flight.sent, 0.0)
    log.add(version=np.full(n, flight.version), user=flight.users, item=flight.items,
            truth=flight.truth, sent=flight.sent, value=value, latency=latency, wait=wait,
            degraded=degraded, status=status)


def closed_client(submit, source, stop_at: float, log: RequestLog,
                  clock=time.perf_counter) -> None:
    """Send a window of ``PIPELINE`` requests, wait for every answer, repeat.

    Latency runs from each request's submit to the moment its answer
    was set, stamped on the thread that set it.  Reading the clock
    when this thread next wakes would add the client's own wait for a
    processor and the interpreter lock, which grows with outside load
    on the machine and is not the program's.
    """
    while clock() < stop_at:
        _log_window(_send_window(submit, source, clock), log)


def saturating_client(submit, source, stop_at: float, log: RequestLog, depth: int) -> None:
    """Keep *depth* requests outstanding: each answer frees a slot for the next.

    The pipeline never drains between windows, so the batcher's queue
    stays full and its workers never sleep waiting for this thread.
    Latency is stamped as in :func:`closed_client`.
    """
    slots = threading.Semaphore(depth)
    flights: deque[_Flight] = deque()
    clock = time.perf_counter
    while clock() < stop_at:
        flight = _send_window(submit, source, clock, slots)
        flights.append(flight)
        while flights and flights[0].stamps.all_done.is_set():
            _log_window(flights.popleft(), log)
        if flight.stalled:
            break
    while flights:
        _log_window(flights.popleft(), log)


def run_closed(submit, source, seconds: float,
               client=closed_client) -> tuple[RequestLog, float, float]:
    """Drive *source* through *client* on this thread for *seconds*.

    Returns the log, the window's wall time from its start to the last
    answer, and the start time.
    """
    log = RequestLog()
    t0 = time.perf_counter()
    client(submit, source, t0 + seconds, log)
    return log, time.perf_counter() - t0, t0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Window:
    """One timed window: the log, its wall time and what it was sent with."""

    log: RequestLog
    wall_s: float
    givens: object  # indexable by the log's version column
    slices: np.ndarray  # per request: its slice, or -1 for none
    users_per_write: list[int] = field(default_factory=list)


def time_slices(log: RequestLog, t0: float) -> np.ndarray:
    """Cut a window into ``SLICE_S`` slices by send time."""
    return ((log.column("sent") - t0) // SLICE_S).astype(np.int64)


def cycle_slices(log: RequestLog) -> np.ndarray:
    """Cut a window into slices of ``CYCLES_PER_SLICE`` whole write cycles.

    A write cycle is the reads sent under one given version.  Every
    slice then holds the same mix of cold reads just after a write and
    warm reads after them.  The cycle the window opened in, and the
    slice still open when it closed, are partial and left out.
    """
    version = log.column("version").astype(np.int64)
    cycle = version - version.min() - 1  # the last cycle is partial too
    whole = cycle.max() // CYCLES_PER_SLICE * CYCLES_PER_SLICE
    return np.where((cycle >= 0) & (cycle < whole), cycle // CYCLES_PER_SLICE, -1)


class Workload:
    """Constructing one is the set-up: a cold stack, then the warm-up."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.stack = build_stack(seed)
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def window(self, seconds: float) -> Window:
        raise NotImplementedError

    def close(self) -> None:
        self.stack.batcher.close(timeout=ANSWER_TIMEOUT_S)


class HotRepeat(Workload):
    name = "hot_repeat"
    n_users = 12
    depth = 256

    def prepare(self) -> None:
        split, service = self.stack.split, self.stack.service
        self.pool = heldout_pool(split, self.n_users, np.random.default_rng([self.seed, 0]))
        self.source = RepeatSource(split.given, self.pool, np.random.default_rng([self.seed, 1]))
        self.client = partial(saturating_client, depth=self.depth)
        # Per-user state and the request cache warm before timing.
        service.predict_many(split.given, self.pool.users, self.pool.items)
        run_closed(self.stack.batcher.submit, self.source, WARM_S, self.client)

    def window(self, seconds: float) -> Window:
        log, wall, t0 = run_closed(self.stack.batcher.submit, self.source, seconds,
                                   self.client)
        return Window(log, wall, [self.stack.split.given], time_slices(log, t0))


class ProfileWrites(Workload):
    name = "profile_writes"
    n_users = 50
    reads_per_write = 256

    def prepare(self) -> None:
        split, service = self.stack.split, self.stack.service
        self.pool = heldout_pool(split, self.n_users, np.random.default_rng([self.seed, 0]))
        self.source = WriteSource(split.given, self.pool,
                                  np.random.default_rng([self.seed, 1]),
                                  np.random.default_rng([self.seed, 2]),
                                  self.reads_per_write)
        service.predict_many(split.given, self.pool.users, self.pool.items)
        run_closed(self.stack.batcher.submit, self.source, WARM_S)

    def window(self, seconds: float) -> Window:
        writes_before = len(self.source.users_per_write)
        log, wall, _ = run_closed(self.stack.batcher.submit, self.source, seconds)
        return Window(log, wall, self.source.chain, cycle_slices(log),
                      self.source.users_per_write[writes_before:])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (HotRepeat, ProfileWrites)
}
