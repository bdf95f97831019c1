"""The fault-tolerant prediction service.

:class:`PredictionService` wraps any fitted
:class:`~repro.baselines.base.Recommender` with the serving behaviours
a production deployment needs and the bare model does not have:

1. **Input validation** mapped to the typed taxonomy of
   :mod:`repro.serving.errors`.  In the default lenient mode invalid
   requests (ids out of range) are *answered* — with the global-mean
   stage — and flagged, because Eq. 15's protocol (and any live SLA)
   wants an answer per request; ``strict=True`` raises instead.
   Given matrices carrying NaN or out-of-scale ratings (an upstream
   ingestion bug) are sanitised: the offending cells are dropped from
   the mask and the affected users' requests are served from the
   cleaned profile, flagged as degraded.
2. **Per-request deadlines with partial-batch results.**  Requests are
   served in per-user blocks; once the batch's latency budget is
   spent, the remaining blocks short-circuit to the cheap user-mean
   stage instead of wedging the caller.
3. **A graceful-degradation fallback chain** — CFSF fusion → item-KNN
   over the GIS only → user mean → global mean — where every stage is
   guarded by a :class:`~repro.serving.breaker.CircuitBreaker`.  A
   stage that keeps failing is skipped (open circuit) until its
   jittered exponential backoff lets a probe through.  The final
   stage is a stored scalar and cannot fail, so **every request gets a
   prediction** no matter which layers are down.
4. **Hot snapshot reload with last-known-good rollback.**
   :meth:`PredictionService.reload` loads a new snapshot with bounded
   retry/backoff; a corrupt or unreadable snapshot leaves the service
   running on the previous model.

The clock and sleep functions are injectable so that deadline and
backoff behaviour is deterministic under test (see
:class:`repro.serving.faults.ManualClock`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.obs import Counter, MetricsRegistry, NullRegistry, get_registry
from repro.serving.breaker import CircuitBreaker
from repro.serving.errors import (
    InvalidRequestError,
    ModelUnavailableError,
    SnapshotError,
)
from repro.utils.cache import LRUCache
from repro.utils.groups import user_blocks

__all__ = ["PredictionService", "ServingResult", "StageFailure"]

#: Cap on the stage failures one call records in its result: a stage
#: that fails on every per-user block must not make the response carry
#: an unbounded error list.  The breakers and ``serving.stage.failures``
#: still see every failure.
_MAX_ERRORS_PER_CALL = 32


@dataclass(frozen=True)
class StageFailure:
    """One failed stage attempt, for diagnostics."""

    stage: str
    error: str
    n_requests: int


@dataclass(frozen=True)
class ServingResult:
    """Predictions plus per-request degradation bookkeeping.

    ``fallback_level`` indexes into ``stage_names``: level 0 is the
    primary model, higher levels are progressively simpler estimators.
    """

    predictions: np.ndarray
    fallback_level: np.ndarray
    stage_names: tuple[str, ...]
    invalid: np.ndarray
    sanitized: np.ndarray
    deadline_deferred: np.ndarray
    deadline_hit: bool
    elapsed: float
    errors: tuple[StageFailure, ...] = field(default=())

    @property
    def degraded(self) -> np.ndarray:
        """Per-request: was anything other than the primary path used?"""
        return (
            (self.fallback_level > 0)
            | self.invalid
            | self.sanitized
            | self.deadline_deferred
        )

    @property
    def degraded_fraction(self) -> float:
        """Fraction of the batch that was served degraded (0.0-1.0)."""
        n = self.predictions.size
        return float(self.degraded.sum() / n) if n else 0.0

    def level_counts(self) -> dict[str, int]:
        """Requests served per stage name."""
        counts = np.bincount(self.fallback_level, minlength=len(self.stage_names))
        return {name: int(c) for name, c in zip(self.stage_names, counts)}

    def __len__(self) -> int:
        return self.predictions.size


@dataclass
class _Stage:
    """One link of the chain, with its breaker and metric handles."""

    name: str
    fn: Callable[[RatingMatrix, np.ndarray, np.ndarray], np.ndarray]
    breaker: CircuitBreaker
    served: Counter  # serving.fallback{stage=name}
    failures: Counter  # serving.stage.failures{stage=name}


class _Call:
    """One ``predict_many`` call's batch, handed from phase to phase.
    ``miss_keys`` maps each request-cache miss's row to its key (``None``
    without a cache); ``hit_rows`` lists the hits when some row missed."""

    __slots__ = (
        "t0", "users", "items", "invalid", "n_invalid", "predictions", "levels",
        "sanitized", "deferred", "deadline_hit", "errors", "miss_keys",
        "hit_rows", "cache_hits", "cache_misses",
    )

    def __init__(self, t0, users, items, invalid, n_invalid, fill, last_level) -> None:
        n = users.size
        self.t0 = t0
        self.users, self.items = users, items
        self.invalid, self.n_invalid = invalid, n_invalid
        self.predictions = np.full(n, fill, dtype=np.float64)
        self.levels = np.full(n, last_level, dtype=np.intp)
        self.sanitized = np.zeros(n, dtype=bool)
        self.deferred = np.zeros(n, dtype=bool)
        self.deadline_hit = False
        self.errors: list[StageFailure] = []
        self.miss_keys: dict[int, tuple] | None = None
        self.hit_rows: list[int] = []
        self.cache_hits = self.cache_misses = 0


class PredictionService:
    """Serve predictions through a guarded fallback chain.

    Parameters
    ----------
    model:
        A fitted recommender (stage 0).  May be omitted when
        *snapshot_path* is given.
    snapshot_path:
        Default snapshot for :meth:`reload`; when *model* is ``None``
        the service boots from it (raising
        :class:`~repro.serving.errors.ModelUnavailableError` if no
        usable snapshot exists).
    strict:
        When ``True``, invalid requests raise
        :class:`~repro.serving.errors.InvalidRequestError` instead of
        being served by the fallback stage.
    failure_threshold / reset_timeout / backoff_factor /
    max_reset_timeout / jitter / breaker_seed:
        Circuit-breaker tuning, shared by all stages.
    reload_retries / reload_backoff:
        Bounded retry policy for snapshot loads (backoff doubles per
        attempt).
    request_cache_size:
        Capacity of the LRU request cache.  Primary-stage predictions
        are memoised per ``(row key, user, item, model_version)``,
        where the row key digests that user's given profile; the
        version in the key plus an explicit clear on model install
        means a snapshot reload can never serve stale values.  Only
        stage-0 results are cached (fallback answers reflect transient
        conditions).  ``0`` disables caching.
    clock / sleep:
        Injectable time sources (see :class:`~repro.serving.faults.
        ManualClock`).
    metrics:
        The :class:`~repro.obs.MetricsRegistry` that holds the
        service's counters (requests, per-stage fallbacks and
        failures, cache hits, reloads), its latency histogram and its
        breakers' transitions.  It is the only store: :meth:`health`
        reads its totals from it.  Defaults to the ambient registry
        (:func:`repro.obs.get_registry`).  When that is the no-op
        :class:`~repro.obs.NullRegistry`, the service counts into a
        private registry of its own instead.

    Examples
    --------
    >>> from repro.core import CFSF
    >>> from repro.data import make_movielens_like, make_split
    >>> split = make_split(make_movielens_like(seed=0).ratings,
    ...                    n_train_users=300, given_n=10)
    >>> service = PredictionService(CFSF().fit(split.train))
    >>> users, items, _ = split.targets_arrays()
    >>> result = service.predict_many(split.given, users[:8], items[:8])
    >>> len(result), bool(result.degraded.any())
    (8, False)
    """

    def __init__(
        self,
        model=None,
        *,
        snapshot_path: str | None = None,
        strict: bool = False,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        backoff_factor: float = 2.0,
        max_reset_timeout: float = 60.0,
        jitter: float = 0.2,
        breaker_seed: int = 0,
        reload_retries: int = 3,
        reload_backoff: float = 0.05,
        request_cache_size: int = 8192,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        metrics=None,
    ) -> None:
        registry = get_registry() if metrics is None else metrics
        self.metrics = MetricsRegistry() if isinstance(registry, NullRegistry) else registry
        self.snapshot_path = snapshot_path
        self.strict = bool(strict)
        self.reload_retries = reload_retries
        self.reload_backoff = float(reload_backoff)
        self._clock = clock
        self._sleep = sleep
        self._breaker_kwargs = dict(
            failure_threshold=failure_threshold,
            reset_timeout=reset_timeout,
            backoff_factor=backoff_factor,
            max_reset_timeout=max_reset_timeout,
            jitter=jitter,
        )
        self._breaker_seed = breaker_seed
        self._breakers: dict[str, CircuitBreaker] = {}
        # (source given, cleaned given, poisoned users), replaced whole
        # in one assignment so concurrent readers need no lock.  Two
        # threads meeting a new given may both clean it; the results
        # are equal, so the later write winning is harmless.
        self._sanitize_memo: tuple[RatingMatrix, RatingMatrix, np.ndarray] | None = None
        self._request_cache: LRUCache | None = (
            LRUCache(maxsize=request_cache_size) if request_cache_size > 0 else None
        )
        # Per-call metric handles, resolved once: registry lookups are
        # dict ops, but they sit on the per-batch hot path.  The
        # per-stage handles live on each _Stage.
        reg = self.metrics
        self._m_requests = reg.counter("serving.requests")
        self._m_latency = reg.histogram("serving.request.latency")
        self._m_invalid = reg.counter("serving.invalid")
        self._m_sanitized = reg.counter("serving.sanitized")
        self._m_deferred = reg.counter("serving.deadline.deferred")
        self._m_degraded = reg.counter("serving.degraded")
        self._m_cache_hits = reg.counter("serving.cache.hits")
        self._m_cache_misses = reg.counter("serving.cache.misses")

        self.model_version = 0
        self.last_reload_error: Exception | None = None

        self.model = None
        if model is not None:
            self._install_model(model)
        elif snapshot_path is not None:
            loaded = self._load_snapshot(snapshot_path)
            if loaded is None:
                raise ModelUnavailableError(
                    f"could not load initial snapshot {snapshot_path!r}"
                ) from self.last_reload_error
            self._install_model(loaded)
        else:
            raise ModelUnavailableError("need a fitted model or a snapshot_path")

    # ------------------------------------------------------------------
    # Model installation and the fallback chain
    # ------------------------------------------------------------------
    def _install_model(self, model) -> None:
        train = getattr(model, "_train", None)
        if train is None:
            raise ModelUnavailableError(
                f"{type(model).__name__} is not fitted; fit() it before serving"
            )
        self.model = model
        self._n_items = train.n_items
        self._scale = train.rating_scale
        self._global_mean = float(train.global_mean())
        reg = self.metrics
        stages = []
        for idx, (name, fn) in enumerate(self._build_stages(model)):
            if name not in self._breakers:
                self._breakers[name] = CircuitBreaker(
                    name,
                    clock=self._clock,
                    rng=self._breaker_seed + idx,
                    metrics=reg,
                    **self._breaker_kwargs,
                )
            stages.append(_Stage(
                name,
                fn,
                self._breakers[name],
                reg.counter("serving.fallback", stage=name),
                reg.counter("serving.stage.failures", stage=name),
            ))
        self._stages = stages
        # The primary's read-only "is this user's state warm?" query,
        # if it has one (CFSF does; plain baselines do not).
        self._has_state = getattr(model, "has_active_state", None)
        #: Names of the chain's stages, primary first.
        self.stage_names = tuple(stage.name for stage in stages)
        # Deadline-deferred requests are served by the user-mean stage.
        self._deadline_level = self.stage_names.index("user_mean")
        self.model_version += 1
        self._sanitize_memo = None
        # The version is part of every cache key, so old entries can
        # never be *served* after a reload; clearing frees them eagerly.
        if self._request_cache is not None:
            self._request_cache.clear()

    def _build_stages(self, model) -> list[tuple[str, Callable]]:
        """The chain's ``(name, predict_many)`` pairs, primary first."""
        lo, hi = self._scale
        gmean = self._global_mean

        stages = [(str(model.name), model.predict_many)]

        gis = getattr(model, "gis", None)
        if gis is not None:
            sim = gis.sim

            def item_knn(given: RatingMatrix, users: np.ndarray, items: np.ndarray) -> np.ndarray:
                out = np.empty(users.size, dtype=np.float64)
                umeans = given.user_means(fill=gmean)
                for block in user_blocks(users):
                    u = int(users[block[0]])
                    rated_idx, rated_vals = given.user_profile(u)
                    q = items[block]
                    if rated_idx.size == 0:
                        out[block] = umeans[u]
                        continue
                    sims = np.maximum(sim[np.ix_(q, rated_idx)], 0.0)
                    sims[q[:, None] == rated_idx[None, :]] = 0.0
                    denom = sims.sum(axis=1)
                    numer = sims @ rated_vals
                    out[block] = np.where(
                        denom > 0.0,
                        numer / np.where(denom > 0.0, denom, 1.0),
                        umeans[u],
                    )
                return np.clip(out, lo, hi)

            stages.append(("item_knn", item_knn))

        def user_mean(given: RatingMatrix, users: np.ndarray, items: np.ndarray) -> np.ndarray:
            return np.clip(given.user_means(fill=gmean)[users], lo, hi)

        def global_mean(given: RatingMatrix, users: np.ndarray, items: np.ndarray) -> np.ndarray:
            return np.full(users.size, gmean)

        stages.append(("user_mean", user_mean))
        stages.append(("global_mean", global_mean))
        return stages

    # ------------------------------------------------------------------
    # Snapshot reload
    # ------------------------------------------------------------------
    def _load_snapshot(self, path: str):
        """Load with bounded retry/backoff; ``None`` when all fail."""
        # Imported lazily: persistence sits in repro.core, which imports
        # this package's error types — a module-level import would cycle.
        from repro.core.persistence import load_model

        delay = self.reload_backoff
        last: Exception | None = None
        for attempt in range(max(1, self.reload_retries)):
            try:
                return load_model(path)
            except (SnapshotError, OSError, ValueError) as exc:
                last = exc
                if attempt + 1 < max(1, self.reload_retries):
                    self._sleep(delay)
                    delay *= 2.0
        self.last_reload_error = last
        return None

    def reload(self, path: str | None = None) -> bool:
        """Hot-swap the served model from a snapshot.

        Returns ``True`` on success.  On failure (corrupt, missing, or
        unreadable snapshot, after ``reload_retries`` attempts) the
        service keeps serving from the last-known-good model and
        returns ``False``; the failure is kept in
        ``last_reload_error``.
        """
        target = path or self.snapshot_path
        if target is None:
            raise ValueError("no snapshot path given and none configured")
        loaded = self._load_snapshot(target)
        if loaded is None:
            self.metrics.counter("serving.reload.failed").inc()
            if self.model is None:  # pragma: no cover - constructor guards this
                raise ModelUnavailableError(
                    f"snapshot {target!r} unusable and no last-known-good model"
                ) from self.last_reload_error
            return False
        try:
            self._install_model(loaded)
        except ModelUnavailableError:
            self.metrics.counter("serving.reload.failed").inc()
            return False
        self.metrics.counter("serving.reload.ok").inc()
        return True

    # ------------------------------------------------------------------
    # Validation and sanitisation
    # ------------------------------------------------------------------
    def _sanitize_given(self, given: RatingMatrix) -> tuple[RatingMatrix, np.ndarray]:
        """Drop NaN / out-of-scale observed ratings from *given*.

        Returns the (possibly original) matrix and a per-user boolean
        flagging users whose profile was repaired.  Memoised on object
        identity: the common serving pattern re-sends one given matrix
        for many batches, and preserving identity lets every batch
        reuse the cleaned matrix's memoised row keys.  The memo holds
        the source itself, so its identity cannot be recycled.  A new
        matrix is screened with :meth:`RatingMatrix.bad_rows`, which a
        written matrix inherits for its untouched rows; the cell scan
        runs only when some row is bad.
        """
        memo = self._sanitize_memo
        if memo is not None and memo[0] is given:
            return memo[1], memo[2]
        lo, hi = self._scale
        if given.bad_rows(lo, hi).any():
            bad = given.bad_cells(lo, hi)
            cleaned = RatingMatrix(
                np.where(bad, 0.0, given.values), given.mask & ~bad,
                rating_scale=given.rating_scale,
            )
            poisoned_users = bad.any(axis=1)
        else:
            cleaned, poisoned_users = given, np.zeros(given.n_users, dtype=bool)
        self._sanitize_memo = (given, cleaned, poisoned_users)
        return cleaned, poisoned_users

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict(self, given: RatingMatrix, user: int, item: int,
                *, deadline: float | None = None) -> float:
        """Single-request convenience wrapper."""
        result = self.predict_many(
            given, np.array([user]), np.array([item]), deadline=deadline
        )
        return float(result.predictions[0])

    def predict_many(
        self,
        given: RatingMatrix,
        users: np.ndarray | Sequence[int],
        items: np.ndarray | Sequence[int],
        *,
        deadline: float | None = None,
        on_final: Callable[[np.ndarray, ServingResult], object] | None = None,
    ) -> ServingResult:
        """Serve a batch; every request is answered, degraded or not.

        The batch runs through named phases, in order: validate,
        sanitise, probe the request cache, the primary's batched
        passes, then the per-user-block chain walk; one helper builds
        the result (and each ``on_final`` wave's), and the call is
        counted as it returns.

        Parameters
        ----------
        given:
            Active users' revealed profiles (items must align with the
            trained item space).
        users, items:
            Parallel request arrays.
        deadline:
            Latency budget in seconds for the whole batch.  When it
            runs out mid-batch, unserved per-user blocks fall through
            to the cheap user-mean stage and are flagged
            ``deadline_deferred``.
        on_final:
            Called as ``on_final(rows, early)`` for requests whose
            answers are final while others still wait, in readiness
            order, at most twice.  First, before the chain runs, with
            the request-cache hits and, in lenient mode, out-of-range
            requests.  Then, without a *deadline*, when the misses
            mix users whose per-user state is warm with users who
            need a fold-in: the warm users' misses are fused in a pass
            of their own and handed over before the others are folded
            in.  ``rows`` holds the requests' positions in the batch
            (ascending; no row is handed over twice) and ``early`` is
            a :class:`ServingResult` over them, field for field what
            the returned result will say at ``rows``.  The returned
            result still covers the whole batch, and the counters
            count the call once, when it returns.  The micro-batcher
            answers through it, so a cache hit does not wait out the
            kernel pass and a warm miss does not wait out another
            user's fold-in.
        """
        t0 = self._clock()
        if self.model is None:  # pragma: no cover - constructor guards this
            raise ModelUnavailableError("service has no model installed")
        call = self._validate(given, users, items, t0)
        n = call.users.size
        valid = np.arange(n, dtype=np.intp) if not call.n_invalid else np.flatnonzero(~call.invalid)
        if valid.size:
            cleaned, poisoned_users = self._sanitize_given(given)
            if poisoned_users.any():
                call.sanitized[valid] = poisoned_users[call.users[valid]]
            work = self._probe_cache(call, cleaned, valid)
            if on_final is not None and 0 < work.size < n:
                # The cache hits and the out-of-range requests are final.
                rows = call.hit_rows
                if call.n_invalid:
                    rows = sorted(rows + np.flatnonzero(call.invalid).tolist())
                rows = np.asarray(rows, dtype=np.intp)
                on_final(rows, self._result(call, rows))
            if deadline is None and work.size:
                work = self._primary_passes(call, cleaned, work, on_final)
            self._walk_chain(call, cleaned, work, deadline)
        result = self._result(call)
        self._count(call, result.elapsed)
        return result

    def _validate(self, given: RatingMatrix, users, items, t0: float) -> _Call:
        """Check the request arrays and start the call's record.

        Out-of-range requests are flagged ``invalid`` (lenient mode) or
        raise :class:`~repro.serving.errors.InvalidRequestError`
        (strict mode), as does a *given* over another item space.
        """
        try:
            users = np.asarray(users, dtype=np.intp)
            items = np.asarray(items, dtype=np.intp)
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"non-integer request arrays: {exc}") from exc
        if users.shape != items.shape or users.ndim != 1:
            raise InvalidRequestError(
                f"users {users.shape} and items {items.shape} must be parallel 1-D arrays"
            )
        n = users.size
        # Four scalar reductions cover the overwhelmingly common
        # all-valid batch; the per-element mask arithmetic only runs
        # when some request is actually out of range.
        if n and (
            int(users.min()) >= 0
            and int(users.max()) < given.n_users
            and int(items.min()) >= 0
            and int(items.max()) < self._n_items
        ):
            invalid = np.zeros(n, dtype=bool)
            n_invalid = 0
        else:
            invalid = (users < 0) | (users >= given.n_users)
            invalid |= (items < 0) | (items >= self._n_items)
            n_invalid = int(invalid.sum())
        if given.n_items != self._n_items:
            if self.strict:
                raise InvalidRequestError(
                    f"given has {given.n_items} items but model serves {self._n_items}"
                )
            invalid[:] = True
            n_invalid = n
        if self.strict and n_invalid:
            offender = int(np.nonzero(invalid)[0][0])
            raise InvalidRequestError(
                f"request {offender} (user={users[offender]}, item={items[offender]}) "
                "is out of range"
            )
        return _Call(t0, users, items, invalid, n_invalid, self._global_mean, len(self._stages) - 1)

    def _probe_cache(self, call: _Call, cleaned: RatingMatrix, valid: np.ndarray) -> np.ndarray:
        """Answer the request-cache hits among *valid*; return the misses.

        Keys cover the requesting user's row content, so a write to one
        profile leaves every other user's entries warm.  They are built
        from plain-int lists (one ``tolist()`` pass) rather than
        per-element np scalar casts, and probed under one lock.  An
        all-hit batch fills its rows with one array assignment; per-row
        numpy writes would cost more than the lookups.
        """
        cache = self._request_cache
        if cache is None:
            return valid
        row_key, ver = cleaned.row_key, self.model_version
        u_list = call.users.tolist()
        i_list = call.items.tolist()
        rows = valid.tolist()
        keys = [(row_key(u_list[r]), u_list[r], i_list[r], ver) for r in rows]
        found = cache.get_many(keys)
        call.miss_keys = miss_keys = {}
        predictions, levels, hit_rows = call.predictions, call.levels, call.hit_rows
        if None in found:
            for r, key, val in zip(rows, keys, found):
                if val is None:
                    miss_keys[r] = key
                else:
                    hit_rows.append(r)
                    predictions[r] = val
                    levels[r] = 0
            work = np.asarray(list(miss_keys), dtype=np.intp)
        else:
            predictions[valid] = found
            levels[valid] = 0
            work = valid[:0]
        call.cache_misses = work.size
        call.cache_hits = valid.size - work.size
        return work

    def _primary_passes(
        self, call: _Call, cleaned: RatingMatrix, work: np.ndarray, on_final
    ) -> np.ndarray:
        """Try the primary stage on *work* in batched passes; return the
        rows of the passes that failed.

        The model's batched kernel fuses every request of a pass at
        once.  With an *on_final* hook, when *work* holds users whose
        state is warm and users who need a fold-in, the warm users'
        rows are fused first and handed over, so their answers do not
        wait out another user's fold-in; the rest follow in a second
        pass.  A failed pass counts against the primary's breaker like
        a block's.
        """
        passes = [work]
        has_state = self._has_state
        if on_final is not None and has_state is not None:
            work_rows, row_users = work.tolist(), call.users[work].tolist()
            distinct = set(row_users)
            warm = {u for u in distinct if has_state(cleaned, u)}
            if warm and len(warm) < len(distinct):
                first = [r for r, u in zip(work_rows, row_users) if u in warm]
                rest = [r for r, u in zip(work_rows, row_users) if u not in warm]
                passes = [np.asarray(first, dtype=np.intp), np.asarray(rest, dtype=np.intp)]
        failed = []
        for k, rows in enumerate(passes, 1):
            out = self._try_stage(self._stages[0], cleaned, call, rows)
            if out is None:
                failed.append(rows)
                continue
            self._answer(call, rows, out, 0)
            if k < len(passes):
                on_final(rows, self._result(call, rows))
        return np.concatenate(failed) if failed else work[:0]

    def _walk_chain(
        self, call: _Call, cleaned: RatingMatrix, work: np.ndarray, deadline: float | None
    ) -> None:
        """Serve *work* down the chain per user block, so faults and
        budget cuts stay isolated per user.

        Once *deadline* is spent, each remaining block goes to the cheap
        user-mean stage and is flagged ``deadline_deferred``.  A block
        every stage fails (or skips, its breaker open) is served the
        stored global mean.
        """
        if not work.size:
            return
        cheap = self._deadline_level
        for block in user_blocks(call.users[work], work):
            if deadline is not None and self._clock() - call.t0 >= deadline:
                call.deadline_hit = True
                call.deferred[block] = True
                out = self._stages[cheap].fn(cleaned, call.users[block], call.items[block])
                self._answer(call, block, out, cheap)
                continue
            for level, stage in enumerate(self._stages):
                out = self._try_stage(stage, cleaned, call, block)
                if out is not None:
                    break
            else:
                out = np.full(block.size, self._global_mean)
            self._answer(call, block, out, level)

    def _try_stage(
        self, stage: _Stage, given: RatingMatrix, call: _Call, rows: np.ndarray
    ) -> np.ndarray | None:
        """One guarded attempt at *stage* on the call's *rows*; ``None``
        means move on.

        The stage is skipped while its breaker is open.  A raise, or an
        output that is misshapen or non-finite, is recorded against the
        breaker, the stage's failure counter and the call's errors (up
        to ``_MAX_ERRORS_PER_CALL``).
        """
        breaker = stage.breaker
        if not breaker.allow():
            return None
        try:
            out = np.asarray(stage.fn(given, call.users[rows], call.items[rows]), dtype=np.float64)
            if out.shape != rows.shape or not np.isfinite(out).all():
                raise InvalidRequestError(
                    f"stage {stage.name!r} produced non-finite or misshapen output"
                )
        except Exception as exc:  # noqa: BLE001 - the chain absorbs stage faults
            breaker.record_failure()
            stage.failures.inc()
            if len(call.errors) < _MAX_ERRORS_PER_CALL:
                call.errors.append(
                    StageFailure(stage.name, f"{type(exc).__name__}: {exc}", rows.size)
                )
            return None
        breaker.record_success()
        return out

    def _answer(self, call: _Call, rows: np.ndarray, values: np.ndarray, level: int) -> None:
        """Record *values* as the answers at *rows*, served by stage
        *level*; the primary's answers also go into the request cache."""
        call.predictions[rows] = values
        call.levels[rows] = level
        keys = call.miss_keys
        if level == 0 and keys is not None:
            self._request_cache.put_many([keys[r] for r in rows.tolist()], values.tolist())

    def _result(self, call: _Call, rows: np.ndarray | None = None) -> ServingResult:
        """The call's result: over the whole batch, or over *rows* for
        an ``on_final`` wave.  (``np.minimum`` of ``np.maximum`` is
        ``np.clip``, for less per-call overhead.)"""
        lo, hi = self._scale
        rows = slice(None) if rows is None else rows
        return ServingResult(
            predictions=np.minimum(np.maximum(call.predictions[rows], lo), hi),
            fallback_level=call.levels[rows],
            stage_names=self.stage_names,
            invalid=call.invalid[rows],
            sanitized=call.sanitized[rows],
            deadline_deferred=call.deferred[rows],
            deadline_hit=call.deadline_hit,
            elapsed=self._clock() - call.t0,
            errors=tuple(call.errors),
        )

    def _count(self, call: _Call, elapsed: float) -> None:
        """Count the call into the registry, once, as it returns."""
        levels, n = call.levels, call.levels.size
        n_deferred = int(call.deferred.sum()) if call.deadline_hit else 0
        n_sanitized = int(call.sanitized.sum())
        n_fallback = int(np.count_nonzero(levels))
        n_degraded = n_fallback
        if call.n_invalid or n_deferred or n_sanitized:
            n_degraded = int(((levels > 0) | call.invalid | call.sanitized | call.deferred).sum())
        self._m_requests.inc(n)
        self._m_latency.observe(elapsed)
        if n_fallback:
            counts = np.bincount(levels, minlength=len(self._stages)).tolist()
            for stage, count in zip(self._stages, counts):
                if count:
                    stage.served.inc(count)
        elif n:
            self._stages[0].served.inc(n)
        if call.n_invalid:
            self._m_invalid.inc(call.n_invalid)
        if n_sanitized:
            self._m_sanitized.inc(n_sanitized)
        if n_deferred:
            self._m_deferred.inc(n_deferred)
        if n_degraded:
            self._m_degraded.inc(n_degraded)
        if call.cache_hits:
            self._m_cache_hits.inc(call.cache_hits)
        if call.cache_misses:
            self._m_cache_misses.inc(call.cache_misses)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def breaker_states(self) -> dict[str, str]:
        """Current circuit state per stage."""
        return {name: br.state.value for name, br in self._breakers.items()}

    def health(self) -> dict:
        """Operational snapshot for dashboards and tests.

        Every total is read from :attr:`metrics`, the service's one
        counter store, so it agrees with the exposition formats by
        construction.  Per-breaker open-durations and a ``latency``
        percentile summary of the ``serving.request.latency``
        histogram ride along.
        """
        def total(name: str) -> int:
            return int(self.metrics.counter_value(name))

        latency = self._m_latency
        health = {
            "model": None if self.model is None else str(self.model.name),
            "model_version": self.model_version,
            "stages": list(self.stage_names),
            "breakers": {n: b.snapshot() for n, b in self._breakers.items()},
            "requests_total": total("serving.requests"),
            "invalid_total": total("serving.invalid"),
            "deadline_deferred_total": total("serving.deadline.deferred"),
            "sanitized_total": total("serving.sanitized"),
            "degraded_total": total("serving.degraded"),
            "breaker_open_seconds": {
                n: b.open_seconds() for n, b in self._breakers.items()
            },
            "reloads_ok": total("serving.reload.ok"),
            "reloads_failed": total("serving.reload.failed"),
            "last_reload_error": (
                None if self.last_reload_error is None else repr(self.last_reload_error)
            ),
            "latency": {
                "count": latency.count,
                "mean": latency.mean,
                "p50": latency.quantile(0.50),
                "p95": latency.quantile(0.95),
                "p99": latency.quantile(0.99),
            },
        }
        if self._request_cache is not None:
            rc = self._request_cache
            hits = total("serving.cache.hits")
            misses = total("serving.cache.misses")
            health["request_cache"] = {
                "entries": len(rc),
                "maxsize": rc.maxsize,
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
        return health
