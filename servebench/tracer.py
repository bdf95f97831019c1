"""Per-layer timing through class-level wrappers around public calls.

The traced run installs a :class:`LayerTracer` *before* it builds the
serving stack, for two reasons:

* ``PredictionService`` binds ``model.predict_many`` when the model is
  installed, so a wrapper added to ``CFSF`` afterwards is never called;
* ``MicroBatcher`` serves through ``FusionKernel.clone()`` copies from
  its ``KernelPool``, so a wrapper set on one kernel *instance* never
  sees the served calls.

Wrapping the classes before construction covers both.  Untraced runs
never install anything from here.

Every wrapped call is timed on the thread that makes it.  A call's self
time is its duration minus the time spent in calls into *other* layers
made beneath it on the same thread.  A nested call into the same layer
(``CFSF.active_user_state`` under ``CFSF.predict_many``) hands its own
children up to the outer call instead, so each layer's self time
counts every one of its calls once.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from functools import wraps

import numpy as np

from repro.core.fusion import FusionKernel
from repro.core.model import CFSF
from repro.data.matrix import RatingMatrix
from repro.serving.batcher import MicroBatcher
from repro.serving.pool import KernelPool
from repro.serving.service import PredictionService

# Tally record slots: calls, busy seconds, self seconds, requests, blocks.
CALLS, BUSY, SELF, REQS, BLOCKS = range(5)


def _requests(args: tuple) -> tuple[int, int]:
    """``predict_many(self, given, users, items)``: requests in the call."""
    return int(np.size(args[2])), 0


def _fused(args: tuple) -> tuple[int, int]:
    """``fuse_many(self, blocks)``: requests and per-user blocks."""
    blocks = args[1]
    return sum(int(np.size(items)) for _, items in blocks), len(blocks)


class LayerTracer:
    """Install with ``with LayerTracer() as tracer:``; read :meth:`totals`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[dict[str, list]] = []
        self._patches: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self._wrap(MicroBatcher, "submit", "batcher", "batcher.submit")
        self._wrap(PredictionService, "predict_many", "service", "service.predict_many",
                   units=_requests)
        self._wrap(CFSF, "predict_many", "model", "model.predict_many", units=_requests)
        self._wrap(CFSF, "active_user_state", "model", "model.active_user_state",
                   miss_on="kernel.prepare_user")
        self._wrap(FusionKernel, "fuse_many", "kernel", "kernel.fuse_many", units=_fused)
        self._wrap(FusionKernel, "prepare_user", "kernel", "kernel.prepare_user")
        self._wrap(RatingMatrix, "with_ratings", "data", "data.with_ratings")
        self._wrap_checkout()
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (call between windows)."""
        with self._lock:
            for tally in self._tallies:
                tally.clear()

    def totals(self) -> dict[str, list]:
        """Per-call tallies summed over every thread."""
        out: dict[str, list] = {}
        with self._lock:
            for tally in self._tallies:
                for key, rec in tally.items():
                    acc = out.setdefault(key, [0, 0.0, 0.0, 0, 0])
                    for slot, value in enumerate(rec):
                        acc[slot] += value
        return out

    # ------------------------------------------------------------------
    def _thread_state(self) -> tuple[dict[str, list], list[list]]:
        local = self._local
        tally = getattr(local, "tally", None)
        if tally is None:
            tally = local.tally = {}
            local.stack = []
            with self._lock:
                self._tallies.append(tally)
        return tally, local.stack

    @staticmethod
    def _record(tally: dict[str, list], key: str, dur: float, self_s: float,
                reqs: int = 0, blocks: int = 0) -> None:
        rec = tally.get(key)
        if rec is None:
            rec = tally[key] = [0, 0.0, 0.0, 0, 0]
        rec[CALLS] += 1
        rec[BUSY] += dur
        rec[SELF] += self_s
        rec[REQS] += reqs
        rec[BLOCKS] += blocks

    def _wrap(self, owner: type, attr: str, layer: str, key: str, *,
              units=None, miss_on: str | None = None) -> None:
        """Time ``owner.attr``; with *miss_on*, a call during which the
        *miss_on* call ran is also tallied under ``key + ".miss"``."""
        original = owner.__dict__[attr]
        tracer, clock = self, time.perf_counter

        @wraps(original)
        def wrapper(*args, **kwargs):
            tally, stack = tracer._thread_state()
            frame = [layer, 0.0]  # [layer, time spent in other layers below]
            stack.append(frame)
            seen = tally[miss_on][CALLS] if miss_on in tally else 0
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += frame[1] if parent[0] == layer else dur
                reqs, blocks = units(args) if units is not None else (0, 0)
                tracer._record(tally, key, dur, dur - frame[1], reqs, blocks)
                if miss_on is not None and miss_on in tally and tally[miss_on][CALLS] > seen:
                    tracer._record(tally, key + ".miss", dur, dur - frame[1])

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap_checkout(self) -> None:
        """Time entering ``KernelPool.checkout`` (the wait for a kernel)."""
        original = KernelPool.__dict__["checkout"]
        tracer, clock = self, time.perf_counter

        @contextmanager
        def checkout(pool, timeout=None):
            with ExitStack() as stack:
                t0 = clock()
                kernel = stack.enter_context(original(pool, timeout))
                dur = clock() - t0
                tracer._record(tracer._thread_state()[0], "pool.checkout", dur, dur)
                yield kernel

        KernelPool.checkout = checkout
        self._patches.append((KernelPool, "checkout", original))


def layer_metrics(totals: dict[str, list], wall_s: float) -> dict[str, float]:
    """The per-layer metrics that come from the wrapped calls alone."""
    zero = [0, 0.0, 0.0, 0, 0]

    def rec(key: str) -> list:
        return totals.get(key, zero)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    submit, checkout = rec("batcher.submit"), rec("pool.checkout")
    service, model = rec("service.predict_many"), rec("model.predict_many")
    state, miss = rec("model.active_user_state"), rec("model.active_user_state.miss")
    fuse, prepare = rec("kernel.fuse_many"), rec("kernel.prepare_user")
    write = rec("data.with_ratings")
    return {
        "batcher.submit_us": per(submit[BUSY], submit[CALLS], 1e6),
        "pool.checkout_wait_us": per(checkout[BUSY], checkout[CALLS], 1e6),
        "service.us_per_req": per(service[BUSY], service[REQS], 1e6),
        "service.self_us_per_req": per(service[SELF], service[REQS], 1e6),
        "service.busy_frac": per(service[BUSY], wall_s),
        "model.us_per_req": per(model[BUSY], model[REQS], 1e6),
        "model.self_us_per_req": per(model[SELF], model[REQS], 1e6),
        "model.state_hit_ratio": per(state[CALLS] - miss[CALLS], state[CALLS]),
        "model.fold_ins": float(miss[CALLS]),
        "model.fold_in_us": per(miss[BUSY], miss[CALLS], 1e6),
        "kernel.fuse_us_per_req": per(fuse[BUSY], fuse[REQS], 1e6),
        "kernel.reqs_per_block": per(fuse[REQS], fuse[BLOCKS]),
        "kernel.prepare_us": per(prepare[BUSY], prepare[CALLS], 1e6),
        "data.write_ms": per(write[BUSY], write[CALLS], 1e3),
    }
