"""A checkout/return pool of per-worker fusion kernels.

:class:`~repro.core.fusion.FusionKernel` owns reusable scratch buffers
(the Eq. 13 workspace and the gather staging), which
makes ``fuse_many`` fast — and **non-re-entrant**.  Pre-concurrency,
the serving layer simply serialised every call; under the ROADMAP's
"heavy traffic" goal that turns the whole service into a single-file
queue.

:class:`KernelPool` removes the serialisation without giving up the
warm buffers: it lends each dispatch worker its own
:meth:`~repro.core.fusion.FusionKernel.clone` — the O(P·Q) derived
matrices are shared read-only, only the scratch is duplicated — so N
workers fuse concurrently and never race.  Kernels are created
lazily: a pool of ``max_workers=8`` that only ever sees two
concurrent dispatches holds two clones.

Checkout latency is recorded in the ``serving.pool.checkout`` obs
histogram and the in-use count in the ``serving.pool.in_use`` gauge,
so pool exhaustion (checkouts queueing on the condition variable)
is visible on the same dashboards as queue depth.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.fusion import FusionKernel
from repro.obs import get_registry
from repro.utils.validation import check_positive_int

__all__ = ["KernelPool"]


class KernelPool:
    """Lazily grown pool of cloned fusion kernels (checkout/return).

    Parameters
    ----------
    template:
        The kernel to clone workers from (typically ``model.kernel``
        after :meth:`~repro.core.model.CFSF.warm_online`).
    max_workers:
        Upper bound on live clones.  A checkout beyond the bound
        blocks until another worker returns its kernel — the pool is
        the concurrency throttle for the fusion stage, so this is
        effectively "how many fusion evaluations may run at once".
    clock:
        Injectable time source for the checkout-latency histogram.
    metrics:
        A :class:`~repro.obs.MetricsRegistry`; defaults to the ambient
        registry (a no-op unless observability was opted into).

    Examples
    --------
    >>> from repro.core import CFSF
    >>> from repro.data import make_movielens_like, make_split
    >>> split = make_split(make_movielens_like(seed=0).ratings,
    ...                    n_train_users=300, given_n=10)
    >>> model = CFSF().fit(split.train)
    >>> pool = KernelPool(model.kernel, max_workers=2)
    >>> with pool.checkout() as kernel:
    ...     kernel is not model.kernel
    True
    >>> pool.created
    1
    """

    def __init__(
        self,
        template: FusionKernel,
        max_workers: int = 4,
        *,
        clock: Callable[[], float] = time.perf_counter,
        metrics=None,
    ) -> None:
        if template is None:
            raise ValueError("KernelPool needs a built FusionKernel template")
        self.max_workers = check_positive_int(max_workers, "max_workers")
        self._template = template
        self._clock = clock
        self.metrics = get_registry() if metrics is None else metrics
        self._cond = threading.Condition()
        self._free: list[FusionKernel] = []
        self._created = 0
        self._in_use = 0

    @property
    def created(self) -> int:
        """Clones materialised so far (lazy growth: ≤ max_workers)."""
        return self._created

    @property
    def in_use(self) -> int:
        """Kernels currently checked out."""
        return self._in_use

    @property
    def available(self) -> int:
        """Kernels that a checkout would get without cloning or waiting."""
        return len(self._free)

    def _acquire(self, timeout: float | None) -> FusionKernel:
        t0 = self._clock()
        with self._cond:
            while True:
                if self._free:
                    kernel = self._free.pop()
                    break
                if self._created < self.max_workers:
                    self._created += 1
                    # Clone under the lock: it copies references and
                    # allocates a few empty arrays, so the critical
                    # section stays trivially short while keeping the
                    # created-count accounting exact.
                    kernel = self._template.clone()
                    break
                if not self._cond.wait(timeout=timeout):
                    raise TimeoutError(
                        f"no kernel free after {timeout}s "
                        f"({self._created}/{self.max_workers} all checked out)"
                    )
            self._in_use += 1
            in_use = self._in_use
        reg = self.metrics
        if reg.enabled:
            reg.histogram("serving.pool.checkout").observe(self._clock() - t0)
            reg.gauge("serving.pool.in_use").set(in_use)
        return kernel

    def _release(self, kernel: FusionKernel) -> None:
        with self._cond:
            self._free.append(kernel)
            self._in_use -= 1
            in_use = self._in_use
            self._cond.notify()
        reg = self.metrics
        if reg.enabled:
            reg.gauge("serving.pool.in_use").set(in_use)

    @contextmanager
    def checkout(self, timeout: float | None = None) -> Iterator[FusionKernel]:
        """Borrow a kernel for the duration of the ``with`` block.

        Blocks while every clone is checked out (raising
        :class:`TimeoutError` after *timeout* seconds when given).
        The kernel is returned to the free list even when the block
        raises — a failed dispatch must not leak pool capacity.
        """
        kernel = self._acquire(timeout)
        try:
            yield kernel
        finally:
            self._release(kernel)

    def stats(self) -> dict:
        """Pool occupancy snapshot for health endpoints and tests."""
        with self._cond:
            return {
                "max_workers": self.max_workers,
                "created": self._created,
                "in_use": self._in_use,
                "free": len(self._free),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelPool(max_workers={self.max_workers}, "
            f"created={self._created}, in_use={self._in_use})"
        )
