"""Observability: the metrics registry, tracing spans, and exposition.

The serving layer (PR 1) made the system degrade instead of fail;
this subpackage makes it *visible* — what degraded, how often, and
where the time goes:

* :mod:`~repro.obs.registry` — the thread-safe in-process
  :class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms
  with percentile estimates, tracing spans) plus the picklable
  snapshot/drain/merge delta protocol that carries worker-process
  measurements back to the parent, and the no-op
  :class:`NullRegistry` every layer defaults to.
* :mod:`~repro.obs.spans` — the ambient registry
  (:func:`get_registry` / :func:`set_registry` / :func:`use_registry`)
  and the free :func:`span` context manager the offline pipeline is
  instrumented with (``model.fit`` → ``gis.build`` / ``cluster.fit``
  / ``smooth.apply`` / ``icluster.build`` / ``gis.order``).
* :mod:`~repro.obs.exposition` — :func:`render_json` and
  :func:`render_prometheus`, reachable via ``python -m repro metrics``
  and :meth:`repro.serving.PredictionService.health`.

Everything here is stdlib-only, and with observability disabled (the
default) each instrumentation site costs a single attribute check.
See ``docs/observability.md`` for naming conventions and the span
taxonomy.
"""

from repro.obs.exposition import render_json, render_prometheus
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
)
from repro.obs.spans import get_registry, set_registry, span, use_registry

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "get_registry",
    "render_json",
    "render_prometheus",
    "set_registry",
    "span",
    "use_registry",
]
