"""Exposition formats: JSON snapshot and Prometheus text format.

Two renderings of one :meth:`~repro.obs.registry.MetricsRegistry.
snapshot`:

* :func:`render_json` — the snapshot as a JSON document, spans and
  percentile estimates included.  This is what ``repro metrics
  --format json`` prints.
* :func:`render_prometheus` — the `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
  scrapers expect: one ``# HELP``/``# TYPE`` pair per family, dotted
  metric names sanitised to underscores, counters suffixed
  ``_total``, histograms expanded to cumulative ``_bucket{le=...}``
  series plus ``_sum``/``_count``.  Spans are not emitted directly —
  their durations already surface as ``span_*`` histograms.
"""

from __future__ import annotations

import json
import re

__all__ = ["render_json", "render_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _snapshot_of(registry_or_snapshot) -> dict:
    if hasattr(registry_or_snapshot, "snapshot"):
        return registry_or_snapshot.snapshot()
    return registry_or_snapshot


def sanitize_name(name: str) -> str:
    """A dotted repro metric name as a legal Prometheus metric name."""
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = sorted(labels.items()) + list(extra)
    if not items:
        return ""
    rendered = ",".join(
        f'{sanitize_name(k)}="{_escape(v)}"' for k, v in items
    )
    return "{" + rendered + "}"


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_json(registry_or_snapshot, *, indent: int | None = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(_snapshot_of(registry_or_snapshot), indent=indent, sort_keys=True)


def render_prometheus(registry_or_snapshot) -> str:
    """The registry snapshot in the Prometheus text exposition format.

    Guarantees scrapers rely on: each family's ``# HELP`` and
    ``# TYPE`` appear exactly once, samples of a family are
    contiguous, histogram bucket counts are cumulative and end with
    ``le="+Inf"`` equal to ``_count``.

    Examples
    --------
    >>> from repro.obs import MetricsRegistry
    >>> reg = MetricsRegistry()
    >>> reg.counter("serving.requests", stage="primary").inc(2)
    >>> print(render_prometheus(reg))
    # HELP serving_requests_total serving.requests
    # TYPE serving_requests_total counter
    serving_requests_total{stage="primary"} 2
    <BLANKLINE>
    """
    snap = _snapshot_of(registry_or_snapshot)
    lines: list[str] = []

    # Group series by exposition family so HELP/TYPE are emitted once.
    families: dict[str, tuple[str, str, list[dict]]] = {}

    def _family(fam: str, kind: str, original: str) -> list[dict]:
        entry = families.get(fam)
        if entry is None:
            entry = (kind, original, [])
            families[fam] = entry
        return entry[2]

    for rec in snap.get("counters", ()):
        fam = sanitize_name(rec["name"])
        if not fam.endswith("_total"):
            fam += "_total"
        _family(fam, "counter", rec["name"]).append(rec)
    for rec in snap.get("gauges", ()):
        _family(sanitize_name(rec["name"]), "gauge", rec["name"]).append(rec)
    for rec in snap.get("histograms", ()):
        _family(sanitize_name(rec["name"]), "histogram", rec["name"]).append(rec)

    for fam in sorted(families):
        kind, original, series = families[fam]
        lines.append(f"# HELP {fam} {original}")
        lines.append(f"# TYPE {fam} {kind}")
        for rec in series:
            labels = rec["labels"]
            if kind in ("counter", "gauge"):
                lines.append(f"{fam}{_fmt_labels(labels)} {_fmt_value(rec['value'])}")
                continue
            cumulative = 0
            for bound, c in zip(rec["buckets"], rec["counts"]):
                cumulative += c
                le = _fmt_labels(labels, (("le", _fmt_value(bound)),))
                lines.append(f"{fam}_bucket{le} {cumulative}")
            le = _fmt_labels(labels, (("le", "+Inf"),))
            lines.append(f"{fam}_bucket{le} {rec['count']}")
            lines.append(f"{fam}_sum{_fmt_labels(labels)} {_fmt_value(rec['sum'])}")
            lines.append(f"{fam}_count{_fmt_labels(labels)} {rec['count']}")
    return "\n".join(lines) + "\n"
