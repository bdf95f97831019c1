"""Plain-text reporting: tables and line charts for a terminal.

The benchmark harness prints the same artefacts the paper shows —
MAE tables in the exact row/column layout of Tables II/III and ASCII
line plots for the figures — so a reproduction run can be compared to
the paper by eye, with no plotting dependencies.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["format_table", "format_paper_table", "ascii_plot"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.3f}",
) -> str:
    """Render a fixed-width table.

    Floats are formatted with *float_fmt*; everything else with
    ``str``.  Columns are sized to their widest cell.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float) and not isinstance(cell, bool):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    all_rows = [list(map(str, headers))] + str_rows
    widths = [max(len(r[c]) for r in all_rows) for c in range(len(headers))]
    sep = "  "

    def line(cells: Sequence[str]) -> str:
        return sep.join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out: list[str] = []
    if title:
        out.append(title)
    out.append(line(list(map(str, headers))))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def format_paper_table(
    results: Mapping[tuple[str, str], float],
    *,
    training_sets: Sequence[str],
    methods: Sequence[str],
    given_labels: Sequence[str] = ("Given5", "Given10", "Given20"),
    title: str | None = None,
) -> str:
    """Render the paper's Table II/III layout.

    Parameters
    ----------
    results:
        ``{(training_set, method): {given_label: mae}}`` flattened as
        ``{(f"{training_set}/{given_label}", method): mae}`` — i.e.
        keyed by ``(split_name, method)`` where ``split_name`` is
        ``"ML_300/Given5"`` etc.
    training_sets:
        Row groups, e.g. ``("ML_300", "ML_200", "ML_100")`` (the
        paper lists them largest-first).
    methods:
        Row order within each group (the paper lists CFSF first).
    """
    headers = ["Training set", "Methods", *given_labels]
    rows: list[list[object]] = []
    for ts in training_sets:
        for mi, method in enumerate(methods):
            row: list[object] = [ts if mi == 0 else "", method]
            for g in given_labels:
                key = (f"{ts}/{g}", method)
                row.append(results[key] if key in results else float("nan"))
            rows.append(row)
    return format_table(headers, rows, title=title)


def ascii_plot(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    width: int = 68,
    height: int = 16,
    title: str | None = None,
    x_label: str = "",
    y_label: str = "MAE",
) -> str:
    """A minimal multi-series ASCII line chart.

    Each series gets a marker character; points are plotted on a
    ``height x width`` grid with min/max auto-scaling.  Good enough to
    see the U-shapes and elbows of Figs. 2–4 and 6–8 in a terminal.
    """
    markers = "ox+*#@%&"
    xs = np.asarray(list(x), dtype=np.float64)
    all_y = np.concatenate([np.asarray(list(v), dtype=np.float64) for v in series.values()])
    y_min, y_max = float(all_y.min()), float(all_y.max())
    if y_max - y_min < 1e-12:
        y_max = y_min + 1.0
    x_min, x_max = float(xs.min()), float(xs.max())
    if x_max - x_min < 1e-12:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        marker = markers[si % len(markers)]
        for xv, yv in zip(xs, np.asarray(list(ys), dtype=np.float64)):
            col = int(round((xv - x_min) / (x_max - x_min) * (width - 1)))
            row = int(round((y_max - yv) / (y_max - y_min) * (height - 1)))
            grid[row][col] = marker

    out: list[str] = []
    if title:
        out.append(title)
    out.append(f"{y_max:8.3f} ┐")
    for r, row_chars in enumerate(grid):
        prefix = "         │"
        if r == height - 1:
            prefix = f"{y_min:8.3f} ┘"
        out.append(prefix + "".join(row_chars))
    out.append(" " * 10 + f"{x_min:g}".ljust(width - 8) + f"{x_max:g}")
    if x_label:
        out.append(" " * 10 + x_label)
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series.keys())
    )
    out.append(" " * 10 + legend)
    return "\n".join(out)
