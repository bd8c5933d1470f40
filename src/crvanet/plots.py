"""Native SVG line charts for sweep results.

One chart per metric, one series per scheme: seed-averaged values with
min/max whiskers over the swept axis. Rendering is plain SVG text with
fixed-precision coordinates, so identical tables give byte-identical
files with no plotting process involved.
"""

from __future__ import annotations

import os
from collections import defaultdict

from .config import Scheme
from .sweep import SweepTable, format_axis_value

METRICS = ("allocations", "false_alarms", "misdetections")

_COLORS = {
    Scheme.STANDALONE: "#d62728",
    Scheme.COOPERATIVE: "#1f77b4",
    Scheme.PROPOSED: "#2ca02c",
}

_AXIS_LABEL = {
    "vehicles": "number of vehicles",
    "channels": "number of channels",
    "speed": "average speed (km/h)",
}

_METRIC_LABEL = {
    "allocations": "successful allocations",
    "false_alarms": "false alarms",
    "misdetections": "misdetections",
}

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 150, 40, 55


class PlotDataError(ValueError):
    """Not enough data to draw a chart."""


def _series(table: SweepTable, metric: str):
    """-> {scheme: [(value, mean, lo, hi)]}, values ascending."""
    buckets: dict[tuple[Scheme, float], list[int]] = defaultdict(list)
    for row in table.rows:
        buckets[(row.scheme, row.axis_value)].append(getattr(row, metric))
    series: dict[Scheme, list[tuple[float, float, float, float]]] = defaultdict(list)
    for (scheme, value), counts in sorted(buckets.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        series[scheme].append((value, sum(counts) / len(counts), min(counts), max(counts)))
    return series


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_chart(table: SweepTable, metric: str, title: str) -> str:
    """One SVG document for one metric."""
    series = _series(table, metric)
    axis_values = sorted({row.axis_value for row in table.rows})
    if len(axis_values) < 2:
        raise PlotDataError(
            f"chart for {metric!r} needs at least 2 axis values, got {len(axis_values)}"
        )

    x_lo, x_hi = min(axis_values), max(axis_values)
    y_lo = 0.0
    y_hi = max((p[3] for pts in series.values() for p in pts), default=1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05  # headroom so no point touches the frame

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]

    for y in _ticks(y_lo, y_hi):
        py = sy(y)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(py)}" x2="{MARGIN_L + plot_w}" y2="{_fmt(py)}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y:.0f}</text>'
        )
    for x in axis_values:
        px = sx(x)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(px)}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{format_axis_value(x)}</text>'
        )

    axis_name = _AXIS_LABEL.get(table.spec_axis, table.spec_axis or "axis value")
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{axis_name}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.0f})">{_METRIC_LABEL[metric]}</text>'
    )

    legend_y = MARGIN_T + 10
    for scheme in sorted(series, key=lambda s: s.value):
        color = _COLORS[scheme]
        points = series[scheme]
        # min/max whiskers
        for value, _, lo, hi in points:
            px = sx(value)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(sy(lo))}" x2="{_fmt(px)}" y2="{_fmt(sy(hi))}" '
                f'stroke="{color}" stroke-width="1" opacity="0.6"/>'
            )
        path = " ".join(f"{_fmt(sx(v))},{_fmt(sy(m))}" for v, m, _, _ in points)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for value, mean, _, _ in points:
            parts.append(
                f'<circle cx="{_fmt(sx(value))}" cy="{_fmt(sy(mean))}" r="3" fill="{color}"/>'
            )
        lx = MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="12">{scheme.value}</text>'
        )
        legend_y += 20

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plots(table: SweepTable, out_dir: str) -> list[str]:
    """Write fig_<axis>_<metric>.svg for each metric; returns the paths."""
    if not table.rows:
        raise PlotDataError("cannot plot an empty sweep table")
    os.makedirs(out_dir, exist_ok=True)
    axis = table.spec_axis or "axis"
    paths = []
    for metric in METRICS:
        doc = render_chart(
            table, metric,
            f"{_AXIS_LABEL.get(axis, axis)} vs {_METRIC_LABEL[metric]}",
        )
        path = os.path.join(out_dir, f"fig_{axis}_{metric}.svg")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(doc)
        paths.append(path)
    return paths
