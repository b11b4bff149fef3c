"""Minimal self-contained SVG plotting: log-log scatter with fitted lines.

Kept free of plotting libraries on purpose; the experiment harness only
needs dyadic scatter plots with a regression line and a slope in the legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

from .analysis import line_fit

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 520
_ML, _MR, _MT, _MB = 70, 20, 44, 56


def _text(attrs: str, body: str) -> str:
    """A ``<text>`` element; its body is escaped, so any label is well-formed XML."""
    return f"<text {attrs}>{escape(body, quote=False)}</text>"


@dataclass(frozen=True)
class Series:
    label: str
    ns: tuple[int, ...]
    values: tuple[float, ...]
    slope: float | None  # None when too few positive points to fit


def render_loglog_svg(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Render one log2-log2 chart; series with no positive values are skipped."""
    logs = [
        [(math.log2(n), math.log2(v)) for n, v in zip(s.ns, s.values) if v > 0]
        for s in series
    ]
    pts = [p for xy in logs for p in xy]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.08 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _text(f'x="{_W / 2:.1f}" y="24" text-anchor="middle" '
              'font-family="sans-serif" font-size="16"', title),
    ]

    ax_color = "#333333"
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="{ax_color}"/>'
    )
    out.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="{ax_color}"/>'
    )

    def ticks(lo: float, hi: float) -> list[int]:
        step = max(1, int(math.ceil((hi - lo) / 8)))
        first = int(math.ceil(lo))
        return list(range(first, int(math.floor(hi)) + 1, step))

    for t in ticks(x_lo, x_hi):
        x = sx(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" '
            f'stroke="{ax_color}"/>'
        )
        out.append(
            _text(f'x="{x:.1f}" y="{_H - _MB + 20}" text-anchor="middle" '
                  'font-family="sans-serif" font-size="11"', f"2^{t}")
        )
    for t in ticks(y_lo, y_hi):
        y = sy(t)
        out.append(
            f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
            f'stroke="{ax_color}"/>'
        )
        out.append(
            _text(f'x="{_ML - 9}" y="{y + 4:.1f}" text-anchor="end" '
                  'font-family="sans-serif" font-size="11"', f"2^{t}")
        )
    out.append(
        _text(f'x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
              'font-family="sans-serif" font-size="13"', xlabel)
    )
    out.append(
        _text(f'x="18" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
              'font-family="sans-serif" font-size="13" '
              f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.1f})"', ylabel)
    )

    for idx, (s, xy) in enumerate(zip(series, logs)):
        color = _PALETTE[idx % len(_PALETTE)]
        for x, y in xy:
            out.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3.5" fill="{color}" '
                f'fill-opacity="0.85"/>'
            )
        if len(xy) >= 2:
            slope, icept = line_fit([p[0] for p in xy], [p[1] for p in xy])
            xs0, xs1 = min(p[0] for p in xy), max(p[0] for p in xy)
            out.append(
                f'<line x1="{sx(xs0):.1f}" y1="{sy(slope * xs0 + icept):.1f}" '
                f'x2="{sx(xs1):.1f}" y2="{sy(slope * xs1 + icept):.1f}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 16 + 18 * idx
        out.append(
            f'<rect x="{_ML + 10}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        slope_txt = f"slope {s.slope:.3f}" if s.slope is not None else "slope n/a"
        out.append(
            _text(f'x="{_ML + 28}" y="{ly + 2}" font-family="sans-serif" '
                  'font-size="12"', f"{s.label} ({slope_txt})")
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
