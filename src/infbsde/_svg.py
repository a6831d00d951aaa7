"""Minimal static SVG line plots on a log value axis.

Only primitives are used so the package carries no plotting dependency.
Layout is fixed-size with a single axes box; inputs are plain sequences.
Every figure the command line writes is one ``line_plot`` call.
"""
from __future__ import annotations

import math
from typing import Dict, Sequence

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 56

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float, target: int = 5):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target + 0.5:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks or [lo]


def _padded(lo: float, hi: float):
    """``[lo, hi]`` widened by 5% on each side; a single value gets unit width."""
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, log: bool):
    """(position, label) pairs: decades on a log axis, round numbers else."""
    if log:
        return [(t, f"1e{t:d}") for t in range(math.ceil(lo), math.floor(hi) + 1)]
    return [(t, f"{t:.6g}") for t in _nice_ticks(lo, hi)]


def line_plot(path, x: Sequence[float], series: Dict[str, Sequence[float]],
              title: str, xlabel: str, ylabel: str, logx: bool = False) -> None:
    """Write each named series against ``x`` as a polyline with dots, in
    ascending ``x``, on a log value axis, and its name in the legend.

    Values that are not finite and positive are left out; a series left
    with none still gets its legend entry.  ``logx`` makes the ``x`` axis
    logarithmic too, so ``x`` must then be positive.
    """
    xs = [math.log10(a) for a in x] if logx else list(x)
    points = {label: sorted((a, math.log10(b)) for a, b in zip(xs, ys)
                            if math.isfinite(b) and b > 0)
              for label, ys in series.items()}
    all_y = [b for pts in points.values() for _, b in pts] or [0.0]
    xlo, xhi = _padded(min(xs), max(xs))
    ylo, yhi = _padded(min(all_y), max(all_y))
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = MARGIN_T, HEIGHT - MARGIN_B

    def px(a):
        return x0 + (a - xlo) / (xhi - xlo) * (x1 - x0)

    def py(b):
        return y1 - (b - ylo) / (yhi - ylo) * (y1 - y0)

    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    for tick, label in _ticks(xlo, xhi, logx):
        body.append(f'<line x1="{px(tick):.2f}" y1="{y0}" x2="{px(tick):.2f}" '
                    f'y2="{y1}" stroke="#dddddd" stroke-width="1"/>')
        body.append(f'<text x="{px(tick):.2f}" y="{y1 + 18}" font-size="11" '
                    f'text-anchor="middle">{label}</text>')
    for tick, label in _ticks(ylo, yhi, True):
        body.append(f'<line x1="{x0}" y1="{py(tick):.2f}" x2="{x1}" '
                    f'y2="{py(tick):.2f}" stroke="#dddddd" stroke-width="1"/>')
        body.append(f'<text x="{x0 - 6}" y="{py(tick) + 4:.2f}" font-size="11" '
                    f'text-anchor="end">{label}</text>')
    body.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" '
                f'height="{y1 - y0}" fill="none" stroke="black"/>')
    legend_y = MARGIN_T + 14
    for color, (label, pts) in zip(_COLORS, points.items()):
        if pts:
            coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in pts)
            body.append(f'<polyline points="{coords}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>')
            body.extend(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" '
                        f'fill="{color}"/>' for a, b in pts)
        body.append(f'<text x="{x1 - 6}" y="{legend_y}" font-size="12" '
                    f'text-anchor="end" fill="{color}">{label}</text>')
        legend_y += 16
    body.append(f'<text x="{(x0 + x1) / 2}" y="{MARGIN_T - 14}" '
                f'font-size="14" text-anchor="middle">{title}</text>')
    body.append(f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 14}" '
                f'font-size="12" text-anchor="middle">{xlabel}</text>')
    body.append(f'<text x="18" y="{(y0 + y1) / 2}" font-size="12" '
                f'text-anchor="middle" '
                f'transform="rotate(-90 18 {(y0 + y1) / 2})">{ylabel}</text>')
    body.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(body))
