"""Minimal SVG line charts, no plotting dependency.

Enough for sweep/fit diagnostics: multiple named series on linear axes,
ticks and axis labels. Output is a plain SVG string; write it to a file and
open in any browser.
"""
from __future__ import annotations

import math

from .errors import InputError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 36, 56


def _nice_ticks(lo: float, hi: float, n: int = 6):
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    t0 = math.ceil(lo / step) * step
    ticks = []
    t = t0
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t = t + step if t + step != t else math.inf  # a step that rounds away ends the ticks
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) < 1e-3 or abs(v) >= 1e5:
        return f"{v:.1e}"
    s = f"{v:.4g}"
    return s


def line_chart(series, *, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render named (x, y) series to an SVG string.

    series: list of (name, xs, ys).
    """
    pts = []
    for name, xs, ys in series:
        if len(xs) != len(ys):
            raise InputError(f"series {name!r}: x and y lengths differ")
        pts.append((name, [(float(x), float(y)) for x, y in zip(xs, ys)]))
    allx = [x for _, kp in pts for x, _ in kp]
    ally = [y for _, kp in pts for _, y in kp]
    if not allx:
        raise InputError("nothing to plot")
    x_lo, x_hi = min(allx), max(allx)
    y_lo, y_hi = min(ally), max(ally)
    # a zero-width axis gets width 1, or 1e-9 of |lo| where adding 1 would round away
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, abs(x_lo) * 1e-9)
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, abs(y_lo) * 1e-9)
    xticks = _nice_ticks(x_lo, x_hi)
    yticks = _nice_ticks(y_lo, y_hi)

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def X(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def Y(y):
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        out.append(f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>')

    for t in xticks:
        if not x_lo <= t <= x_hi:
            continue
        px = X(t)
        out.append(f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" y2="{_MT + ph + 5}" stroke="#444"/>')
        out.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_MT + ph}" stroke="#ddd"/>')
        out.append(f'<text x="{px:.1f}" y="{_MT + ph + 20}" text-anchor="middle">{_fmt(t)}</text>')
    for t in yticks:
        if not y_lo - 1e-12 <= t <= y_hi + 1e-12:
            continue
        py = Y(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#444"/>')
        out.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_ML + pw}" y2="{py:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{_ML - 9}" y="{py + 4:.1f}" text-anchor="end">{_fmt(t)}</text>')
    if x_label:
        out.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" text-anchor="middle">{x_label}</text>')
    if y_label:
        out.append(f'<text x="18" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
                   f'transform="rotate(-90 18 {_MT + ph / 2:.0f})">{y_label}</text>')

    for i, (name, kp) in enumerate(pts):
        color = PALETTE[i % len(PALETTE)]
        if kp:
            path = " ".join(f"{X(x):.1f},{Y(y):.1f}" for x, y in kp)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.8"/>')
            for x, y in kp:
                out.append(f'<circle cx="{X(x):.1f}" cy="{Y(y):.1f}" r="2.6" fill="{color}"/>')
        ly = _MT + 14 + 16 * i
        out.append(f'<line x1="{_ML + pw - 130}" y1="{ly - 4}" x2="{_ML + pw - 106}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.8"/>')
        out.append(f'<text x="{_ML + pw - 100}" y="{ly}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
