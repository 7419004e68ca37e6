"""Self-contained SVG charts for training histories and parameter sweeps.

No plotting dependency: line paths, ticks and legends are emitted directly.
Output is deterministic for a fixed input.
"""
from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .bundle import SweepRow
from .training import EpochRecord

PANEL_W = 340
PANEL_H = 280
PAD_LEFT = 58
PAD_RIGHT = 16
PAD_TOP = 34
PAD_BOTTOM = 44

COLORS = ("#1f6fb2", "#d95f02", "#2a9d5c")


def _linear_ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _span(lo: float, hi: float) -> tuple[float, float]:
    """The range lo..hi, widened to lo..lo+1 when it is empty."""
    return (lo, lo + 1.0) if hi <= lo else (lo, hi)


def _panel(index: int, title: str, xlabel: str, ylabel: str, xlim, xticks, yvalues,
           dots=(), lines=(), legend=(), xlog: bool = False) -> list[str]:
    """The SVG elements of the index-th panel of a row, in drawing order: frame,
    title, axis labels, x ticks, y ticks, dots, lines, legend.

    The y range is that of the finite ``yvalues`` padded by 5% on each side;
    ``dots`` and ``lines`` are ``(xs, ys, color)`` series, drawn without their
    non-finite ys; ``legend`` is ``(label, color)`` pairs. Titles and labels
    are XML-escaped.
    """
    x0 = index * PANEL_W
    xlo, xhi = _span(*(map(math.log10, xlim) if xlog else xlim))
    finite = [v for v in yvalues if math.isfinite(v)] or [0.0, 1.0]
    ylo, yhi = _span(min(finite), max(finite))
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x: float) -> float:
        x = math.log10(x) if xlog else x
        return x0 + PAD_LEFT + (x - xlo) / (xhi - xlo) * (PANEL_W - PAD_LEFT - PAD_RIGHT)

    def py(y: float) -> float:
        return PAD_TOP + (1.0 - (y - ylo) / (yhi - ylo)) * (PANEL_H - PAD_TOP - PAD_BOTTOM)

    left, right, top, bottom = x0 + PAD_LEFT, x0 + PANEL_W - PAD_RIGHT, PAD_TOP, PANEL_H - PAD_BOTTOM
    mid_x, mid_y = (left + right) / 2, (top + bottom) / 2
    parts = [
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
        f'fill="none" stroke="#555"/>',
        f'<text x="{mid_x:.1f}" y="{top - 12}" text-anchor="middle" font-size="13" '
        f'font-weight="bold">{escape(title)}</text>',
        f'<text x="{mid_x:.1f}" y="{PANEL_H - 8}" text-anchor="middle" font-size="11">{escape(xlabel)}</text>',
        f'<text x="{x0 + 14}" y="{mid_y:.1f}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 {x0 + 14} {mid_y:.1f})">{escape(ylabel)}</text>',
    ]
    for tx in xticks:
        x = px(tx)
        parts += [f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 4}" stroke="#555"/>',
                  f'<text x="{x:.1f}" y="{bottom + 16}" text-anchor="middle" '
                  f'font-size="10">{tx:.6g}</text>']
    for ty in _linear_ticks(ylo, yhi):
        y = py(ty)
        parts += [f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#555"/>',
                  f'<text x="{left - 7}" y="{y + 3:.1f}" text-anchor="end" font-size="10">{ty:.6g}</text>']
    for xs, ys, color in dots:
        parts += [f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}" fill-opacity="0.55"/>'
                  for x, y in zip(xs, ys) if math.isfinite(y)]
    for xs, ys, color in lines:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y))
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    x = x0 + PAD_LEFT + 8
    for i, (label, color) in enumerate(legend):
        y = PAD_TOP + 14 + 14 * i
        parts += [f'<line x1="{x}" y1="{y - 4}" x2="{x + 18}" y2="{y - 4}" stroke="{color}" '
                  f'stroke-width="2"/>',
                  f'<text x="{x + 23}" y="{y}" font-size="10">{escape(label)}</text>']
    return parts


def _svg(panels: list[list[str]]) -> str:
    """One row of panels on a white canvas sized to hold them."""
    width = len(panels) * PANEL_W
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{PANEL_H}" '
            f'viewBox="0 0 {width} {PANEL_H}"><rect width="{width}" height="{PANEL_H}" fill="white"/>')
    return head + "".join(part for panel in panels for part in panel) + "</svg>\n"


def render_training_chart(history: list[EpochRecord]) -> str:
    """Three panels against the epoch axis: loss, allocation F1, embedding distance."""
    if not history:
        raise ValueError("history is empty")
    epochs = [r.epoch for r in history]
    xlim = (epochs[0], epochs[-1] if epochs[-1] > epochs[0] else epochs[0] + 1)
    xticks = [round(t) for t in _linear_ticks(*xlim)]

    def column(name: str) -> list[float]:
        return [getattr(r, name) for r in history]

    specs = [  # title, y label, (legend label, values, color) per series
        ("loss", "cross-entropy", [("", column("loss"), COLORS[0])]),
        ("allocation F1", "F1", [("micro", column("f1_micro"), COLORS[0]),
                                 ("macro", column("f1_macro"), COLORS[1])]),
        ("embedding distance", "mean distance", [("", column("mean_embed_dist"), COLORS[2])]),
    ]
    return _svg([_panel(i, title, "epoch", ylabel, xlim, xticks, [v for _, ys, _ in series for v in ys],
                        lines=[(epochs, ys, color) for _, ys, color in series],
                        legend=[(label, color) for label, _, color in series if label])
                 for i, (title, ylabel, series) in enumerate(specs)])


def render_sweep_chart(rows: list[SweepRow]) -> str:
    """Final F1 against the swept parameter: per-repeat scatter plus the mean
    line, one panel per grid parameter. The epsilon axis is log-scaled."""
    ok = [r for r in rows if not r.error]
    if not ok:
        raise ValueError("sweep has no successful rows")
    panels = []
    for idx, param in enumerate(sorted({r.grid_param for r in ok})):
        sub = [r for r in ok if r.grid_param == param]
        values = sorted({r.grid_value for r in sub})
        xlog = param == "epsilon" and min(values) > 0
        xlim = (min(values), max(values))
        ys = [r.final_f1_micro for r in sub]
        cells = [[y for r, y in zip(sub, ys) if r.grid_value == v and math.isfinite(y)] for v in values]
        means = [sum(c) / len(c) if c else math.nan for c in cells]
        panels.append(_panel(idx, f"F1 vs {param}", param, "final F1 (micro)", xlim,
                             values if xlog or len(values) <= 7 else _linear_ticks(*xlim), ys,
                             dots=[([r.grid_value for r in sub], ys, COLORS[0])],
                             lines=[(values, means, COLORS[1])],
                             legend=[("repeat", COLORS[0]), ("mean", COLORS[1])], xlog=xlog))
    return _svg(panels)
