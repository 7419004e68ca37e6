"""Self-contained SVG charts for training histories and parameter sweeps.

No plotting dependency: line paths, ticks and legends are emitted directly.
Output is deterministic for a fixed input.
"""
from __future__ import annotations

import math

from .bundle import SweepRow
from .training import EpochRecord

PANEL_W = 340
PANEL_H = 280
PAD_LEFT = 58
PAD_RIGHT = 16
PAD_TOP = 34
PAD_BOTTOM = 44

COLORS = ("#1f6fb2", "#d95f02", "#2a9d5c")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _linear_ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / 4 for i in range(5)]


class _Panel:
    """One cartesian panel at a fixed offset inside the SVG canvas."""

    def __init__(self, x0: int, title: str, xlabel: str, ylabel: str,
                 xlim, ylim, xlog: bool = False):
        self.x0 = x0
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xlog = xlog
        lo, hi = xlim
        if xlog:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            hi = lo + 1.0
        self.xlim = (lo, hi)
        lo, hi = ylim
        if hi <= lo:
            hi = lo + 1.0
        pad = 0.05 * (hi - lo)
        self.ylim = (lo - pad, hi + pad)
        self.parts: list[str] = []

    def px(self, x: float) -> float:
        if self.xlog:
            x = math.log10(x)
        lo, hi = self.xlim
        return self.x0 + PAD_LEFT + (x - lo) / (hi - lo) * (PANEL_W - PAD_LEFT - PAD_RIGHT)

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return PAD_TOP + (1.0 - (y - lo) / (hi - lo)) * (PANEL_H - PAD_TOP - PAD_BOTTOM)

    def frame(self, xticks: list[float], yticks: list[float]) -> None:
        left, right = self.x0 + PAD_LEFT, self.x0 + PANEL_W - PAD_RIGHT
        top, bottom = PAD_TOP, PANEL_H - PAD_BOTTOM
        p = self.parts
        p.append(f'<rect x="{left}" y="{top}" width="{right - left}" '
                 f'height="{bottom - top}" fill="none" stroke="#555"/>')
        p.append(f'<text x="{(left + right) / 2:.1f}" y="{top - 12}" text-anchor="middle" '
                 f'font-size="13" font-weight="bold">{self.title}</text>')
        p.append(f'<text x="{(left + right) / 2:.1f}" y="{PANEL_H - 8}" '
                 f'text-anchor="middle" font-size="11">{self.xlabel}</text>')
        p.append(f'<text x="{self.x0 + 14}" y="{(top + bottom) / 2:.1f}" font-size="11" '
                 f'text-anchor="middle" '
                 f'transform="rotate(-90 {self.x0 + 14} {(top + bottom) / 2:.1f})">'
                 f'{self.ylabel}</text>')
        for tx in xticks:
            x = self.px(tx)
            p.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 4}" stroke="#555"/>')
            p.append(f'<text x="{x:.1f}" y="{bottom + 16}" text-anchor="middle" '
                     f'font-size="10">{_fmt(tx)}</text>')
        for ty in yticks:
            y = self.py(ty)
            p.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#555"/>')
            p.append(f'<text x="{left - 7}" y="{y + 3:.1f}" text-anchor="end" '
                     f'font-size="10">{_fmt(ty)}</text>')

    def polyline(self, xs, ys, color: str) -> None:
        pts = " ".join(
            f"{self.px(x):.2f},{self.py(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(y)
        )
        if pts:
            self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    def scatter(self, xs, ys, color: str) -> None:
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                self.parts.append(
                    f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" '
                    f'r="2.5" fill="{color}" fill-opacity="0.55"/>'
                )

    def legend(self, labels_colors: list[tuple[str, str]]) -> None:
        x = self.x0 + PAD_LEFT + 8
        y = PAD_TOP + 14
        for label, color in labels_colors:
            self.parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 18}" y2="{y - 4}" '
                              f'stroke="{color}" stroke-width="2"/>')
            self.parts.append(f'<text x="{x + 23}" y="{y}" font-size="10">{label}</text>')
            y += 14


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<rect width="{width}" height="{height}" fill="white"/>')
    return head + "".join(body) + "</svg>\n"


def _bounds(values) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    return min(finite), max(finite)


def render_training_chart(history: list[EpochRecord]) -> str:
    """Three panels against the epoch axis: loss, allocation F1, embedding distance."""
    if not history:
        raise ValueError("history is empty")
    epochs = [r.epoch for r in history]
    xlim = (epochs[0], epochs[-1] if epochs[-1] > epochs[0] else epochs[0] + 1)
    xticks = [round(t) for t in _linear_ticks(xlim[0], xlim[1])]

    body: list[str] = []
    specs = [
        ("loss", "cross-entropy", [( [r.loss for r in history], COLORS[0], None)]),
        ("allocation F1", "F1", [
            ([r.f1_micro for r in history], COLORS[0], "micro"),
            ([r.f1_macro for r in history], COLORS[1], "macro"),
        ]),
        ("embedding distance", "mean distance", [([r.mean_embed_dist for r in history], COLORS[2], None)]),
    ]
    for idx, (title, ylabel, series) in enumerate(specs):
        all_vals = [v for vals, _, _ in series for v in vals]
        ylim = _bounds(all_vals)
        panel = _Panel(idx * PANEL_W, title, "epoch", ylabel, xlim, ylim)
        panel.frame(xticks, _linear_ticks(*panel.ylim))
        legend = []
        for vals, color, label in series:
            panel.polyline(epochs, vals, color)
            if label:
                legend.append((label, color))
        if legend:
            panel.legend(legend)
        body.extend(panel.parts)
    return _svg(3 * PANEL_W, PANEL_H, body)


def render_sweep_chart(rows: list[SweepRow]) -> str:
    """Final F1 against the swept parameter: per-repeat scatter plus the mean
    line, one panel per grid parameter. The epsilon axis is log-scaled."""
    ok = [r for r in rows if not r.error]
    if not ok:
        raise ValueError("sweep has no successful rows")
    params = sorted({r.grid_param for r in ok})
    body: list[str] = []
    for idx, param in enumerate(params):
        sub = [r for r in ok if r.grid_param == param]
        values = sorted({r.grid_value for r in sub})
        xlog = param == "epsilon" and min(values) > 0
        xlim = (min(values), max(values))
        xticks = values if xlog or len(values) <= 7 else _linear_ticks(*xlim)
        ys = [r.final_f1_micro for r in sub]
        ylim = _bounds(ys)
        panel = _Panel(idx * PANEL_W, f"F1 vs {param}", param, "final F1 (micro)",
                       xlim, ylim, xlog=xlog)
        panel.frame(xticks, _linear_ticks(*panel.ylim))
        panel.scatter([r.grid_value for r in sub], ys, COLORS[0])
        means = []
        for v in values:
            pts = [r.final_f1_micro for r in sub if r.grid_value == v and math.isfinite(r.final_f1_micro)]
            means.append(sum(pts) / len(pts) if pts else math.nan)
        panel.polyline(values, means, COLORS[1])
        panel.legend([("repeat", COLORS[0]), ("mean", COLORS[1])])
        body.extend(panel.parts)
    return _svg(len(params) * PANEL_W, PANEL_H, body)
