"""Deterministic CSV and self-contained SVG report writers.

CSV rows follow the fixed header experiment,k,value,reference,abs_err,pass
with %.12g float formatting, so identical configs produce byte-identical
files; a label holding a comma or a quote is quoted as RFC 4180 says.
Plots are written as minimal standalone SVG (no plotting dependency).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "experiment,k,value,reference,abs_err,pass"


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


@dataclass
class ReportRow:
    experiment: str
    k: int
    value: float
    reference: float
    abs_err: float
    ok: bool

    def line(self) -> str:
        label = self.experiment
        if any(ch in label for ch in ',"\r\n'):
            # RFC 4180: quote the field and double its quotes
            label = '"' + label.replace('"', '""') + '"'
        return ",".join([
            label, str(self.k), fmt(self.value),
            fmt(self.reference), fmt(self.abs_err), fmt(self.ok),
        ])


def write_csv(path: str, rows: list[ReportRow]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.line() + "\n")


# ---------------------------------------------------------------------------
# minimal SVG line plots
# ---------------------------------------------------------------------------

_COLORS = ["#1f6feb", "#d1242f", "#1a7f37", "#8250df", "#9a6700", "#0969da"]


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    return [float(t) for t in np.linspace(lo, hi, 5)]


def svg_plot(path: str, series, title: str, xlabel: str, ylabel: str,
             logy: bool = False) -> None:
    """Write a 640×420 line plot; series is [(label, xs, ys), ...]."""
    width, height = 640, 420
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logy:
        ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x0, x1 = float(np.min(xs_all)), float(np.max(xs_all))
    y0, y1 = float(np.min(ys_all)), float(np.max(ys_all))
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y):
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{mt + ph}" x2="{px(tx):.1f}" y2="{mt + ph + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px(tx):.1f}" y="{mt + ph + 16}" text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(y0, y1):
        label = f"1e{ty:.2g}" if logy else f"{ty:.4g}"
        parts.append(
            f'<line x1="{ml - 4}" y1="{py(ty):.1f}" x2="{ml}" y2="{py(ty):.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(ty) + 3:.1f}" text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if logy:
            ys = np.log10(np.maximum(ys, 1e-300))
        # px and py on whole arrays: the same IEEE operations in the same
        # order as on scalars, so the same digits; one format call per line
        xy = np.empty(2 * xs.size)
        xy[0::2], xy[1::2] = px(xs), py(ys)
        pts = ("%.2f,%.2f " * xs.size % tuple(xy.tolist()))[:-1]
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ml + pw - 6}" y="{mt + 14 + 14 * i}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
