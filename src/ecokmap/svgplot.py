"""Self-contained SVG 1.1 plots: scatter, line chart, heat map.

Everything is emitted as deterministic text (fixed number formatting, no
timestamps), so plot files are diffable and byte-stable across runs.
Every data point is one element carrying class="d" — scatter and line
charts use one circle per point, heat maps one rect per cell — which is
what ties an SVG to its CSV: data-element count equals CSV row count.
The data elements (and a line chart's polyline points) come from
_kernels.render_rows, CHUNK_POINTS points per call, with "%.2f"
coordinates exactly as _fmt writes them; the axes are written by _fmt.
"""
from __future__ import annotations

import math
from itertools import chain

import numpy as np

from . import _kernels

__all__ = ["scatter_svg", "line_svg", "heatmap_svg", "count_data_elements"]

WIDTH = 640.0
HEIGHT = 480.0
MARGIN_L = 64.0
MARGIN_R = 20.0
MARGIN_T = 34.0
MARGIN_B = 48.0
N_TICKS = 5
PAD_FRACTION = 0.05  # 5% margin around the data range
CHUNK_POINTS = 4096  # plot points rendered per render_rows chunk


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = 0.0, 1.0
    if lo == hi:
        pad = abs(lo) * 0.1 or 0.5  # 0.5 also where a subnormal lo underflows
    else:
        pad = (hi - lo) * PAD_FRACTION
    return lo - pad, hi + pad


def _span(v: np.ndarray) -> tuple[float, float]:
    """Smallest and largest finite value, the first of equals as Python's
    min and max pick (0.0 or -0.0); (0, 1) when there is none."""
    finite = v[np.isfinite(v)]
    if not len(finite):
        return 0.0, 1.0
    return float(finite[finite.argmin()]), float(finite[finite.argmax()])


class _Axes:
    """Data-to-pixel mapping.  px and py take a float or, elementwise, an
    array, so tick marks and data points share one formula."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.x_lo, self.x_hi = _pad_range(*_span(xs))
        self.y_lo, self.y_hi = _pad_range(*_span(ys))

    def px(self, x):
        t = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_L + t * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        t = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_B - t * (HEIGHT - MARGIN_T - MARGIN_B)


def _coords(v) -> np.ndarray:
    return np.asarray(v if isinstance(v, np.ndarray) else list(v), dtype=np.float64)


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="white"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
    ]


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_values(lo: float, hi: float) -> list[float]:
    return [lo + i * (hi - lo) / (N_TICKS - 1) for i in range(N_TICKS)]


def _axes_elems(ax: _Axes, xlabel: str, ylabel: str) -> list[str]:
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    out = [
        f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y0 - y1)}" fill="none" stroke="black" stroke-width="1"/>'
    ]
    for v in _tick_values(ax.x_lo, ax.x_hi):
        px = ax.px(v)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y0 + 5)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v:.4g}</text>'
        )
    for v in _tick_values(ax.y_lo, ax.y_hi):
        py = ax.py(v)
        out.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.4g}</text>'
        )
    out.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(HEIGHT - 8)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{_escape(ylabel)}</text>'
    )
    return out


# One data marker, on a line of its own; _fmt's "%.2f" for its coordinates.
_CIRCLE = '\n<circle class="d" cx="%.2f" cy="%.2f" r="{r}" fill="#1f5fa8"/>'


def _rows(template: str, columns):
    """The data elements, render_rows' rows of template, CHUNK_POINTS per str."""
    return (c.decode("ascii") for c in _kernels.render_rows(template, columns, CHUNK_POINTS))


def _document(title: str, ax: _Axes, xlabel: str, ylabel: str, *data) -> str:
    """The plot: header and axes, the data elements (each an iterable of
    strs) and the closing tag."""
    head = "\n".join(_header(title) + _axes_elems(ax, xlabel, ylabel))
    return "".join([head, *chain.from_iterable(data), "\n</svg>\n"])


def scatter_svg(xs, ys, *, xlabel: str, ylabel: str, title: str, radius: float = 1.2) -> str:
    """Scatter plot; one circle (class "d") per point."""
    xs, ys = _coords(xs), _coords(ys)
    ax = _Axes(xs, ys)
    circles = _rows(_CIRCLE.format(r=_fmt(radius)), [ax.px(xs), ax.py(ys)])
    return _document(title, ax, xlabel, ylabel, circles)


def line_svg(xs, ys, *, xlabel: str, ylabel: str, title: str, radius: float = 1.2) -> str:
    """Line chart: a polyline through the points plus one marker circle
    (class "d") per point."""
    xs, ys = _coords(xs), _coords(ys)
    ax = _Axes(xs, ys)
    points = [ax.px(xs), ax.py(ys)]
    pairs = list(_rows(" %.2f,%.2f", points))  # " x,y" per point; the first space goes
    if pairs:
        pairs[0] = pairs[0][1:]
    polyline = ['\n<polyline points="', *pairs, '" fill="none" stroke="#1f5fa8" stroke-width="1"/>']
    circles = _rows(_CIRCLE.format(r=_fmt(radius)), points)
    return _document(title, ax, xlabel, ylabel, polyline, circles)


def _heat_color(v: float, lo: float, hi: float) -> str:
    """Blue below zero, white at zero, red above; NaN drawn grey."""
    if math.isnan(v):
        return "#b0b0b0"
    if v <= 0.0:
        t = 0.0 if lo >= 0.0 else max(0.0, min(1.0, v / lo))
        g = int(round(255 * (1.0 - 0.65 * t)))
        return f"#{g:02x}{g:02x}ff"
    t = 0.0 if hi <= 0.0 else max(0.0, min(1.0, v / hi))
    g = int(round(255 * (1.0 - 0.75 * t)))
    return f"#ff{g:02x}{g:02x}"


def heatmap_svg(xs, ys, values, *, xlabel: str, ylabel: str, title: str) -> str:
    """Heat map; one rect (class "d") per (x, y, value) triple.

    Cell size is inferred from the distinct sorted coordinates, so a
    regular grid tiles exactly.
    """
    xs = list(xs)
    ys = list(ys)
    values = list(values)
    cx, cy = _coords(xs), _coords(ys)
    ax = _Axes(cx, cy)
    ux = sorted(set(xs))
    uy = sorted(set(ys))
    dx = min((b - a for a, b in zip(ux, ux[1:])), default=1.0)
    dy = min((b - a for a, b in zip(uy, uy[1:])), default=1.0)
    finite = [v for v in values if not math.isnan(v)]
    v_lo = min(finite, default=-1.0)
    v_hi = max(finite, default=1.0)
    w = abs(ax.px(dx) - ax.px(0.0))
    h = abs(ax.py(dy) - ax.py(0.0))
    rect = f'\n<rect class="d" x="%.2f" y="%.2f" width="{_fmt(w)}" height="{_fmt(h)}" fill="%s"/>'
    fills = _kernels.strings([_heat_color(v, v_lo, v_hi) for v in values])
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python floats
        cells = [ax.px(cx) - w / 2, ax.py(cy) - h / 2, fills]
    return _document(title, ax, xlabel, ylabel, _rows(rect, cells))


def count_data_elements(svg_text: str) -> int:
    """Number of class="d" elements; tests pin this to the CSV row count."""
    import xml.etree.ElementTree as ET  # the writers need no XML parser

    root = ET.fromstring(svg_text)
    return sum(1 for el in root.iter() if el.get("class") == "d")
