"""Minimal deterministic SVG renderers: line charts and tree diagrams.

No plotting library; output bytes depend only on the inputs so repeated
runs are identical.
"""

from __future__ import annotations

import math
import sys

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
_SANS = 'font-family="sans-serif"'
_MIDDLE = f'text-anchor="middle" {_SANS}'
_MAX = sys.float_info.max
_BOX_W, _BOX_H = 118, 40  # a tree diagram's node box


def _fmt(v) -> str:
    """A coordinate: an int as it is, a computed position to two decimals."""
    return str(v) if isinstance(v, int) else f"{v:.2f}"


def _svg(width: int, height: int, parts: list[str]) -> str:
    """The document: a white canvas, then `parts`, one element a line."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *parts,
        "</svg>",
    ]) + "\n"


def _line(start, end, style: str) -> str:
    (x1, y1), (x2, y2) = start, end
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'


def escape(text: str) -> str:
    """`text` as XML character data: `&`, `<` and `>` as entity references,
    `&` first so that the other two are not escaped twice. This is
    `xml.sax.saxutils.escape` without its extra entities, whose import loads
    `urllib.request`, `http.client`, `ssl` and `email`."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(at, style: str, content: str) -> str:
    x, y = at
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" {style}>{escape(content)}</text>'


def _nice_ticks(lo: float, hi: float) -> list[float]:
    # (hi - lo) / 5, taken in halves so that a span wider than the largest float stays finite
    raw = (hi / 2 - lo / 2) / 2.5
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if step >= raw:
            break
    # whole multiples of the step, so that no tick inherits a running sum's error
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def line_chart(
    series: list[tuple[str, list[float]]], title: str, x_labels: list[str], vline_at: int
) -> str:
    """Render labelled series (shared x positions 0..n-1) as an SVG string.

    vline_at draws a dashed separator, used to mark the forecast origin.
    """
    width, height = 760, 420
    margin_l, margin_r, margin_t, margin_b = 62, 16, 34, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n = max(len(values) for _, values in series)
    all_vals = [v for _, values in series for v in values if math.isfinite(v)]
    lo = min(all_vals + [0.0])
    hi = max(all_vals) if all_vals else 1.0
    if hi - lo < sys.float_info.min:
        # no span to divide into ticks: one unit, or up to 0 below -1
        hi = max(lo + 1.0, 0.0)
    pad = 0.05 * (hi - lo)
    # the padding may carry a bound past the largest float
    lo2 = max(lo - pad, -_MAX) if lo < 0 else 0.0
    hi2 = min(hi + pad, _MAX)
    xs = [margin_l + (plot_w * i / max(n - 1, 1)) for i in range(n)]

    def sy(v: float) -> float:
        # halves, as in _nice_ticks
        return margin_t + plot_h * (1.0 - (v / 2 - lo2 / 2) / (hi2 / 2 - lo2 / 2))

    x0, y0 = margin_l, margin_t + plot_h
    parts = [
        _text((width // 2, 20), f'{_MIDDLE} font-size="14"', title),
        _line((x0, margin_t), (x0, y0), 'stroke="#333" stroke-width="1"'),
        _line((x0, y0), (x0 + plot_w, y0), 'stroke="#333" stroke-width="1"'),
    ]
    for tick in _nice_ticks(lo2, hi2):
        y = sy(tick)
        parts.append(_line((x0 - 4, y), (x0, y), 'stroke="#333"'))
        parts.append(_text((x0 - 8, y + 4), f'text-anchor="end" {_SANS} font-size="10"',
                           f"{tick:g}"))
    for i in range(0, n, max(1, n // 6)):
        parts.append(_text((xs[i], y0 + 16), f'{_MIDDLE} font-size="9"', x_labels[i]))
    parts.append(_line((xs[vline_at], margin_t), (xs[vline_at], y0),
                       'stroke="#888" stroke-width="1" stroke-dasharray="4,3"'))
    # legend + polylines
    for idx, (label, values) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{_fmt(xs[i])},{_fmt(sy(v))}" for i, v in enumerate(values) if math.isfinite(v)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        lx, ly = margin_l + 10 + idx * 150, margin_t - 8
        parts.append(_line((lx, ly), (lx + 18, ly), f'stroke="{color}" stroke-width="2"'))
        parts.append(_text((lx + 22, ly + 4), f'{_SANS} font-size="11"', label))
    return _svg(width, height, parts)


def tree_diagram(tree) -> str:
    """Render a fitted regression tree as nested boxes with split labels."""
    width, level_h = 900, 86

    # layout: leaves take slots 0, 1, ... left to right, and a split sits
    # midway between its children, one level above them
    nodes = tree.nodes()  # preorder, so the leaves come left to right
    level, slot = [0] * len(tree.rule), [0] * len(tree.rule)
    leaves = 0
    for i in nodes:
        if tree.is_leaf(i):
            slot[i], leaves = leaves, leaves + 1
        else:
            level[i + 1] = level[tree.right[i]] = level[i] + 1
    span = max(leaves - 1, 1)
    for i in reversed(nodes):  # children before their parent
        if not tree.is_leaf(i):
            slot[i] = (slot[i + 1] + slot[tree.right[i]]) / 2.0
    centre = [(70 + (width - 140) * slot[i] / span, 30.0 + level[i] * level_h)
              for i in range(len(slot))]
    parts = []
    _draw(tree, 0, centre, parts)
    return _svg(width, (max(level) + 1) * level_h + 40, parts)


def _draw(tree, i: int, centre: list, parts: list) -> None:
    """Append the elements of node `i`'s subtree to `parts`: its edges, its
    children's subtrees, then its own box. A module-level function, so that
    drawing leaves no reference cycle as a nested function calling itself does."""
    cx, cy = centre[i]
    leaf = tree.is_leaf(i)
    if not leaf:
        for child, side in ((i + 1, "yes"), (tree.right[i], "no")):
            ccx, ccy = centre[child]
            parts.append(_line((cx, cy + _BOX_H / 2), (ccx, ccy - _BOX_H / 2), 'stroke="#666"'))
            mx, my = (cx + ccx) / 2, (cy + _BOX_H / 2 + ccy - _BOX_H / 2) / 2
            parts.append(_text((mx, my), f'{_MIDDLE} font-size="9" fill="#666"', side))
        _draw(tree, i + 1, centre, parts)
        _draw(tree, tree.right[i], centre, parts)
    fill = "#eef5ee" if leaf else "#eef2f8"
    parts.append(
        f'<rect x="{_fmt(cx - _BOX_W / 2)}" y="{_fmt(cy - _BOX_H / 2)}" '
        f'width="{_BOX_W}" height="{_BOX_H}" rx="4" fill="{fill}" stroke="#555"/>'
    )
    parts.append(_text((cx, cy - 2), f'{_MIDDLE} font-size="11"',
                       f"{tree.mean[i]:.3f} (n={len(tree.rows[i])})"))
    if not leaf:
        parts.append(_text((cx, cy + 13), f'{_MIDDLE} font-size="9"',
                           tree.rule[i].describe(tree.table.names)))
