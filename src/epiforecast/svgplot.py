"""Minimal deterministic SVG renderers: line charts and tree diagrams.

No plotting library; output bytes depend only on the inputs so repeated
runs are identical.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


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
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo2, hi2 = lo - pad if lo < 0 else 0.0, hi + pad

    def sx(i: int) -> float:
        return margin_l + (plot_w * i / max(n - 1, 1))

    def sy(v: float) -> float:
        return margin_t + plot_h * (1.0 - (v - lo2) / (hi2 - lo2))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    # axes
    x0, y0 = margin_l, margin_t + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{margin_t}" x2="{x0}" y2="{y0}" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="#333" stroke-width="1"/>'
    )
    for tick in _nice_ticks(lo2, hi2):
        y = sy(tick)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick:g}</text>'
        )
    for i in range(0, n, max(1, n // 6)):
        parts.append(
            f'<text x="{_fmt(sx(i))}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="9">{escape(x_labels[i])}</text>'
        )
    x = sx(vline_at)
    parts.append(
        f'<line x1="{_fmt(x)}" y1="{margin_t}" x2="{_fmt(x)}" y2="{y0}" '
        f'stroke="#888" stroke-width="1" stroke-dasharray="4,3"/>'
    )
    # legend + polylines
    for idx, (label, values) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{_fmt(sx(i))},{_fmt(sy(v))}" for i, v in enumerate(values) if math.isfinite(v)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        lx = margin_l + 10 + idx * 150
        ly = margin_t - 8
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 22}" y="{ly + 4}" font-family="sans-serif" font-size="11">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def tree_diagram(tree) -> str:
    """Render a fitted regression tree as nested boxes with split labels."""
    names = tree.table.names
    width = 900

    def depth_of(node):
        if node.is_leaf:
            return 1
        return 1 + max(depth_of(node.left), depth_of(node.right))

    depth = depth_of(tree.root)
    level_h = 86
    height = depth * level_h + 40
    box_w, box_h = 118, 40

    positions = {}
    next_x = [0]

    def layout(node, level):
        if node.is_leaf:
            x = next_x[0]
            next_x[0] += 1
            positions[id(node)] = (x, level)
            return x
        lx = layout(node.left, level + 1)
        rx = layout(node.right, level + 1)
        x = (lx + rx) / 2.0
        positions[id(node)] = (x, level)
        return x

    layout(tree.root, 0)
    n_leaves = next_x[0]
    span = max(n_leaves - 1, 1)

    def px(slot: float) -> float:
        return 70 + (width - 140) * slot / span

    def py(level: int) -> float:
        return 30 + level * level_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    def draw(node):
        slot, level = positions[id(node)]
        cx, cy = px(slot), py(level)
        if not node.is_leaf:
            for child, side in ((node.left, "yes"), (node.right, "no")):
                cslot, clevel = positions[id(child)]
                ccx, ccy = px(cslot), py(clevel)
                parts.append(
                    f'<line x1="{_fmt(cx)}" y1="{_fmt(cy + box_h / 2)}" '
                    f'x2="{_fmt(ccx)}" y2="{_fmt(ccy - box_h / 2)}" stroke="#666"/>'
                )
                mx, my = (cx + ccx) / 2, (cy + box_h / 2 + ccy - box_h / 2) / 2
                parts.append(
                    f'<text x="{_fmt(mx)}" y="{_fmt(my)}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="9" fill="#666">{side}</text>'
                )
            draw(node.left)
            draw(node.right)
        fill = "#eef5ee" if node.is_leaf else "#eef2f8"
        parts.append(
            f'<rect x="{_fmt(cx - box_w / 2)}" y="{_fmt(cy - box_h / 2)}" '
            f'width="{box_w}" height="{box_h}" rx="4" fill="{fill}" stroke="#555"/>'
        )
        line1 = f"{node.mean:.3f} (n={node.count})"
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy - 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{line1}</text>'
        )
        if not node.is_leaf:
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy + 13)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="9">{escape(node.rule.describe(names))}</text>'
            )

    draw(tree.root)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
