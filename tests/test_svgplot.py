"""SVG renderer tests: the bytes of a fixed line chart and of the bundled
risk tree's diagram, pinned by their sha256 digests, and charts of values
at the edges of the float range."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from epiforecast import svgplot, tree

NAN = float("nan")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_line_chart_bytes():
    n, h = 30, 5
    actual = [100.0 + 40.0 * ((7 * i) % 11) - 3.5 * i for i in range(n)]
    svg = svgplot.line_chart(
        [
            ("actual", actual + [NAN] * h),
            ("fit & forecast", [v + 0.25 * i for i, v in enumerate(actual)]
             + [150.0 - 60.0 * k for k in range(h)]),
            ("<wbf>", [NAN] * n + [90.0 + 10.0 * k for k in range(h)]),
        ],
        title="synthetic: fit and 5-step forecast",
        x_labels=[f"2020-03-{day:02d}" for day in range(1, n + h + 1)],
        vline_at=n - 1,
    )
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="760" height="420" ')
    assert 'stroke-dasharray="4,3"' in svg and "&lt;wbf&gt;" in svg
    assert _sha256(svg) == "c10bef26fd840c7e6d2b36f4407a9cbcc168d018a1a4e9e5f851f3fa1f068107"


def test_tree_diagram_bytes(cfr_table):
    svg = svgplot.tree_diagram(tree.grow(cfr_table))
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="900" ')
    assert _sha256(svg) == "6368a8112d98f043392b760533d9fbaf24ef95347ef297b5d6af0645035c5a44"


@pytest.mark.parametrize("values", [
    [5e-324, 0.0],  # the padded span underflows to 0
    [1.75e308, 1.0],  # the padded top overflows
    [-1.75e308, 1.0],  # the padded bottom overflows
    [-1e20, -1e20],  # one more unit is lost to rounding
    [1e-11, 5e-12],  # ticks rounded to 10 decimals would all read 0
], ids=["underflow", "overflow-top", "overflow-bottom", "large-negative-constant", "tiny-span"])
def test_line_chart_renders_extreme_values(values):
    svg = svgplot.line_chart([("actual", values)], title="t", x_labels=["a", "b"], vline_at=1)
    root = ET.fromstring(svg)
    numbers = [float(v) for el in root.iter() for k, v in el.attrib.items()
               if k in ("x", "y", "x1", "y1", "x2", "y2")]
    tick_labels = [label.text for label in root.iter("{http://www.w3.org/2000/svg}text")
                   if label.get("text-anchor") == "end"]
    assert len(set(tick_labels)) == len(tick_labels) >= 2
    numbers += [float(label) for label in tick_labels]
    assert len(numbers) > 20 and all(math.isfinite(v) for v in numbers)
    # both points lie inside the plot area, between the top margin and the x axis
    (polyline,) = root.iter("{http://www.w3.org/2000/svg}polyline")
    ys = [float(point.split(",")[1]) for point in polyline.get("points").split()]
    assert len(ys) == 2 and all(34.0 <= y <= 374.0 for y in ys)
