"""The one plot routine, ``_svg.line_plot``: what each series draws."""
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from infbsde._svg import line_plot

NS = "{http://www.w3.org/2000/svg}"


def draw(tmp_path, x, series, **kwargs):
    """The parsed SVG of one plot: root, polylines and legend texts."""
    path = tmp_path / "plot.svg"
    line_plot(path, x, series, "title", "x", "y", **kwargs)
    root = ET.parse(path).getroot()
    assert root.tag == f"{NS}svg"
    return root


def points(polyline):
    return [tuple(map(float, p.split(",")))
            for p in polyline.get("points").split()]


def by_color(root, tag):
    out = {}
    for el in root.iter(f"{NS}{tag}"):
        out.setdefault(el.get("stroke") or el.get("fill"), []).append(el)
    return out


def legend(root):
    """Legend entries, text -> colour: the texts drawn in a colour."""
    return {t.text: t.get("fill") for t in root.iter(f"{NS}text")
            if t.get("fill")}


def test_one_polyline_and_one_dot_per_kept_value(tmp_path):
    series = {"a": [1.0, 0.5, 0.25, 0.125],
              "b": [2.0, np.nan, 0.0, 1.0],
              "c": [-1.0, np.inf, 0.0, np.nan],
              "d": [3.0, 3.0, -np.inf, 3.0]}
    root = draw(tmp_path, [1, 2, 3, 4], series)
    colors = legend(root)
    assert list(colors) == list(series)
    lines, dots = by_color(root, "polyline"), by_color(root, "circle")
    kept = {"a": 4, "b": 2, "c": 0, "d": 3}
    for label, count in kept.items():
        color = colors[label]
        if count:
            assert len(lines[color]) == 1
            assert len(points(lines[color][0])) == count
            assert len(dots[color]) == count
        else:
            # the series keeps its legend entry but draws nothing
            assert color not in lines and color not in dots
    assert sum(len(v) for v in lines.values()) == 3


def test_points_in_ascending_x(tmp_path):
    root = draw(tmp_path, [3.0, 1.0, 2.0], {"s": [0.3, 0.1, 0.2]})
    (line,) = root.iter(f"{NS}polyline")
    xs = [px for px, _ in points(line)]
    assert xs == sorted(xs) and len(set(xs)) == 3
    # a larger value sits higher, so at a smaller pixel row
    ys = [py for _, py in points(line)]
    assert ys == sorted(ys, reverse=True)


@pytest.mark.parametrize("logx", [False, True])
def test_values_sit_at_their_logarithm(tmp_path, logx):
    x = [1.0, 10.0, 100.0, 1000.0]
    root = draw(tmp_path, x, {"s": [1e-3, 1e-2, 1e-1, 1.0]}, logx=logx)
    (line,) = root.iter(f"{NS}polyline")
    pts = points(line)
    # pixels are affine in log10(y), and in x or log10(x); the
    # coordinates are written to two decimals
    for pixels, data in (([py for _, py in pts], np.arange(-3, 1)),
                         ([px for px, _ in pts],
                          np.log10(x) if logx else np.array(x))):
        scale = (pixels[-1] - pixels[0]) / (data[-1] - data[0])
        assert np.allclose(np.diff(pixels), scale * np.diff(data), atol=0.02)
    # the decade ticks are labelled at the points they pass through
    ticks = {t.text: float(t.get("x")) for t in root.iter(f"{NS}text")
             if t.get("text-anchor") == "middle" and t.text.startswith("1e")}
    if logx:
        for k, (px, _) in enumerate(pts):
            assert ticks[f"1e{k}"] == pytest.approx(px, abs=0.01)
    else:
        assert not ticks


def test_no_drawable_value_still_writes_a_frame(tmp_path):
    root = draw(tmp_path, [0, 1], {"s": [np.nan, 0.0]})
    assert not list(root.iter(f"{NS}polyline"))
    assert legend(root) == {"s": "#1f77b4"}
    frame = [r for r in root.iter(f"{NS}rect") if r.get("stroke") == "black"]
    assert len(frame) == 1 and all(math.isfinite(float(frame[0].get(k)))
                                   for k in ("x", "y", "width", "height"))
