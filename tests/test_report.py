import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab.report import svg_plot


def numpy_scalar_points(series, logy):
    """Reference: each series' polyline points, with the plot's scale and
    the coordinates computed on numpy float64 scalars, one pair at a time."""
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

    out = []
    for _, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if logy:
            ys = np.log10(np.maximum(ys, 1e-300))
        out.append(" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)))
    return out


@pytest.mark.parametrize("logy", [False, True])
def test_polylines_match_numpy_scalar_arithmetic(tmp_path, logy):
    rng = np.random.default_rng(7)
    ts = np.linspace(-8, 8, 601)
    series = [
        ("smooth", ts, np.log1p(np.exp(ts)) * (1.0 + 1e-9 * rng.normal(size=ts.size))),
        ("noisy", ts, np.abs(rng.normal(scale=3.0, size=ts.size)) + 1e-12),
        ("ints", [25, 50, 100, 200, 400], [0.04, 0.02, 0.01, 0.005, 1e-18]),
    ]
    path = tmp_path / "plot.svg"
    svg_plot(str(path), series, title="t", xlabel="x", ylabel="y", logy=logy)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert got == numpy_scalar_points(series, logy)


finite = st.floats(-1e6, 1e6) | st.integers(-3, 3).map(float)
random_series = st.lists(
    st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just("s"), st.lists(finite, min_size=n, max_size=n),
        st.lists(finite | st.floats(0.0, 1e-290), min_size=n, max_size=n))),
    min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(series=random_series, logy=st.booleans())
def test_polylines_match_per_point_format_on_random_series(tmp_path_factory, series, logy):
    path = tmp_path_factory.mktemp("svg") / "plot.svg"
    svg_plot(str(path), series, title="t", xlabel="x", ylabel="y", logy=logy)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert got == numpy_scalar_points(series, logy)
