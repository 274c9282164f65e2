import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import quadrature
from envlab.quadrature import (
    GL_NODES,
    LOG_TINY,
    TINY,
    exp_normal,
    gauss_cells,
    insert_interior,
    log_integral_exp,
    logsumexp,
    logsumexp_rows,
    refine_breakpoints,
    union,
)

# exp(x) rounds to exactly 0.0 below this; the smallest subnormal is e^-744.44
EXP_ZERO = -746.0


def filter_then_union(bp, extra):
    """Reference: the points of extra strictly inside bp's ends, then np.union1d."""
    bp = np.asarray(bp, dtype=float)
    if extra is None:
        return bp
    inner = np.asarray(extra, dtype=float)
    return np.union1d(bp, inner[(inner > bp[0]) & (inner < bp[-1])])


def loop_refine(breakpoints, k, extra=None):
    """Reference: one `np.linspace` per cell, in a Python loop."""
    bp = filter_then_union(breakpoints, extra)
    max_width = min(0.5, 4.0 / np.sqrt(1.0 + float(k)))
    out = [bp[0]]
    for a, b in zip(bp[:-1], bp[1:]):
        nsub = max(1, int(np.ceil((b - a) / max_width)))
        out.extend(np.linspace(a, b, nsub + 1)[1:])
    return np.asarray(out)


finite = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)
breakpoints = st.lists(finite, min_size=1, max_size=40, unique=True).map(sorted)


class TestGaussTable:
    def test_every_rule_is_leggauss_bit_for_bit(self):
        # one rule: the 32-point one, and no node count to choose another
        assert GL_NODES == 32
        assert list(inspect.signature(gauss_cells).parameters) == ["breakpoints"]
        x, w = quadrature._GL_RULE
        want_x, want_w = np.polynomial.legendre.leggauss(GL_NODES)
        assert x.tobytes() == want_x.tobytes()
        assert w.tobytes() == want_w.tobytes()

    def test_cells_are_those_of_leggauss(self):
        bp = np.asarray([-2.5, -1.0, 0.125, 3.0])
        x, w = np.polynomial.legendre.leggauss(GL_NODES)
        a, h = bp[:-1, None], np.diff(bp)[:, None]
        ts, ws = gauss_cells(bp)
        assert ts.tobytes() == (a + 0.5 * h * (x + 1.0)).ravel().tobytes()
        assert ws.tobytes() == (0.5 * h * w).ravel().tobytes()


class TestRefineBreakpoints:
    @settings(max_examples=60, deadline=None)
    @given(bp=breakpoints, k=st.integers(0, 10 ** 5),
           extra=st.none() | st.lists(st.floats(-80.0, 80.0), max_size=12))
    def test_matches_linspace_loop(self, bp, k, extra):
        want = loop_refine(bp, k, extra)
        got = refine_breakpoints(insert_interior(bp, extra), k)
        assert np.array_equal(got, want)

    def test_default_grid_at_large_k(self):
        bp = np.linspace(-40.0, 40.0, 1281)
        for k in (1, 200, 5000, 10 ** 4):
            assert np.array_equal(refine_breakpoints(bp, k), loop_refine(bp, k))

    def test_keeps_original_breakpoints(self):
        bp = np.asarray([-3.0, -0.25, 0.1, 2.0])
        out = refine_breakpoints(bp, 400)
        assert np.all(np.isin(bp, out))
        assert np.all(np.diff(out) > 0)
        assert np.max(np.diff(out)) <= 4.0 / math.sqrt(401.0) * (1 + 1e-12)


# repeats and both signed zeros, as t-grids hold them
grid_values = st.sampled_from([0.0, -0.0, -1.5, 2.0]) | st.floats(-80.0, 80.0)
grid_lists = st.lists(grid_values, max_size=30)


def first_zero_kept(want, *arrays):
    """np.union1d's result with its 0.0 given the sign of the first zero of
    the inputs: where both signs occur, np.union1d keeps whichever its
    unstable sort leaves first."""
    flat = np.concatenate(arrays, axis=None).astype(float)
    zeros = flat[flat == 0]
    signs = np.signbit(zeros)
    if signs.all() or not signs.any():
        return want
    want = want.copy()
    want[want == 0] = zeros[0]
    return want


def same_bits(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGridMerges:
    @settings(max_examples=200, deadline=None)
    @given(a=grid_lists, b=grid_lists, c=grid_lists)
    def test_union_matches_union1d(self, a, b, c):
        a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
        assert same_bits(union(a, b), first_zero_kept(np.union1d(a, b), a, b))
        three = np.union1d(np.union1d(a, b), c)
        assert same_bits(union(a, b, c), first_zero_kept(three, a, b, c))

    @settings(max_examples=200, deadline=None)
    @given(bp=st.lists(grid_values, min_size=1, max_size=20, unique=True).map(sorted),
           extra=st.none() | st.just([]) | grid_lists
           | st.lists(st.floats(81.0, 1e3) | st.floats(-1e3, -81.0), max_size=8))
    def test_insert_interior_matches_filter_then_union(self, bp, extra):
        want = filter_then_union(bp, extra)
        if extra is not None:
            want = first_zero_kept(want, bp, [t for t in extra if bp[0] < t < bp[-1]])
        assert same_bits(insert_interior(bp, extra), want)

    def test_first_of_equal_values_is_kept(self):
        got = union(np.asarray([1.0, -0.0]), np.asarray([0.0, -0.0, 1.0]))
        assert same_bits(got, np.asarray([-0.0, 1.0]))
        assert same_bits(union([0.0], [-0.0]), np.asarray([0.0]))
        assert same_bits(union(np.empty(0), []), np.empty(0))


class TestLogSumExp:
    def test_inplace_matches_copying_form(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(scale=300.0, size=1001)
        mx = np.max(vals)
        want = float(mx + np.log(np.sum(np.exp(vals - mx))))
        assert logsumexp(vals) == want
        buf = vals.copy()[None, :]
        assert logsumexp_rows(buf)[0] == want

    def test_empty_and_all_minus_inf(self):
        assert logsumexp(np.empty(0)) == -np.inf
        assert logsumexp(np.full(4, -np.inf)) == -np.inf


def exp_every_entry_logsumexp_rows(vals):
    """Reference: per row the max shift, np.exp on every entry (its
    subnormals and 0.0 included), the sum and the log; −∞ where the row
    max is not finite."""
    mx = np.max(vals, axis=1)
    ok = np.isfinite(mx)
    with np.errstate(under="ignore", divide="ignore"):
        terms = np.exp(vals - np.where(ok, mx, 0.0)[:, None])
        return np.where(ok, mx + np.log(np.sum(terms, axis=1)), -np.inf)


# offsets below a row's max: in exp's normal range, in the band
# (EXP_ZERO, LOG_TINY] where exp gives a subnormal, below exp's
# underflow, the band's edges, and −∞
row_offsets = st.one_of(
    st.floats(-700.0, 0.0),
    st.floats(EXP_ZERO, LOG_TINY, exclude_min=True),
    st.floats(-2000.0, EXP_ZERO, exclude_max=True),
    st.sampled_from([LOG_TINY, float(np.nextafter(LOG_TINY, 0.0)), EXP_ZERO,
                     -745.1, -744.4]),
    st.just(-np.inf),
)


@st.composite
def row_blocks(draw):
    """Rows whose entries x lie at `row_offsets` below the row's max, some
    clipped to the largest x with x − max ≤ LOG_TINY; some rows are all
    −∞."""
    n = draw(st.integers(1, 40))
    vals = np.empty((draw(st.integers(1, 6)), n))
    for row in vals:
        if draw(st.integers(0, 4)) == 0:
            row[:] = -np.inf
            continue
        row[:] = draw(st.lists(row_offsets, min_size=n, max_size=n))
        clip = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        top = draw(st.integers(0, n - 1))
        row[top], clip[top] = 0.0, False
        shift = draw(st.floats(-400.0, 400.0))
        row += shift
        # the largest x with x − shift ≤ LOG_TINY in floats
        edge = shift + LOG_TINY
        while edge - shift > LOG_TINY:
            edge = float(np.nextafter(edge, -np.inf))
        row[clip] = np.minimum(row[clip], edge)
    return vals


class TestLogSumExpRows:
    @settings(max_examples=200, deadline=None)
    @given(block=row_blocks())
    def test_matches_exp_on_every_entry(self, block):
        want = exp_every_entry_logsumexp_rows(block)
        with np.errstate(all="raise"):
            assert np.array_equal(logsumexp_rows(block.copy()), want)

    def test_no_term_at_or_below_log_tiny_reaches_exp(self, monkeypatch):
        rng = np.random.default_rng(6)
        vals = rng.uniform(-2000.0, 0.0, (50, 200))
        vals[:, 0] = 0.0
        vals[:, 1:20] = rng.uniform(EXP_ZERO, LOG_TINY, (50, 19))
        want = exp_every_entry_logsumexp_rows(vals)
        real, args = np.exp, []

        def spy(x, *rest, where=True, **kw):
            args.append(np.asarray(x)[np.broadcast_to(where, np.shape(x))])
            return real(x, *rest, where=where, **kw)

        monkeypatch.setattr(np, "exp", spy)
        got = logsumexp_rows(vals.copy())
        monkeypatch.undo()
        assert np.array_equal(got, want)
        seen = np.concatenate(args)
        assert seen.size == np.count_nonzero(vals > LOG_TINY)
        assert np.all(seen > LOG_TINY)

    def test_exp_normal_writes_zero_at_and_below_log_tiny(self):
        x = np.asarray([-np.inf, -1000.0, EXP_ZERO, -720.0, LOG_TINY,
                        float(np.nextafter(LOG_TINY, 0.0)), -1.0, 0.0, np.nan])
        with np.errstate(all="raise"):
            got = exp_normal(x)
        assert np.array_equal(got[:5], np.zeros(5)) and got[8] == 0.0
        assert np.all(got[5:8] >= TINY)
        assert np.array_equal(got[5:8], np.exp(x[5:8]))
        buf = x.copy()
        assert exp_normal(buf, out=buf) is buf and np.array_equal(buf, got)


class TestLogIntegralExp:
    def test_gaussian_with_tails_and_atom(self):
        # ∫_{-3}^{3} e^{-t²} dt + Gaussian tails in closed form are replaced by
        # exponential tails of rate ±1 from ±3, plus an atom of weight 0.5 at 0
        from scipy.integrate import quad

        inner, _ = quad(lambda t: np.exp(-t * t), -3.0, 3.0, epsabs=0, epsrel=1e-13)
        edge = -9.0
        want = math.log(inner + 2.0 * math.exp(edge) + 0.5)
        got = log_integral_exp(lambda t: -np.square(t), np.linspace(-3, 3, 7), k=1,
                               atoms=((0.0, 0.5),), tail_minus=(1.0, edge),
                               tail_plus=(-1.0, edge))
        assert got == pytest.approx(want, rel=1e-13)

    def test_density_weights_the_integrand(self):
        got = log_integral_exp(lambda t: np.zeros_like(t), np.asarray([0.0, 1.0]),
                               density_fn=lambda t: 2.0 * t)
        assert got == pytest.approx(0.0, abs=1e-14)
