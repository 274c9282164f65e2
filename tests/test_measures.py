import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envlab import (
    ConvexProfile,
    RadialMeasure,
    WeightedSet,
    annulus_area_measure,
    base_profile,
    circle_atom,
    fs_measure,
    kolmogorov_distance,
    ma_measure,
    measure_integral,
    weighted_envelope,
)
from envlab.basefun import logistic_density
from envlab.envelopes import window_envelope
from envlab.errors import InputError
from envlab.quadrature import union


class TestMAMeasure:
    def test_base_is_logistic(self):
        mu = ma_measure(base_profile(1))
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
        mids = 0.5 * (mu.breakpoints[:-1] + mu.breakpoints[1:])
        widths = np.diff(mu.breakpoints)
        # cell-mass densities track sigma' at second order
        sel = np.abs(mids) < 5
        dens = mu.cell_masses[sel] / widths[sel]
        assert np.max(np.abs(dens - logistic_density(mids[sel]))) < 1e-3

    def test_kink_gives_unit_atom(self):
        env = weighted_envelope(base_profile(1), WeightedSet.circles([0.0]))
        mu = ma_measure(env)
        assert len(mu.atoms) == 1
        t, w = mu.atoms[0]
        assert t == pytest.approx(0.0, abs=1e-12)
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_affine_profile_has_zero_measure(self):
        line = window_envelope(1, Fraction(1, 2), Fraction(1, 2))
        mu = ma_measure(line)
        assert mu.total_mass() == 0.0

    def test_zero_mass_envelope_has_no_atoms(self):
        # samples that round off the line put a 3.5e-17 kink on it; a
        # profile of equal tail slopes is affine, so its measure is zero
        u = window_envelope(1, Fraction(1, 24), Fraction(23, 24))
        env = weighted_envelope(u, WeightedSet.circles([0.5]))
        assert env.s_minus == env.s_plus
        mu = ma_measure(env)
        assert mu.atoms == () and mu.total_mass() == 0.0

    def test_mass_equals_slope_range(self, rng):
        from conftest import random_pl_profile

        for _ in range(5):
            p = random_pl_profile(rng)
            mu = ma_measure(p)
            assert mu.total_mass() == pytest.approx(float(p.mass), abs=1e-12)

    def test_window_envelope_measure_support(self):
        env = window_envelope(1, Fraction(1, 3), Fraction(1, 4))
        mu = ma_measure(env)
        assert mu.total_mass() == pytest.approx(5 / 12, abs=1e-12)
        # supported inside the contact range of the slope window
        assert mu.breakpoints[0] == pytest.approx(np.log(1 / 2), abs=1e-12)
        assert mu.breakpoints[-1] == pytest.approx(np.log(3), abs=1e-12)


def cell_cdf(m, ts):
    """Reference cell CDF: `np.interp` of the running cell masses and, where
    its slope overflows, the cell's fraction of its mass, point by point."""
    bp, cm = m.breakpoints, m.cell_masses
    cum = np.concatenate([[0.0], np.cumsum(cm)])
    out = np.interp(ts, bp, cum, left=0.0, right=cum[-1])
    for j in np.flatnonzero(~np.isfinite(out)):
        i = int(np.searchsorted(bp, ts[j], side="right")) - 1
        out[j] = cum[i] + cm[i] * ((ts[j] - bp[i]) / (bp[i + 1] - bp[i]))
    return out


def loop_cdf(m, ts, side):
    """Reference: the cell CDF, then one `np.where` per atom, in atom order.

    With both cells and atoms, the hit atoms are summed first, in position
    order in a scalar loop, and the sum is added to the cell CDF once."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros_like(ts)
    if m.breakpoints.size:
        out += cell_cdf(m, ts)
        if m.atoms:
            by_position = sorted(m.atoms, key=lambda a: a[0])
            sums = np.zeros_like(ts)
            for i, x in enumerate(ts):
                for t, w in by_position:
                    if x >= t if side == "right" else x > t:
                        sums[i] += w
            return out + sums
    for t, w in m.atoms:
        out += np.where(ts >= t if side == "right" else ts > t, w, 0.0)
    return out


def fold_cdf(m, ts, side):
    """Reference: the cell CDF, then each atom's term in atom order, one
    add at a time over an (points × atoms) array."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros_like(ts)
    if m.breakpoints.size:
        out += cell_cdf(m, ts)
    if m.atoms:
        at, w = np.array(m.atoms).T
        hit = ts[..., None] >= at if side == "right" else ts[..., None] > at
        terms = np.concatenate([out[..., None], np.where(hit, w, 0.0)], axis=-1)
        out = np.add.accumulate(terms, axis=-1)[..., -1]
    return out


points = st.integers(-16, 16).map(lambda i: i / 4) | st.floats(-5.0, 5.0)
normal_points = (st.integers(-16, 16).map(lambda i: i / 4)
                 | st.floats(-5.0, 5.0, allow_subnormal=False))
weights = st.floats(1e-3, 10.0)


@st.composite
def measures(draw, max_atoms=12, points=points):
    """Cells, atoms, both or neither; atoms may repeat a position or sit on
    a breakpoint."""
    bp = sorted(draw(st.lists(points, max_size=8, unique=True)))
    bp = bp if len(bp) >= 2 else []
    masses = draw(st.lists(weights, min_size=max(len(bp) - 1, 0),
                           max_size=max(len(bp) - 1, 0)))
    atoms = draw(st.lists(st.tuples(points | st.sampled_from(bp or [0.0]), weights),
                          max_size=max_atoms))
    return RadialMeasure(np.asarray(bp, dtype=float), np.asarray(masses, dtype=float),
                         tuple(atoms))


@st.composite
def pure_measures(draw):
    """Cells only or atoms only, and the atoms in their drawn order: any
    order, repeated positions, and positions on breakpoints of the cells
    the same draw would have had."""
    bp = sorted(draw(st.lists(points, min_size=2, max_size=8, unique=True)))
    masses = draw(st.lists(weights, min_size=len(bp) - 1, max_size=len(bp) - 1))
    atoms = draw(st.lists(st.tuples(points | st.sampled_from(bp), weights), max_size=40))
    if draw(st.booleans()):
        return RadialMeasure(np.asarray(bp), np.asarray(masses)), []
    return RadialMeasure(np.empty(0), np.empty(0), tuple(atoms)), atoms


class TestRadialMeasure:
    def test_atoms_must_be_finite_positive(self):
        with pytest.raises(InputError):
            RadialMeasure(np.empty(0), np.empty(0), ((np.inf, 1.0),))
        with pytest.raises(InputError):
            RadialMeasure(np.empty(0), np.empty(0), ((0.0, -1.0),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_masses_and_weights_must_be_finite(self, bad):
        with pytest.raises(InputError, match="finite"):
            RadialMeasure(np.asarray([0.0, 1.0, 2.0]), np.asarray([0.5, bad]))
        with pytest.raises(InputError, match="finite"):
            RadialMeasure(np.empty(0), np.empty(0), ((0.0, bad),))

    def test_cdf_with_atoms(self):
        m = RadialMeasure(np.asarray([0.0, 1.0]), np.asarray([0.5]),
                          ((2.0, 0.5),))
        assert m.cdf(-1.0)[0] == 0.0
        assert m.cdf(0.5)[0] == pytest.approx(0.25)
        assert m.cdf(2.0)[0] == pytest.approx(1.0)
        assert m.cdf(2.0, side="left")[0] == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(m=measures(), ts=st.lists(points, min_size=1, max_size=20),
           side=st.sampled_from(["right", "left"]))
    @example(m=RadialMeasure(np.empty(0), np.empty(0)), ts=[0.0], side="right")
    # a cell of subnormal width, where np.interp's slope overflows
    @example(m=RadialMeasure(np.asarray([-5e-324, 5e-324]), np.asarray([1.0])),
             ts=[0.0], side="left")
    def test_cdf_matches_atom_loop(self, m, ts, side):
        # query points include every atom, so some sit exactly on one
        ts = np.asarray(ts + [t for t, _ in m.atoms])
        got = m.cdf(ts, side=side)
        assert got.tobytes() == loop_cdf(m, ts, side).tobytes()

    def test_mixed_measure_adds_the_atoms_sum_once(self):
        # the atoms' running sum goes to the cell CDF in one add:
        # 2 + (2 + 0.001), where adding one atom at a time gives (2 + 2) + 0.001
        m = RadialMeasure(np.asarray([-0.5, -0.25, 0.0]), np.asarray([1.0, 1.0]),
                          ((0.0, 2.0), (0.0, 0.001)))
        assert m.cdf(0.0)[0] == 2.0 + (2.0 + 0.001)

    @pytest.mark.parametrize("side", ["Right", "both", "", None])
    def test_unknown_side_raises(self, side):
        m = RadialMeasure(np.empty(0), np.empty(0), ((0.0, 1.0),))
        with pytest.raises(InputError, match="side"):
            m.cdf(0.0, side=side)

    @settings(max_examples=200, deadline=None)
    @given(drawn=pure_measures(), ts=st.lists(points, max_size=20),
           side=st.sampled_from(["right", "left"]))
    def test_cdf_matches_the_fold(self, drawn, ts, side):
        m, atoms = drawn
        # the atoms are held stably sorted by position, whatever their order
        assert m.atoms == tuple(sorted(atoms, key=lambda a: a[0]))
        ts = np.asarray(ts + [-np.inf, np.inf] + [t for t, _ in atoms]
                        + m.breakpoints.tolist())
        got = m.cdf(ts, side=side)
        assert got.tobytes() == fold_cdf(m, ts, side).tobytes()

    def test_cdf_memory_is_linear(self):
        # the (points × atoms) arrays of a fold would take 72 MB each
        rng = np.random.default_rng(3)
        m = RadialMeasure(np.empty(0), np.empty(0),
                          tuple(zip(rng.normal(size=3000), rng.uniform(0.5, 1.0, 3000))))
        ts = rng.normal(size=3000)
        tracemalloc.start()
        try:
            m.cdf(ts, side="left")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_cdf_inside_a_subnormal_cell_is_finite(self):
        # np.interp's slope 3/(2⁻¹⁰²³ + 2⁻¹⁰³⁵) overflows; at 0 the cell's
        # fraction is 2⁻¹⁰³⁵/(2⁻¹⁰²³ + 2⁻¹⁰³⁵), exact in subnormals
        m = RadialMeasure(np.asarray([-2.0 ** -1035, 2.0 ** -1023]), np.asarray([3.0]))
        got = m.cdf([0.0, 2.0 ** -1030])
        assert np.all(np.isfinite(got))
        want = 3 * 2.0 ** -12 / (1 + 2.0 ** -12)
        assert abs(got[0] - want) <= 4 * np.spacing(want)

    @pytest.mark.parametrize("m", [
        RadialMeasure(np.empty(0), np.empty(0), ((0.0, 1.0),)),
        RadialMeasure(np.asarray([-1.0, 1.0]), np.asarray([1.0])),
        RadialMeasure(np.asarray([-1.0, 1.0]), np.asarray([1.0]), ((0.0, 1.0),)),
    ], ids=["atoms", "cells", "mixed"])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_nan_query_raises(self, m, side):
        with pytest.raises(InputError, match="NaN"):
            m.cdf([0.0, np.nan], side=side)

    # normal floats only, on which the bound below was measured
    @settings(max_examples=200, deadline=None)
    @given(m1=measures(points=normal_points), m2=measures(points=normal_points))
    def test_kolmogorov_is_the_max_on_a_dense_grid(self, m1, m2):
        # every support point, and a 1/256 lattice reaching past them
        pts = union(m1.support_points(), m2.support_points())
        grid = union(pts, np.arange(-6 * 256, 6 * 256 + 1) / 256)
        dense = max(float(np.max(np.abs(m1.cdf(grid, side=side) - m2.cdf(grid, side=side))))
                    for side in ("right", "left"))
        # the support points are on the grid, so the distance is at most the
        # grid's maximum; between them both CDFs are linear, and interp's
        # rounding there reached 0.98 ulp of the larger mass over 30,000 draws
        d = kolmogorov_distance(m1, m2)
        mass = max(m1.total_mass(), m2.total_mass())
        assert d <= dense <= d + 4 * np.finfo(float).eps * mass

    def test_kolmogorov_hand_example(self):
        m1 = RadialMeasure(np.empty(0), np.empty(0), ((0.0, 1.0),))
        m2 = RadialMeasure(np.asarray([-1.0, 1.0]), np.asarray([1.0]))
        # uniform vs atom: sup gap is 1/2 approached on either side of 0
        assert kolmogorov_distance(m1, m2) == pytest.approx(0.5, abs=1e-12)

    def test_kolmogorov_against_dense_scan(self, rng):
        m1 = RadialMeasure(np.sort(rng.uniform(-2, 2, 5)),
                           rng.uniform(0, 1, 4))
        m2 = RadialMeasure(np.sort(rng.uniform(-2, 2, 7)),
                           rng.uniform(0, 1, 6), ((0.3, 0.2),))
        ts = np.linspace(-3, 3, 200001)
        dense = max(
            float(np.max(np.abs(m1.cdf(ts) - m2.cdf(ts)))),
            float(np.max(np.abs(m1.cdf(ts, side="left") - m2.cdf(ts, side="left")))),
        )
        assert kolmogorov_distance(m1, m2) >= dense - 1e-6


class TestReferenceMeasures:
    def test_fs_is_probability(self):
        nu = fs_measure()
        assert nu.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert nu.density_fn(0.0) == pytest.approx(0.25)

    def test_annulus_density(self):
        nu = annulus_area_measure()
        assert nu.total_mass() == pytest.approx(1.0, abs=1e-12)
        z = np.exp(1) - np.exp(-1)
        assert nu.density_fn(np.asarray([0.0]))[0] == pytest.approx(1 / z)

    def test_circle_atom(self):
        nu = circle_atom(0.5)
        assert nu.atoms == ((0.5, 1.0),)


def wiggle(t):
    t = np.asarray(t)
    return np.sin(3.0 * t) + np.exp(t)


def per_atom_sum(f, m):
    """Reference: f on one atom at a time, as a one-point array, and the
    weighted values summed in atom order."""
    return sum(w * float(np.atleast_1d(f(np.asarray([t])))[0]) for t, w in m.atoms)


class TestMeasureIntegral:
    def test_atom_integral_exact(self):
        m = RadialMeasure(np.empty(0), np.empty(0), ((1.0, 2.0), (-1.0, 3.0)))
        val = measure_integral(lambda t: np.asarray(t) ** 2, m)
        assert val == pytest.approx(5.0, abs=1e-14)

    @pytest.mark.parametrize("cells", [False, True], ids=["atoms", "atoms-and-cells"])
    def test_atoms_evaluate_f_once(self, cells):
        env = weighted_envelope(base_profile(1), WeightedSet.circles([-1.0, 0.5, 2.0]))
        mu = ma_measure(env)
        if cells:
            mu = RadialMeasure(np.asarray([-1.0, 0.0, 1.0]), np.asarray([0.25, 0.5]),
                               mu.atoms, density_fn=logistic_density)
        calls = []

        def counted(t):
            calls.append(np.size(t))
            return wiggle(t)

        got = measure_integral(counted, mu)
        assert len(mu.atoms) > 1 and calls[0] == len(mu.atoms)
        assert len(calls) == 1 + cells
        want = per_atom_sum(wiggle, mu)
        if cells:
            want += measure_integral(wiggle, RadialMeasure(
                mu.breakpoints, mu.cell_masses, (), density_fn=logistic_density))
        assert float(got).hex() == float(want).hex()

    @settings(max_examples=100, deadline=None)
    @given(m=measures(max_atoms=40))
    def test_matches_a_per_atom_loop(self, m):
        # up to 40 atoms: numpy's unrolled or pairwise sums would round
        # differently from the loop
        m = RadialMeasure(m.breakpoints, m.cell_masses, m.atoms, density_fn=logistic_density)
        want = per_atom_sum(wiggle, m)
        want += measure_integral(wiggle, RadialMeasure(m.breakpoints, m.cell_masses, (),
                                                       density_fn=logistic_density))
        assert float(measure_integral(wiggle, m)).hex() == float(want).hex()

    def test_constant_f_weighs_every_atom(self):
        m = RadialMeasure(np.empty(0), np.empty(0), ((1.0, 2.0), (-1.0, 3.0)))
        assert measure_integral(lambda t: 1.5, m) == 7.5

    def test_density_integral_against_quad(self):
        from scipy.integrate import quad

        mu = ma_measure(base_profile(1))
        f = lambda t: np.cos(np.asarray(t))
        got = measure_integral(f, mu)
        want, _ = quad(lambda t: np.cos(t) * logistic_density(t), -40, 40,
                       limit=400)
        assert got == pytest.approx(want, abs=1e-10)
