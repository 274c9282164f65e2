import json
from fractions import Fraction

import numpy as np
import pytest

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


class TestMAMeasure:
    def test_base_is_logistic(self):
        mu = ma_measure(base_profile(1))
        assert mu.exact_total == 1
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

    def test_mass_equals_slope_range(self, rng):
        from conftest import random_pl_profile

        for _ in range(5):
            p = random_pl_profile(rng)
            mu = ma_measure(p)
            assert mu.exact_total == p.s_plus - p.s_minus
            assert mu.total_mass() == pytest.approx(float(p.mass), abs=1e-12)

    def test_window_envelope_measure_support(self):
        env = window_envelope(1, Fraction(1, 3), Fraction(1, 4))
        mu = ma_measure(env)
        assert mu.total_mass() == pytest.approx(5 / 12, abs=1e-12)
        # supported inside the contact range of the slope window
        assert mu.breakpoints[0] == pytest.approx(np.log(1 / 2), abs=1e-12)
        assert mu.breakpoints[-1] == pytest.approx(np.log(3), abs=1e-12)


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

    def test_serialization_roundtrip(self):
        m = RadialMeasure(np.asarray([0.0, 0.5, 1.0]), np.asarray([0.25, 0.5]),
                          ((0.25, 0.125),))
        blob = json.dumps(m.to_dict())
        m2 = RadialMeasure.from_dict(json.loads(blob))
        assert np.allclose(m2.breakpoints, m.breakpoints)
        assert np.allclose(m2.cell_masses, m.cell_masses)
        assert m2.atoms == m.atoms


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


class TestMeasureIntegral:
    def test_atom_integral_exact(self):
        m = RadialMeasure(np.empty(0), np.empty(0), ((1.0, 2.0), (-1.0, 3.0)))
        val = measure_integral(lambda t: np.asarray(t) ** 2, m)
        assert val == pytest.approx(5.0, abs=1e-14)

    def test_density_integral_against_quad(self):
        from scipy.integrate import quad

        mu = ma_measure(base_profile(1))
        f = lambda t: np.cos(np.asarray(t))
        got = measure_integral(f, mu)
        want, _ = quad(lambda t: np.cos(t) * logistic_density(t), -40, 40,
                       limit=400)
        assert got == pytest.approx(want, abs=1e-10)
