import json
from fractions import Fraction

import numpy as np
import pytest

from envlab import (
    ConvexProfile,
    WeightedSet,
    base_profile,
    lelong,
    mix_profiles,
    sup_difference,
    window_envelope,
)
from envlab.errors import InfeasibleClassError, InputError
from envlab.profiles import WindowEnvelope

from conftest import random_pl_profile


class TestBaseProfile:
    def test_value_at_origin(self):
        b = base_profile(1, np.linspace(-2, 2, 9))
        assert b(0.0) == pytest.approx(np.log(2), abs=1e-15)

    def test_minimal_singularity(self):
        b = base_profile(1)
        assert lelong(b) == (Fraction(0), Fraction(0))
        assert b.mass == 1

    def test_class_scaling(self):
        b = base_profile(2, np.asarray([-1.0, 0.0, 1.0]))
        assert b(0.0) == pytest.approx(2 * np.log(2), abs=1e-14)
        assert b.s_plus == 2

    def test_exact_asymptote_tails(self):
        b = base_profile(1)
        assert b.a_minus == 0.0 and b.a_plus == 0.0
        assert b(-45.0) == pytest.approx(0.0, abs=1e-17)
        assert b(45.0) == pytest.approx(45.0, abs=1e-12)

    def test_shift_keeps_the_closed_form(self):
        # off the 1/16 grid, where the PL interpolant would differ
        b, a = base_profile(1), -0.75
        ts = np.asarray([-3.03, -0.01, 0.1, 2.2, 7.77])
        assert np.array_equal(b.shifted(a)(ts), b(ts) + a)

    def test_singular_part_vanishes(self):
        ts = np.asarray([-50.0, -3.03, 0.0, 2.2, 50.0])
        assert np.array_equal(base_profile(1).singular_part(ts), np.zeros(5))

    def test_rejects_bad_grid(self):
        with pytest.raises(InputError):
            base_profile(1, np.asarray([0.0, 0.0, 1.0]))
        with pytest.raises(InputError):
            base_profile(1, np.asarray([]))
        with pytest.raises(InputError):
            base_profile(0)


class TestProfileInvariants:
    def test_convexity_enforced(self):
        grid = np.asarray([-1.0, 0.0, 1.0])
        with pytest.raises(InputError, match="convex"):
            ConvexProfile(1, grid, np.asarray([0.0, 1.0, 0.5]),
                          Fraction(0), Fraction(1), 0.0, -0.5)

    def test_slope_order_enforced(self):
        grid = np.asarray([-1.0, 1.0])
        with pytest.raises(InfeasibleClassError):
            ConvexProfile(1, grid, np.asarray([0.0, 1.0]),
                          Fraction(3, 4), Fraction(1, 4), 0.75, 0.75)

    def test_class_constraint(self):
        grid = np.asarray([-1.0, 1.0])
        with pytest.raises(InfeasibleClassError):
            ConvexProfile(1, grid, np.asarray([-2.0, 2.0]),
                          Fraction(2), Fraction(2), 0.0, 0.0)

    def test_tail_seam_enforced(self):
        grid = np.asarray([-1.0, 1.0])
        with pytest.raises(InputError, match="tail"):
            ConvexProfile(1, grid, np.asarray([0.0, 1.0]),
                          Fraction(1, 2), Fraction(1, 2), 3.0, 0.5)

    def test_lelong_dictionary(self, rng):
        p = random_pl_profile(rng)
        nu0, nu_inf = lelong(p)
        assert nu0 == p.s_minus
        assert nu_inf == 1 - p.s_plus
        assert p.mass == 1 - nu0 - nu_inf


class TestWindows:
    def test_mixing_is_exact(self, rng):
        # windows of convex combinations are combinations of windows
        for _ in range(10):
            p = random_pl_profile(rng)
            q = random_pl_profile(rng)
            lam = Fraction(int(rng.integers(0, 5)), 4)
            mixed = mix_profiles(lam, p, q)
            assert mixed.s_minus == lam * p.s_minus + (1 - lam) * q.s_minus
            assert mixed.s_plus == lam * p.s_plus + (1 - lam) * q.s_plus

    def test_window_validation(self):
        with pytest.raises(InfeasibleClassError):
            WindowEnvelope(Fraction(1), Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(InfeasibleClassError):
            WindowEnvelope(Fraction(1), Fraction(0), Fraction(2))
        # ints and strings are coerced to exact rationals; floats are refused
        w = WindowEnvelope(1, "1/3", "3/4")
        assert all(type(x) is Fraction for x in (w.c, w.lo, w.hi))
        assert w == WindowEnvelope(Fraction(1), Fraction(1, 3), Fraction(3, 4))
        with pytest.raises(TypeError):
            WindowEnvelope(1, 0.25, Fraction(3, 4))
        # ν₀ + ν_∞ > c: window_envelope's window [ν₀, c − ν_∞] is empty
        with pytest.raises(InfeasibleClassError):
            window_envelope(1, Fraction(2, 3), Fraction(1, 2))


class TestMaxAndSup:
    def test_sup_difference_finite_and_infinite(self):
        b = base_profile(1)
        assert sup_difference(b, b) == pytest.approx(0.0, abs=1e-15)
        assert sup_difference(b.shifted(2.0), b) == pytest.approx(2.0, abs=1e-12)
        grid = np.asarray([-1.0, 1.0])
        line = ConvexProfile(1, grid, 0.5 * grid, Fraction(1, 2), Fraction(1, 2),
                             0.0, 0.0)
        # line - base is bounded above (peak -log 2 at 0); base - line is not
        assert sup_difference(line, b) == pytest.approx(-np.log(2), abs=1e-12)
        assert sup_difference(b, line) == np.inf


class TestWeightedSet:
    def test_rejects_empty_and_overlap(self):
        with pytest.raises(InputError):
            WeightedSet(())
        g = np.asarray([0.0, 1.0])
        with pytest.raises(InputError):
            WeightedSet(((0.0, 1.0, g, np.zeros(2)),
                         (0.5, 2.0, np.asarray([0.5, 2.0]), np.zeros(2))))

    def test_single_circle_allowed(self):
        K = WeightedSet.circles([0.0], [-1.0])
        assert K.contains(0.0)
        assert not K.contains(0.5)

    def test_contains_is_elementwise(self):
        t = np.asarray([-2.0, -1.0 - 1e-12, -1.0 - 1e-11, 0.0, 0.25, 0.5, 1.0 + 1e-12, 3.0])
        for K, want in (
                (WeightedSet.interval(-1.0, 1.0), [0, 1, 0, 1, 1, 1, 1, 0]),
                (WeightedSet.circles([0.0, 0.5]), [0, 0, 0, 1, 0, 1, 0, 0]),
                (WeightedSet.whole(np.linspace(-1.0, 1.0, 5)), [1] * 8)):
            got = K.contains(t)
            assert got.dtype == bool and got.tolist() == [bool(w) for w in want]
            assert [bool(K.contains(x)) for x in t] == got.tolist()
            assert K.contains(t.reshape(2, 4)).tolist() == got.reshape(2, 4).tolist()

    def test_weight_must_be_finite(self):
        g = np.asarray([0.0, 1.0])
        with pytest.raises(InputError):
            WeightedSet(((0.0, 1.0, g, np.asarray([0.0, np.inf])),))

    def test_add_weight(self):
        K = WeightedSet.interval(-1.0, 1.0)
        K2 = K.add_weight(lambda t: np.ones_like(t), 0.5)
        _, vs = K2.sample_points()
        assert np.allclose(vs, 0.5)

    def test_callable_weight_is_exact_between_nodes(self):
        v = lambda t: 0.2 * np.exp(-np.square(t))
        f = lambda t: np.cos(t)
        # 0.1 and 1.03125 sit strictly between nodes of both default grids
        ts = np.asarray([-1.03125, 0.1, 0.7])
        for K in (WeightedSet.whole(v=v), WeightedSet.interval(-2.0, 2.0, v=v)):
            assert np.array_equal(K.weight_at(ts), v(ts))
            got = K.add_weight(f, 0.3).weight_at(ts)
            assert np.max(np.abs(got - (v(ts) + 0.3 * f(ts)))) < 1e-15
            # the samples stay the samples of v + s·f
            _, vs = K.add_weight(f, 0.3).sample_points()
            grid, _ = K.sample_points()
            assert np.max(np.abs(vs - (v(grid) + 0.3 * f(grid)))) < 1e-15

    def test_add_weight_tails_continuous_at_grid_ends(self):
        # f keeps growing past the grid: the tails are taken at the grid
        # ends, as `whole` takes them, not far out on the line
        K = WeightedSet.whole(v=lambda t: 0.1 * np.tanh(t)).add_weight(
            lambda t: 0.01 * t, 2.0)
        grid, _ = K.sample_points()
        lo, hi = grid[0], grid[-1]
        assert K.weight_at(lo - 1.0) == K.weight_at(lo)
        assert K.weight_at(hi + 1.0) == K.weight_at(hi)
        assert K.weight_at(hi) == pytest.approx(0.1 * np.tanh(hi) + 0.02 * hi, abs=1e-15)


class TestSerialization:
    def test_profile_roundtrip(self, rng):
        p = random_pl_profile(rng)
        d = json.loads(json.dumps(p.to_dict()))
        assert d["class_mass"] == "1/1"
        assert Fraction(d["tail_minus"]["slope"]) == p.s_minus
        assert Fraction(d["tail_plus"]["slope"]) == p.s_plus
        assert "/" in d["tail_minus"]["slope"]
        assert d["tail_minus"]["intercept"] == p.a_minus
        assert d["tail_plus"]["intercept"] == p.a_plus
        assert np.array_equal(d["grid"], p.grid)
        assert np.array_equal(d["values"], p.values)
