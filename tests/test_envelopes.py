import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envlab import envelopes
from envlab import (
    ConvexProfile,
    WeightedSet,
    base_profile,
    contact_leakage,
    divergence,
    i_model_envelope,
    kahler_current_minorant,
    lelong,
    ma_measure,
    max_profile,
    mix_profiles,
    p_shift,
    restricted_biconjugate,
    rooftop,
    sup_difference,
    weighted_envelope,
)
from envlab.basefun import softplus
from envlab.envelopes import _obstacle_samples, envelope_of_samples, window_envelope
from envlab.errors import FeasibilityError, InfeasibleClassError, InputError
from envlab.experiments import weighted_fixture
from envlab.profiles import SlopeWindow, WindowEnvelope
from envlab.quadrature import union

from conftest import random_pl_profile, random_weighted_set


def brute_force_biconjugate(p, ts, slopes):
    """Dense-scan oracle for the restricted biconjugate at points ts."""
    grid = np.union1d(p.grid, np.linspace(p.grid[0], p.grid[-1], 4001))
    fs = p(grid)
    c = np.max(slopes[:, None] * grid[None, :] - fs[None, :], axis=1)
    return np.max(slopes[None, :] * ts[:, None] - c[None, :], axis=1)


def _flat_order_envelope(p, K):
    """Base-window envelope of the sampled (K, v) obstacle, then p's window."""
    c = p.class_mass
    obs_ts, obs_phi = _obstacle_samples(c, K)
    _, vs = K.sample_points()
    q = envelope_of_samples(
        SlopeWindow(Fraction(0), c, c), obs_ts, obs_phi, extra_nodes=obs_ts,
        limit_lo=-vs[0] if K.whole_space else None,
        limit_hi=-vs[-1] if K.whole_space else None,
    )
    return envelope_of_samples(p.window, q.grid, q.values, extra_nodes=q.grid)


class TestIModelEnvelope:
    def test_base_is_fixed_point(self):
        b = base_profile(1)
        env = i_model_envelope(b)
        assert np.max(np.abs(env(b.grid) - b.values)) < 1e-12
        assert lelong(env) == (Fraction(0), Fraction(0))

    def test_interior_window_value(self):
        # max over s in [1/3, 3/4] of -(s log s + (1-s) log(1-s)) sits at 1/2
        env = window_envelope(1, Fraction(1, 3), Fraction(1, 4))
        assert env(0.0) == pytest.approx(math.log(2), abs=1e-14)
        assert lelong(env) == (Fraction(1, 3), Fraction(1, 4))

    def test_degenerate_window_is_line(self):
        env = window_envelope(1, Fraction(1, 2), Fraction(1, 2))
        ts = np.asarray([-3.0, 0.0, 2.5])
        assert np.allclose(env(ts), 0.5 * ts + math.log(2), atol=1e-14)
        assert env.mass == 0
        # G <= base with equality at t = 0 (AM-GM)
        b = base_profile(1)
        probe = np.linspace(-5, 5, 101)
        assert np.all(env(probe) <= b(probe) + 1e-12)

    def test_infeasible_window_errors(self):
        with pytest.raises(InfeasibleClassError):
            window_envelope(1, Fraction(3, 5), Fraction(1, 2))

    def test_projection_idempotent(self, rng):
        for _ in range(5):
            p = random_pl_profile(rng)
            e1 = i_model_envelope(p)
            e2 = i_model_envelope(e1)
            assert e1.s_minus == e2.s_minus and e1.s_plus == e2.s_plus
            assert np.max(np.abs(e2(e1.grid) - e1.values)) < 1e-12

    def test_preserves_lelong_exactly(self, rng):
        p = random_pl_profile(rng)
        assert lelong(i_model_envelope(p)) == lelong(p)


class TestBiconjugacy:
    def test_roundtrip_on_random_pl(self, rng):
        for _ in range(20):
            p = random_pl_profile(rng)
            q = restricted_biconjugate(p)
            scale = max(1.0, float(np.max(np.abs(p.values))))
            assert np.max(np.abs(q(p.grid) - p.values)) <= 1e-10 * scale
            assert q.s_minus == p.s_minus and q.s_plus == p.s_plus

    def test_against_dense_oracle(self, rng):
        p = random_pl_profile(rng)
        ts = np.linspace(-8, 8, 41)
        # a dense scan alone undersamples; adding the exact chord slopes
        # makes the brute-force biconjugate exact for PL data
        slopes = np.union1d(
            np.linspace(float(p.s_minus), float(p.s_plus), 3001),
            np.concatenate([[float(p.s_minus), float(p.s_plus)], p.chord_slopes()]),
        )
        want = brute_force_biconjugate(p, ts, slopes)
        got = restricted_biconjugate(p)(ts)
        assert np.max(np.abs(got - want)) < 1e-9


def full_hull_envelope(window, obs_ts, obs_fs, extra_nodes=None,
                       limit_lo=None, limit_hi=None):
    """Reference: `envelope_of_samples` with the hull and the conjugate
    taken over every sample, not only the contact slice."""
    obs_ts = np.asarray(obs_ts, dtype=float)
    obs_fs = np.asarray(obs_fs, dtype=float)
    order = np.argsort(obs_ts)
    obs_ts, obs_fs = obs_ts[order], obs_fs[order]
    lo_f, hi_f = float(window.lo), float(window.hi)
    ht, hf = envelopes.lower_hull(obs_ts, obs_fs)
    chords = np.diff(hf) / np.diff(ht) if ht.size > 1 else np.empty(0)
    slopes = union([lo_f, hi_f], np.clip(chords, lo_f, hi_f))
    cvals = envelopes.conjugate_at_slopes(ht, hf, slopes)
    if limit_lo is not None and slopes[0] == lo_f:
        cvals[0] = max(cvals[0], limit_lo)
    if limit_hi is not None and slopes[-1] == hi_f:
        cvals[-1] = max(cvals[-1], limit_hi)
    nodes = obs_ts if extra_nodes is None else union(obs_ts, extra_nodes)
    return envelopes._assemble(window, list(slopes), list(cvals), nodes)


def same_profile(got, want):
    assert got.grid.tobytes() == want.grid.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.s_minus, got.s_plus) == (want.s_minus, want.s_plus)
    assert float(got.a_minus).hex() == float(want.a_minus).hex()
    assert float(got.a_plus).hex() == float(want.a_plus).hex()


@st.composite
def windowed_obstacles(draw):
    """(window, ts, fs, limit_lo, limit_hi) with distinct sample points.

    Integer levels repeat, which gives flat runs and argmax ties at slope
    0.  When every point is a multiple of 1/8, a run may also lie on a
    line of slope lo or hi that is a multiple of 1/4: s·t − 1 is then
    exact, and so are the ties at that slope."""
    c = Fraction(draw(st.integers(1, 3)))
    ends = st.integers(0, 12).map(lambda i: c * Fraction(i, 12))
    lo, hi = sorted([draw(ends), draw(ends)])
    window = SlopeWindow(lo, hi, c)
    n = draw(st.integers(1, 24))
    eighths = st.integers(-80, 80).map(lambda i: i / 8)
    on_grid = draw(st.booleans())
    point = eighths if on_grid else eighths | st.floats(-20.0, 20.0)
    ts = sorted(draw(st.lists(point, min_size=n, max_size=n, unique=True)))
    level = st.integers(-3, 3).map(float) | st.floats(-20.0, 20.0)
    fs = draw(st.lists(level, min_size=n, max_size=n))
    for s in (lo, hi):
        if on_grid and (4 * s).denominator == 1 and draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(a, n - 1))
            fs[a:b + 1] = [float(s) * t - 1.0 for t in ts[a:b + 1]]
    limit = st.none() | st.floats(-20.0, 20.0)
    limit_lo = draw(limit) if lo == 0 else None
    limit_hi = draw(limit) if hi == c else None
    return window, ts, fs, limit_lo, limit_hi


def exact_lower_hull(ts, fs):
    """Indices of the lower hull's vertices, by definition and in exact
    Fractions: the ends, and each sample strictly below every chord over it."""
    t, f = [Fraction(x) for x in ts], [Fraction(x) for x in fs]
    n = len(t)
    return [j for j in range(n)
            if j in (0, n - 1) or all(
                (f[j] - f[a]) * (t[b] - t[a]) < (f[b] - f[a]) * (t[j] - t[a])
                for a in range(j) for b in range(j + 1, n))]


def loop_contact_leakage(env, K):
    """Reference: the mass of env's MA measure off the contact set, by a
    Python loop over its atoms and then its cells, one `contains` each."""
    mu = ma_measure(env)
    ts, vs = K.sample_points()
    phi = float(env.class_mass) * softplus(ts) + vs
    gap = np.abs(env(ts) - phi)
    scale = max(1.0, float(np.max(np.abs(phi))))
    contact = ts[gap <= envelopes.CONTACT_TOL * scale]
    leak = 0.0
    for t, w in mu.atoms:
        if not (contact.size and np.min(np.abs(contact - t)) <= 1e-9):
            leak += w
    mids = 0.5 * (mu.breakpoints[:-1] + mu.breakpoints[1:])
    for m_cell, tm in zip(mu.cell_masses, mids):
        if not K.contains(tm):
            leak += m_cell
    return leak, mu.total_mass()


@st.composite
def tiny_samples(draw):
    """(ts, fs): ascending distinct ts and fs in [−1e-150, 1e-150].  A
    product of two differences is at most 4e-300: most lie below the
    smallest normal float, where a float orientation test would read them
    as 0.0, and a normal one can round to a tie."""
    tiny = st.floats(-1e-150, 1e-150)
    ts = sorted(draw(st.lists(tiny, min_size=1, max_size=12, unique=True)))
    fs = draw(st.lists(tiny | st.just(0.0), min_size=len(ts), max_size=len(ts)))
    return ts, fs


class TestLowerHull:
    @settings(max_examples=200, deadline=None)
    @given(samples=tiny_samples())
    # rounding, not underflow: f₃ − f₀ rounds to −f₀ and t₄ − t₀ to −t₀, so
    # both products of the test at the vertex t₃ = 0 are one normal float
    @example(samples=([-9.444703917826121e-151, -7.061631368203236e-151,
                       -5.0841867447701e-151, 0.0, 1e-300],
                      [-8.22616798598752e-151, 0.0, 0.0, -1.038446368209802e-197, 0.0]))
    def test_matches_the_exact_hull_on_tiny_samples(self, samples):
        ts, fs = samples
        ht, hf = envelopes.lower_hull(np.asarray(ts), np.asarray(fs))
        want = exact_lower_hull(ts, fs)
        assert ht.tolist() == [ts[j] for j in want]
        assert hf.tolist() == [fs[j] for j in want]


class TestEnvelopeOfSamples:
    @settings(max_examples=400, deadline=None)
    @given(case=windowed_obstacles())
    @example(case=(SlopeWindow(0, 1, 1), [-1.0, 1.0], [0.5, 0.25], 0.75, -3.0))
    @example(case=(SlopeWindow(Fraction(1, 2), Fraction(1, 2), 1),
                   [-1.0, 0.0, 1.0, 2.0], [1.0, -0.5, 0.0, 0.5], None, None))
    @example(case=(SlopeWindow(0, Fraction(1, 3), 1),
                   [0.0, 1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 1.0, 1.0, 3.0], 0.0, None))
    # both orientation products underflow to 0.0 at the middle sample, which
    # lies strictly below the chord and is the conjugate's maximizer at lo
    # resp. hi: the whole-line hull once dropped it
    @example(case=(SlopeWindow(0, Fraction(1, 12), 1),
                   [0.0, 8.567514649370104e-278, 2.4035891656995154e-259],
                   [0.0, 0.0, 7.377083652029965e-113], None, None))
    @example(case=(SlopeWindow(Fraction(1, 12), Fraction(1, 6), 1),
                   [0.0, 8.567514649370104e-278, 2.4035891656995154e-259],
                   [0.0, 0.0, 7.377083652029965e-113], None, None))
    def test_contact_slice_matches_full_hull(self, case):
        window, ts, fs, limit_lo, limit_hi = case
        kw = dict(extra_nodes=ts, limit_lo=limit_lo, limit_hi=limit_hi)
        try:
            want = full_hull_envelope(window, ts, fs, **kw)
        except InputError as exc:
            # e.g. samples 1e-264 apart: the profile fails validation
            with pytest.raises(InputError, match=re.escape(str(exc))):
                envelope_of_samples(window, ts, fs, **kw)
            return
        same_profile(envelope_of_samples(window, ts, fs, **kw), want)

    def test_rounding_collinear_end_agrees_to_rounding(self):
        # the last four samples lie on the line of slope hi = 5/6 only to
        # rounding, and hi·t − f is largest, by an ulp, at t = −1.25, where
        # the slice ends.  That sample is a vertex of the exact hull: its
        # chords differ from 5/6 by an ulp, below on its left and above on
        # its right.  A float orientation test read it as on the chord from
        # −5.625 to the last sample and dropped it from the whole hull.  Both
        # hulls are exact, so the profiles have one grid and agree as
        # functions to within two float spacings at 8.
        window = SlopeWindow(Fraction(2, 3), Fraction(5, 6), 1)
        ts = [-7.25, -5.625, -4.5, -1.25, -3.8001821797990174e-130]
        fs = [3.0, -5.6875, -4.75, -2.041666666666667, -1.0]
        got = envelope_of_samples(window, ts, fs, extra_nodes=ts)
        want = full_hull_envelope(window, ts, fs, extra_nodes=ts)
        assert got.grid.tobytes() == want.grid.tobytes()
        probe = np.linspace(-30.0, 30.0, 6001)
        assert np.max(np.abs(got(probe) - want(probe))) <= 2 * np.spacing(8.0)

    def test_hull_sees_only_the_contact_slice(self, monkeypatch):
        # bump-fs: the obstacle c·f_FS + v over the whole line, window [1/3, 3/4]
        u, K, _ = weighted_fixture("bump-fs")
        ts, fs = _obstacle_samples(u.class_mass, K)
        lo, hi = float(u.s_minus), float(u.s_plus)
        first = int(np.argmax(lo * ts - fs))
        last = int(np.flatnonzero(hi * ts - fs == np.max(hi * ts - fs))[-1])
        seen = []
        real = envelopes.lower_hull
        monkeypatch.setattr(envelopes, "lower_hull",
                            lambda t, f: seen.append(t.size) or real(t, f))
        got = weighted_envelope(u, K)
        assert seen == [last - first + 1] and 0 < last - first + 1 < ts.size
        same_profile(got, full_hull_envelope(u.window, ts, fs, extra_nodes=ts))

    @settings(max_examples=300, deadline=None)
    @given(case=windowed_obstacles(), data=st.data())
    def test_repeated_points_keep_the_smallest_value(self, case, data):
        # integer t repeat; the reference sees each t once, at its least f
        window, _, _, limit_lo, limit_hi = case
        n = data.draw(st.integers(1, 24))
        ts = data.draw(st.lists(st.integers(-6, 6).map(float), min_size=n, max_size=n))
        fs = data.draw(st.lists(st.integers(-3, 3).map(float) | st.floats(-20.0, 20.0),
                                min_size=n, max_size=n))
        least = {}
        for t, f in zip(ts, fs):
            least[t] = min(f, least.get(t, f))
        uts = sorted(least)
        kw = dict(extra_nodes=ts, limit_lo=limit_lo, limit_hi=limit_hi)
        want = full_hull_envelope(window, uts, [least[t] for t in uts], **kw)
        same_profile(envelope_of_samples(window, ts, fs, **kw), want)

    def test_non_finite_samples_raise(self):
        with pytest.raises(InputError, match="finite"):
            envelope_of_samples(SlopeWindow(0, 1, 1), [0.0, 1.0], [0.0, np.nan])


class TestWeightedEnvelope:
    def test_single_circle_zero_weight(self):
        env = weighted_envelope(base_profile(1), WeightedSet.circles([0.0]))
        ts = np.asarray([-4.0, -0.5, 0.0, 1.0, 6.0])
        assert np.allclose(env(ts), np.maximum(ts, 0.0) + math.log(2), atol=1e-12)

    def test_whole_line_reduces_to_projection(self, rng):
        p = random_pl_profile(rng)
        env = weighted_envelope(p, WeightedSet.whole())
        proj = i_model_envelope(p)
        assert isinstance(env.exact, WindowEnvelope)
        assert np.max(np.abs(env(proj.grid) - proj(proj.grid))) < 1e-12

    def test_constant_weight_shift(self):
        env = weighted_envelope(base_profile(1), WeightedSet.circles([0.0], [-1.0]))
        ts = np.asarray([-4.0, 0.0, 2.0])
        assert np.allclose(env(ts), np.maximum(ts, 0.0) + math.log(2) - 1.0,
                           atol=1e-12)

    def test_empty_K_rejected(self):
        with pytest.raises(InputError):
            WeightedSet(())

    def test_idempotency_in_output_window(self, rng):
        # re-running with the output's window reproduces the output
        for _ in range(5):
            p = random_pl_profile(rng)
            K = random_weighted_set(rng)
            env = weighted_envelope(p, K)
            env2 = weighted_envelope(env, K)
            grid = np.union1d(env.grid, env2.grid)
            assert np.max(np.abs(env(grid) - env2(grid))) < 1e-10

    def test_projection_first_is_no_op(self, rng):
        # envelope of u equals envelope of the I-projection of u
        p = random_pl_profile(rng)
        K = random_weighted_set(rng)
        e1 = weighted_envelope(p, K)
        e2 = weighted_envelope(i_model_envelope(p), K)
        grid = np.union1d(e1.grid, e2.grid)
        assert np.max(np.abs(e1(grid) - e2(grid))) < 1e-10

    def test_modes_agree(self, rng):
        # the direct route agrees with the flat-order route (envelope of the
        # sampled obstacle in the base window, then in u's window), built here
        for _ in range(8):
            p = random_pl_profile(rng)
            K = random_weighted_set(rng)
            direct = weighted_envelope(p, K)
            flat = _flat_order_envelope(p, K)
            grid = np.union1d(direct.grid, flat.grid)
            assert np.max(np.abs(direct(grid) - flat(grid))) < 1e-8
            assert direct.s_minus == flat.s_minus and direct.s_plus == flat.s_plus

    def test_composition_through_base_window(self, rng):
        # K-envelope of u == envelope in u's window of the base-window
        # K-envelope, the latter taken from weighted_envelope itself
        for _ in range(5):
            p = random_pl_profile(rng)
            K = random_weighted_set(rng)
            direct = weighted_envelope(p, K)
            q = weighted_envelope(base_profile(p.class_mass), K)
            composed = envelope_of_samples(p.window, q.grid, q.values, extra_nodes=q.grid)
            grid = np.union1d(direct.grid, composed.grid)
            assert np.max(np.abs(direct(grid) - composed(grid))) < 1e-8

    def test_monotone_in_window(self, rng):
        # nested windows give pointwise-ordered envelopes
        for _ in range(5):
            p = random_pl_profile(rng)
            q = i_model_envelope(p)
            narrower = window_envelope(
                1, p.s_minus + Fraction(1, 48), 1 - p.s_plus + Fraction(1, 48))
            K = random_weighted_set(rng)
            e_small = weighted_envelope(narrower, K)
            e_big = weighted_envelope(q, K)
            grid = np.union1d(e_small.grid, e_big.grid)
            assert np.all(e_small(grid) <= e_big(grid) + 1e-10)

    def test_concavity_in_window_mixture(self, rng):
        # envelope of the mixed class dominates the mixture of envelopes
        p0 = random_pl_profile(rng)
        p1 = random_pl_profile(rng)
        K = random_weighted_set(rng)
        e0 = weighted_envelope(p0, K)
        e1 = weighted_envelope(p1, K)
        for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                    Fraction(3, 4), Fraction(1)):
            mixed = mix_profiles(lam, p1, p0)
            em = weighted_envelope(mixed, K)
            grid = np.union1d(np.union1d(e0.grid, e1.grid), em.grid)
            lhs = float(lam) * e1(grid) + (1 - float(lam)) * e0(grid)
            assert np.all(lhs <= em(grid) + 1e-8)

    def test_maximum_principle(self, rng):
        # sup_K(h - v) == sup_line(h - E_K[u](v)) for candidates h below u's class
        for _ in range(5):
            u = random_pl_profile(rng)
            K = random_weighted_set(rng)
            env = weighted_envelope(u, K)
            h = weighted_envelope(u, random_weighted_set(rng))  # window(h) == window(u)
            ts, vs = K.sample_points()
            phi = 1.0 * np.log1p(np.exp(ts)) + vs
            lhs = float(np.max(h(ts) - phi))
            rhs = sup_difference(h, env)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_leakage_is_the_loop_over_atoms_then_cells(self, rng, monkeypatch):
        # envelopes whose MA measure is atoms only (PL profiles) or cells only
        # (a window envelope), against sets they do not touch: nonzero leaks,
        # summed in the loop's order to the last digit, with one `contains`
        envs = [random_pl_profile(rng) for _ in range(4)]
        envs.append(weighted_envelope(window_envelope(1, Fraction(1, 3), Fraction(1, 4)),
                                      WeightedSet.whole()))
        sets = [random_weighted_set(rng) for _ in range(4)]
        sets += [WeightedSet.interval(-1.0, 1.0), WeightedSet.circles([-0.5, 0.5])]
        calls = []
        real = WeightedSet.contains
        monkeypatch.setattr(WeightedSet, "contains",
                            lambda self, t: calls.append(t) or real(self, t))
        leaks = 0
        for env in envs:
            for K in sets:
                calls.clear()
                got = contact_leakage(env, K)
                assert len(calls) == 1
                want = loop_contact_leakage(env, K)
                assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
                leaks += got[0] > 0
        assert leaks >= 10

    def test_contact_set_support(self, rng):
        for _ in range(5):
            u = random_pl_profile(rng)
            K = random_weighted_set(rng)
            env = weighted_envelope(u, K)
            leak, total = contact_leakage(env, K)
            assert leak <= 1e-8 * max(total, 1e-12)

    def test_monotone_continuity(self, rng):
        # scripted decreasing sequence u_j -> u: envelopes decrease with
        # vanishing sup gap
        u = window_envelope(1, Fraction(1, 3), Fraction(1, 4))
        K = WeightedSet.interval(-1.0, 1.0)
        target = weighted_envelope(u, K)
        prev = None
        gaps = []
        for j in (1, 2, 4, 8, 16, 32):
            better = window_envelope(1, Fraction(1, 3) - Fraction(1, 3 * 4 * j),
                                     Fraction(1, 4) - Fraction(1, 4 * 4 * j))
            env_j = weighted_envelope(mix_profiles(Fraction(1, j), better, u), K)
            grid = np.union1d(env_j.grid, target.grid)
            if prev is not None:
                assert np.all(env_j(grid) <= prev(grid) + 1e-10)
            prev = env_j
            gaps.append(float(np.max(np.abs(env_j(grid) - target(grid)))))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.02


class TestRooftop:
    def test_idempotent_on_equal_input(self, rng):
        p = i_model_envelope(random_pl_profile(rng))
        r = rooftop(p, p)
        grid = p.grid
        assert np.max(np.abs(r(grid) - p(grid))) < 1e-12

    def test_ordered_inputs(self):
        # the lower operand is the PL interpolant of the shifted base samples
        b = base_profile(1)
        shifted = ConvexProfile(1, b.grid, b.values - 1.0, b.s_minus, b.s_plus,
                                b.a_minus - 1.0, b.a_plus - 1.0)
        r = rooftop(b, shifted)
        ts = np.linspace(-6, 6, 61)
        assert np.allclose(r(ts), shifted(ts), atol=1e-10)

    def test_model_inputs_stay_model(self):
        # the rooftop of two I-model envelopes is again a fixed point
        p = window_envelope(1, Fraction(1, 6), Fraction(1, 3))
        q = window_envelope(1, Fraction(1, 4), Fraction(1, 8))
        r = rooftop(p, q)
        again = i_model_envelope(r)
        assert r.s_minus == Fraction(1, 4) and r.s_plus == Fraction(2, 3)
        assert np.max(np.abs(again(r.grid) - r(r.grid))) < 1e-8

    def test_disjoint_windows_infeasible(self):
        grid = np.asarray([-1.0, 0.0, 1.0])
        l1 = ConvexProfile(1, grid, grid / 3, Fraction(1, 3), Fraction(1, 3), 0.0, 0.0)
        l2 = ConvexProfile(1, grid, 2 * grid / 3, Fraction(2, 3), Fraction(2, 3), 0.0, 0.0)
        with pytest.raises(InfeasibleClassError):
            rooftop(l1, l2)
        # the mass-1/3 structure lives in the pointwise max instead
        assert max_profile(l1, l2).mass == Fraction(1, 3)

    def test_general_rooftop_against_oracle(self, rng):
        p = random_pl_profile(rng)
        q = random_pl_profile(rng)
        lo = max(p.s_minus, q.s_minus)
        hi = min(p.s_plus, q.s_plus)
        if lo > hi:
            with pytest.raises(InfeasibleClassError):
                rooftop(p, q)
            return
        r = rooftop(p, q)
        ts = np.linspace(-8, 8, 81)
        assert np.all(r(ts) <= np.minimum(p(ts), q(ts)) + 1e-10)
        assert r.s_minus == lo and r.s_plus == hi

    def test_class_mismatch(self):
        with pytest.raises(InputError):
            rooftop(base_profile(1), base_profile(2))


class TestPShift:
    def test_identity_when_equal(self, rng):
        u = random_pl_profile(rng)
        h = p_shift(2, u, u)
        grid = np.union1d(h.grid, u.grid)
        assert np.max(np.abs(h(grid) - u(grid))) < 1e-10
        assert lelong(h) == lelong(u)

    def test_feasible_shift_inequality(self):
        u = window_envelope(1, Fraction(1, 4), Fraction(1, 4))  # mass 1/2
        v = base_profile(1)                                     # mass 1
        h = p_shift(Fraction(19, 10), u, v)
        ts = np.linspace(-20, 20, 2001)
        assert np.all(h(ts) + 0.9 * v(ts) <= 1.9 * u(ts) + 1e-10)

    def test_mass_bound_enforced(self):
        u = window_envelope(1, Fraction(1, 4), Fraction(1, 4))
        v = base_profile(1)
        with pytest.raises(FeasibilityError):
            p_shift(Fraction(21, 10), u, v)
        with pytest.raises(FeasibilityError):
            p_shift(Fraction(2), u, v)

    def test_unbounded_when_masses_equal(self, rng):
        u = random_pl_profile(rng)
        p_shift(Fraction(50), u, u)  # no feasibility error

    def test_nested_window_precondition(self):
        u = window_envelope(1, Fraction(0), Fraction(0))
        v = window_envelope(1, Fraction(1, 3), Fraction(1, 4))
        with pytest.raises(FeasibilityError):
            p_shift(Fraction(3, 2), u, v)


class TestDivergence:
    def test_zero_on_self(self, rng):
        u = random_pl_profile(rng)
        assert divergence(u, u) == 0

    def test_zero_on_same_type(self):
        b = base_profile(1)
        kinked = weighted_envelope(b, WeightedSet.circles([0.0]))
        assert divergence(b, kinked) == 0

    def test_slope_range_value(self):
        b = base_profile(1)
        half = window_envelope(1, Fraction(1, 2), Fraction(0))
        assert divergence(b, half) == Fraction(1, 2)

    def test_metric_properties(self, rng):
        for _ in range(10):
            u, v, w = (random_pl_profile(rng) for _ in range(3))
            duv, dvw, duw = divergence(u, v), divergence(v, w), divergence(u, w)
            assert duv == divergence(v, u)
            assert duv >= 0
            assert duw <= duv + dvw  # triangle constant 1


class TestKahlerCurrentMinorant:
    def test_base_case(self):
        b = base_profile(1)
        v, delta = kahler_current_minorant(b)
        assert delta == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(v(b.grid) - b.values)) < 1e-12

    def test_window_fixture(self):
        u = window_envelope(1, Fraction(1, 3), Fraction(1, 4))
        v, delta = kahler_current_minorant(u)
        assert delta > 0
        grid = np.union1d(u.grid, v.grid)
        assert np.all(v(grid) <= u(grid) + 1e-10)
        nu0_v, nu_inf_v = lelong(v)
        nu0_u, nu_inf_u = lelong(u)
        assert nu0_v >= nu0_u and nu_inf_v >= nu_inf_u

    def test_zero_mass_rejected(self):
        line = window_envelope(1, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(FeasibilityError):
            kahler_current_minorant(line)
