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
    lelong,
    ma_measure,
    mix_profiles,
    sup_difference,
    weighted_envelope,
)
from envlab.envelopes import _obstacle_samples, envelope_of_samples, window_envelope
from envlab.errors import InfeasibleClassError, InputError
from envlab.experiments import weighted_fixture
from envlab.profiles import WindowEnvelope

from conftest import random_pl_profile, random_weighted_set
from test_mirror import mirror_windows, weighted_sets


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
    q = envelope_of_samples(WindowEnvelope(c, Fraction(0), c), obs_ts, obs_phi)
    return envelope_of_samples(p.window, q.grid, q.values)


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
        # the slope window is the model potential that evaluates the envelope
        assert env.window == env.exact == WindowEnvelope(1, Fraction(1, 3), Fraction(3, 4))

    def test_degenerate_window_is_line(self):
        env = window_envelope(1, Fraction(1, 2), Fraction(1, 2))
        ts = np.asarray([-3.0, 0.0, 2.5])
        assert np.allclose(env(ts), 0.5 * ts + math.log(2), atol=1e-14)
        assert env.mass == 0
        assert env.window == env.exact
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
            # a PL profile's projection is evaluated by its own window
            assert p.exact is None and e1.exact == p.window
            assert e1.s_minus == e2.s_minus and e1.s_plus == e2.s_plus
            assert np.max(np.abs(e2(e1.grid) - e1.values)) < 1e-12

    def test_preserves_lelong_exactly(self, rng):
        p = random_pl_profile(rng)
        assert lelong(i_model_envelope(p)) == lelong(p)


class TestBiconjugacy:
    def test_roundtrip_on_random_pl(self, rng):
        for _ in range(20):
            p = random_pl_profile(rng)
            q = envelope_of_samples(p.window, p.grid, p.values)
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
        got = envelope_of_samples(p.window, p.grid, p.values)(ts)
        assert np.max(np.abs(got - want)) < 1e-9


def full_hull_envelope(window, obs_ts, obs_fs):
    """Reference: the lower hull of every sample, trimmed to the contact
    slice's end vertices, which its exact chord slopes decide.  The slice
    starts after the chords below lo and ends before those above hi."""
    obs_ts = np.asarray(obs_ts, dtype=float)
    obs_fs = np.asarray(obs_fs, dtype=float)
    order = np.argsort(obs_ts)
    obs_ts, obs_fs = obs_ts[order], obs_fs[order]
    ht, hf = envelopes.lower_hull(obs_ts, obs_fs)
    x, y = [Fraction(v) for v in ht.tolist()], [Fraction(v) for v in hf.tolist()]
    chords = [(y[i + 1] - y[i]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
    first = sum(s < window.lo for s in chords)
    last = sum(s <= window.hi for s in chords)
    ts = obs_ts[(obs_ts >= ht[first]) & (obs_ts <= ht[last])]
    return envelopes._hull_profile(window, ht[first:last + 1], hf[first:last + 1], ts)


def same_profile(got, want):
    assert got.grid.tobytes() == want.grid.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.s_minus, got.s_plus) == (want.s_minus, want.s_plus)
    assert float(got.a_minus).hex() == float(want.a_minus).hex()
    assert float(got.a_plus).hex() == float(want.a_plus).hex()


@st.composite
def windowed_obstacles(draw):
    """(window, ts, fs) with distinct sample points.

    Integer levels repeat, which gives flat runs and argmax ties at slope
    0.  When every point is a multiple of 1/8, a run may also lie on a
    line of slope lo or hi that is a multiple of 1/4: s·t − 1 is then
    exact, and so are the ties at that slope."""
    c = Fraction(draw(st.integers(1, 3)))
    ends = st.integers(0, 12).map(lambda i: c * Fraction(i, 12))
    lo, hi = sorted([draw(ends), draw(ends)])
    window = WindowEnvelope(c, lo, hi)
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
    return window, ts, fs


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
    Python loop over its atoms and then its cells, one `contains` each; an
    atom is on the contact set when it equals one of its samples."""
    mu = ma_measure(env)
    ts, phi = _obstacle_samples(env.class_mass, K)
    gap = np.abs(env(ts) - phi)
    scale = max(1.0, float(np.max(np.abs(phi))))
    contact = ts[gap <= envelopes.CONTACT_TOL * scale]
    leak = 0.0
    for t, w in mu.atoms:
        if t not in contact.tolist():
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


def atoms_off_samples(env, ts):
    """The atoms of env's MA measure that lie on no sample t, exactly."""
    if env.mass == 0:
        return []
    on = set(np.asarray(ts, dtype=float).tolist())
    return [(t, w) for t, w in ma_measure(env).atoms if t not in on]


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
    @example(case=(WindowEnvelope(1, Fraction(1, 2), Fraction(1, 2)),
                   [-1.0, 0.0, 1.0, 2.0], [1.0, -0.5, 0.0, 0.5]))
    # one slope, and both samples maximize s·t − f: the slice is both
    @example(case=(WindowEnvelope(1, Fraction(1, 2), Fraction(1, 2)), [0.0, 1.0], [0.0, 0.5]))
    @example(case=(WindowEnvelope(1, 0, Fraction(1, 3)),
                   [0.0, 1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 1.0, 1.0, 3.0]))
    # both orientation products underflow to 0.0 at the middle sample, which
    # lies strictly below the chord and is the conjugate's maximizer at lo
    # resp. hi: the whole-line hull once dropped it
    @example(case=(WindowEnvelope(1, 0, Fraction(1, 12)),
                   [0.0, 8.567514649370104e-278, 2.4035891656995154e-259],
                   [0.0, 0.0, 7.377083652029965e-113]))
    @example(case=(WindowEnvelope(1, Fraction(1, 12), Fraction(1, 6)),
                   [0.0, 8.567514649370104e-278, 2.4035891656995154e-259],
                   [0.0, 0.0, 7.377083652029965e-113]))
    # the last samples lie on the line of slope hi = 5/6 only to rounding:
    # decided among floats, the slice began at 3.75 and the whole line's
    # envelope at 4.0, and a_minus differed by an ulp
    @example(case=(WindowEnvelope(1, Fraction(2, 3), Fraction(5, 6)),
                   [-7.37650428889, -7.17453620984, -0.23994121022, 2.89546731811,
                    4.007255903241038, 4.67789603005, 9.872586258767356],
                   [-5.10640627949377, -4.971760893460438, -0.34869756038043764,
                    1.7415747918395623, 7.075749349249607, 2.9298605997995626,
                    7.151444536546503]))
    def test_contact_slice_matches_full_hull(self, case):
        window, ts, fs = case
        try:
            want = full_hull_envelope(window, ts, fs)
        except InputError as exc:
            # e.g. samples 1e-264 apart: the profile fails validation
            with pytest.raises(InputError, match=re.escape(str(exc))):
                envelope_of_samples(window, ts, fs)
            return
        same_profile(envelope_of_samples(window, ts, fs), want)

    def test_rounding_collinear_end_agrees_to_rounding(self):
        # the last four samples lie on the line of slope hi = 5/6 only to
        # rounding, and hi·t − f is largest, by an ulp, at t = −1.25, where
        # the slice ends.  That sample is a vertex of the exact hull: its
        # chords differ from 5/6 by an ulp, below on its left and above on
        # its right.  A float orientation test read it as on the chord from
        # −5.625 to the last sample and dropped it from the whole hull.  Both
        # hulls are exact, so the profiles have one grid and agree as
        # functions to within two float spacings at 8.
        window = WindowEnvelope(1, Fraction(2, 3), Fraction(5, 6))
        ts = [-7.25, -5.625, -4.5, -1.25, -3.8001821797990174e-130]
        fs = [3.0, -5.6875, -4.75, -2.041666666666667, -1.0]
        got = envelope_of_samples(window, ts, fs)
        want = full_hull_envelope(window, ts, fs)
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
        # one hull, of the contact slice's samples only
        assert seen == [last - first + 1] and 0 < last - first + 1 < ts.size
        same_profile(got, full_hull_envelope(u.window, ts, fs))

    @settings(max_examples=300, deadline=None)
    @given(case=windowed_obstacles(), data=st.data())
    def test_repeated_points_keep_the_smallest_value(self, case, data):
        # integer t repeat; the reference sees each t once, at its least f,
        # the first of equal ones (0.0 and −0.0) in input order
        window, _, _ = case
        n = data.draw(st.integers(1, 24))
        ts = data.draw(st.lists(st.integers(-6, 6).map(float), min_size=n, max_size=n))
        fs = data.draw(st.lists(st.integers(-3, 3).map(float) | st.floats(-20.0, 20.0),
                                min_size=n, max_size=n))
        least = {}
        for t, f in zip(ts, fs):
            if t not in least or f < least[t]:
                least[t] = f
        uts = sorted(least)
        want = full_hull_envelope(window, uts, [least[t] for t in uts])
        same_profile(envelope_of_samples(window, ts, fs), want)

    @settings(max_examples=300, deadline=None)
    @given(case=windowed_obstacles())
    def test_equals_the_max_of_its_lines(self, case):
        # the envelope is the max of the lines of slope lo, hi and each
        # clipped chord of the whole hull, at its conjugate value
        window, ts, fs = case
        got = envelope_of_samples(window, ts, fs)
        lo, hi = float(window.lo), float(window.hi)
        ht, hf = envelopes.lower_hull(np.asarray(ts), np.asarray(fs))
        with np.errstate(over="ignore"):
            chords = np.diff(hf) / np.diff(ht)
        slopes = np.union1d([lo, hi], np.clip(chords, lo, hi))
        conj = np.max(slopes[:, None] * ht[None, :] - hf[None, :], axis=1)
        probe = np.union1d(np.linspace(-60.0, 60.0, 241), ht)
        want = np.max(slopes[None, :] * probe[:, None] - conj[None, :], axis=1)
        # rounding only: the largest gap seen over 10,000 draws was one
        # float spacing of the largest magnitude in play
        scale = max(1.0, float(np.max(np.abs(fs))), float(np.max(np.abs(want))))
        assert np.max(np.abs(got(probe) - want)) <= 4 * 2.0 ** -52 * scale

    @settings(max_examples=300, deadline=None)
    @given(case=windowed_obstacles())
    # two samples off the hull, 6e-8 apart: the chord between their
    # interpolated values once broke the profile's convexity check
    @example(case=(WindowEnvelope(1, 0, Fraction(1, 12)),
                   [-0.5, -0.375, 1.0, 1.0000000596046448, 17.0],
                   [0.0, -1.0, 0.0, 0.0, 0.0]))
    def test_atoms_sit_on_samples(self, case):
        window, ts, fs = case
        assert atoms_off_samples(envelope_of_samples(window, ts, fs), ts) == []

    def test_non_finite_samples_raise(self):
        with pytest.raises(InputError, match="finite"):
            envelope_of_samples(WindowEnvelope(1, 0, 1), [0.0, 1.0], [0.0, np.nan])


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
            composed = envelope_of_samples(p.window, q.grid, q.values)
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

    def test_no_leak_where_a_short_whole_line_grid_is_padded(self):
        # the envelope's 60 atoms, 58 of them beyond K's grid of [−1, 1],
        # all lie on the padded samples that `weighted_envelope` hulls;
        # checked against K's own samples alone, 0.3727 of the mass leaks
        K = WeightedSet.whole(grid=np.linspace(-1, 1, 33), v=lambda t: 0.3 * np.exp(-t ** 2))
        leak, total = contact_leakage(weighted_envelope(base_profile(1), K), K)
        assert leak == 0.0
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("offset,leak", [(0.0, 0.0), (1e-12, 1.0)])
    def test_an_atom_off_every_sample_leaks(self, offset, leak):
        # one kink of mass 1 beside the sample t0 = 0 of [−1, 1], where the
        # profile touches the obstacle: on the sample it is in contact, and
        # 1e-12 off it (within the old 1e-9 match) it is not
        K = WeightedSet.interval(-1.0, 1.0)
        ts, phi = _obstacle_samples(1, K)
        t0, f0 = ts[64], phi[64]
        assert t0 == 0.0
        p = ConvexProfile(1, [t0 - 1, t0 + offset, t0 + 1], [f0, f0, f0 + 1 - offset],
                          0, 1, f0, f0 - t0 - offset)
        assert ma_measure(p).atoms == ((t0 + offset, 1.0),)
        assert contact_leakage(p, K) == (leak, 1.0)
        assert loop_contact_leakage(p, K) == (leak, 1.0)

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


class TestFullWindowBumps:
    # c = 3/2 on the whole line with window [0, c] and a bump of amplitude a
    # at 9/8: the conjugate's round trip once placed two switches out of
    # order (a = −0.225, −0.15) or a chord past the tail slope (a = −0.2)
    @pytest.mark.parametrize("a", [-0.225, -0.2, -0.15])
    def test_envelope_has_no_leak(self, a):
        u = window_envelope(Fraction(3, 2), 0, 0)
        K = WeightedSet.whole(grid=np.linspace(-8, 8, 129),
                              v=lambda t: a * np.exp(-(np.asarray(t) - 1.125) ** 2))
        env = weighted_envelope(u, K)
        assert (env.s_minus, env.s_plus) == (0, Fraction(3, 2))
        assert contact_leakage(env, K)[0] == 0.0
        ts, _ = _obstacle_samples(u.class_mass, K)
        assert atoms_off_samples(env, ts) == []


@settings(max_examples=300, deadline=None)
@given(u=mirror_windows(), K=weighted_sets())
def test_weighted_envelope_atoms_sit_on_samples(u, K):
    ts, _ = _obstacle_samples(u.class_mass, K)
    assert atoms_off_samples(weighted_envelope(u, K), ts) == []


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
