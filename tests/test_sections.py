import inspect
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envlab import (
    ConvexProfile,
    WeightedSet,
    admissible_indices,
    admissible_set,
    annulus_area_measure,
    base_profile,
    bergman,
    bergman_approximant,
    bm_rate,
    circle_atom,
    donaldson,
    donaldson_functional,
    fs_measure,
    h0,
    i_model_envelope,
    lelong,
    limit_mass,
    measure_integral,
    reference_basis,
    section_basis,
)
from envlab.envelopes import window_envelope
from envlab.errors import (
    DivergentIntegralError,
    InputError,
    NoSectionsError,
)
from envlab import experiments, profiles, sections, toric
from envlab.basefun import fs_conjugate, logistic_density, logit, sigmoid, softplus
from envlab.experiments import ExperimentConfig, run_volume, weighted_fixture
from envlab.measures import RadialMeasure
from envlab.profiles import WindowEnvelope, _pad_to_asymptotes
from envlab.quadrature import (
    GL_NODES,
    LOG_TINY,
    TINY,
    exp_normal,
    gauss_cells,
    refine_breakpoints,
)
from envlab.sections import (
    _NormPlan,
    _fs_beta_cdfs,
    _log_sups2,
    approximant_lower_bound_constant,
    counting_window_holds,
    log_norm2,
    log_sup2,
    section_counts,
)


THIRD_QUARTER = window_envelope(1, Fraction(1, 3), Fraction(1, 4))


def untwisted(*parts):
    """The id "1-0-…" a route comparison had while β took a twist, rank 1
    and shift d = 0, so that each case keeps its name."""
    return "-".join(map(str, (1, 0) + parts))


def oracle_count(k, c, nu0, nu_inf, d=0):
    """Independent index count by direct rational comparisons."""
    m = math.floor(k * c) + d
    return sum(
        1 for j in range(0, m + 1)
        if Fraction(j + 1) > k * nu0 and Fraction(m - j + 1) > k * nu_inf
    )


class TestAdmissibleSet:
    def test_spec_window(self):
        m, J = admissible_indices(12, 1, Fraction(1, 3), Fraction(1, 4))
        assert (m, J) == (12, list(range(4, 10)))

    def test_minimal_singularity_keeps_everything(self):
        for k in (1, 7, 30):
            m, J = admissible_indices(k, 1, 0, 0)
            assert J == list(range(0, m + 1))

    def test_overfilled_class_is_empty(self):
        _, J = admissible_indices(10, 1, Fraction(3, 5), Fraction(1, 2))
        assert J == []

    def test_against_bruteforce_oracle(self):
        params = [
            (Fraction(1), Fraction(1, 3), Fraction(1, 4), 0),
            (Fraction(1), Fraction(1, 3), Fraction(1, 4), 1),
            (Fraction(1), Fraction(1, 3), Fraction(1, 4), -1),
            (Fraction(3, 2), Fraction(2, 7), Fraction(1, 5), 0),
            (Fraction(141421356, 10 ** 8), Fraction(0), Fraction(0), 0),
        ]
        for c, nu0, nu_inf, d in params:
            for k in range(1, 120):
                _, J = admissible_indices(k, c, nu0, nu_inf, d)
                assert len(J) == oracle_count(k, c, nu0, nu_inf, d), (c, k, d)

    def test_boundary_exponent_excluded(self):
        # k*nu0 integral: the equality index diverges and is excluded
        _, J = admissible_indices(3, 1, Fraction(1, 3), 0)
        assert J[0] == 1  # j=0 has j+1 = 1 = k*nu0, excluded


class TestH0:
    def test_spec_counts(self):
        assert h0(24, THIRD_QUARTER) == 11
        assert h0(12, THIRD_QUARTER, 1) == 7

    def test_count_is_rank_times_index_set(self):
        # h0 takes the count from the ends of the window; J and the oracle
        # enumerate it
        cases = [(THIRD_QUARTER, (-1, 0, 1), range(1, 201)),
                 (window_envelope(Fraction(3, 2), Fraction(2, 7), Fraction(1, 5)),
                  (-4, -1, 0, 1), range(1, 120)),
                 (base_profile(Fraction(141421356, 10 ** 8)), (-4, -1, 0, 1),
                  range(1, 120))]
        for u, shifts, ks in cases:
            c, nu0, nu_inf = u.class_mass, u.s_minus, u.class_mass - u.s_plus
            for d in shifts:
                for k in ks:
                    _, J = admissible_indices(k, c, nu0, nu_inf, d)
                    assert len(J) == oracle_count(k, c, nu0, nu_inf, d), (c, d, k)
                    assert h0(k, u, d) == len(J), (c, d, k)

    def test_count_at_huge_k_is_closed_form(self):
        # J = [⌊k/3⌋, m − ⌊k/4⌋] with m = k + d; J is never built
        k = 10 ** 12
        assert h0(k, THIRD_QUARTER) == 416_666_666_668
        for d in (0, 1, -1):
            count = h0(k, THIRD_QUARTER, d)
            assert count == k + d - k // 4 - k // 3 + 1
            assert counting_window_holds((k,), (count,), 1, Fraction(1, 3), Fraction(1, 4), d)[0]

    def test_counting_bound(self):
        # J = integers in the open interval (k/3 − 1, m + 1 − k/4), m = k + d,
        # of length L = k·mass + d + 2 (c = 1, so {k·c} = 0).  An open
        # interval of length L > −1 holds at least L − 1 and fewer than L + 1
        # integers: d + 1 ≤ h0 − k·mass < d + 3.
        lim = limit_mass(1, Fraction(1, 3), Fraction(1, 4))
        assert lim == Fraction(5, 12)
        for d in (-1, 0, 1):
            for k in range(1, 201):
                count = h0(k, THIRD_QUARTER, d)
                excess = count - k * lim
                assert d + 1 <= excess < d + 3, (d, k)
                err = abs(Fraction(count, k) - lim)
                assert err < Fraction(abs(d) + 3, k)

    def test_counting_gate_matches_oracle(self):
        c, nu0, nu_inf = Fraction(1), Fraction(1, 3), Fraction(1, 4)
        ks = range(1, 201)
        for d in (-1, 0, 1):
            counts = np.array([oracle_count(k, c, nu0, nu_inf, d) for k in ks])
            assert counting_window_holds(ks, counts, c, nu0, nu_inf, d).all(), d
            # the window is two wide: a count two off is rejected
            for off in (-2, 2):
                assert not counting_window_holds(
                    ks, counts + off, c, nu0, nu_inf, d).any(), (d, off)

    def test_counting_gate_fractional_class(self):
        # {k·c} ≠ 0 moves the window, and d = −4 empties J at small k
        for c, nu0, nu_inf in ((Fraction(3, 2), Fraction(2, 7), Fraction(1, 5)),
                               (Fraction(141421356, 10 ** 8), Fraction(0), Fraction(0))):
            ks = range(1, 120)
            for d in (-4, -1, 0, 1):
                counts = [oracle_count(k, c, nu0, nu_inf, d) for k in ks]
                assert counting_window_holds(ks, counts, c, nu0, nu_inf, d).all(), (c, d)


def py_window(k, c, nu0, nu_inf, d):
    """Reference (m, j_min, j_max) for one k, in Python integers."""
    m = k * c.numerator // c.denominator + d
    j_min = max(0, k * nu0.numerator // nu0.denominator)
    j_max = min(m, m - k * nu_inf.numerator // nu_inf.denominator)
    return m, j_min, j_max


def py_window_holds(k, count, c, nu0, nu_inf, d):
    """Reference counting-window verdict for one k: q·(n − 1) < q·L ≤ q·(n + 1)
    in Python integers, with q = q₀·q_∞."""
    m, _, _ = py_window(k, c, nu0, nu_inf, d)
    q = nu0.denominator * nu_inf.denominator
    qL = q * (m + 2) - k * (nu0.numerator * nu_inf.denominator
                            + nu_inf.numerator * nu0.denominator)
    if qL <= -q:
        return count == 0
    return q * (count - 1) < qL <= q * (count + 1)


def fractions(max_num, max_den=12):
    return st.builds(Fraction, st.integers(0, max_num), st.integers(1, max_den))


class TestArrayCounts:
    @settings(max_examples=60, deadline=None)
    @given(c=fractions(36).filter(lambda c: c > 0), nu0=fractions(12),
           nu_inf=fractions(12), d=st.integers(-3, 2),
           ks=st.one_of(
               st.integers(1, 600).map(lambda hi: range(1, hi + 1)),
               st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=20,
                        unique=True).map(sorted)))
    def test_counts_and_verdicts_match_python_ints(self, c, nu0, nu_inf, d, ks):
        want = []
        for k in ks:
            _, j_min, j_max = py_window(k, c, nu0, nu_inf, d)
            want.append(max(0, j_max - j_min + 1))
        got = section_counts(ks, c, nu0, nu_inf, d)
        assert got.dtype == np.int64 and got.tolist() == want
        # the true counts, and counts moved by one or two
        for off in (0, -1, 1, -2, 2):
            verdicts = counting_window_holds(ks, got + off, c, nu0, nu_inf, d)
            assert verdicts.tolist() == [
                py_window_holds(k, n + off, c, nu0, nu_inf, d)
                for k, n in zip(ks, want)], off

    @pytest.mark.parametrize("k", [2 ** 62, 10 ** 19])
    def test_huge_k_raises_before_allocating(self, k):
        cfg = ExperimentConfig("volume", "third-quarter", k=[10], sweep_max=k)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="int64"):
                run_volume(cfg)
            with pytest.raises(InputError, match="int64"):
                counting_window_holds((k,), (0,), 1, Fraction(1, 3), Fraction(1, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_numpy_k_sequence_raises_past_int64(self):
        # the bounds are Python ints even when the k come as int64
        with pytest.raises(InputError, match="int64"):
            section_counts(np.array([2 ** 62, 2 ** 63 - 1]), 1, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(c=fractions(36).filter(lambda c: c > 0),
           ends=st.lists(fractions(36), min_size=2, max_size=2),
           ks=st.one_of(
               st.integers(1, 600).map(lambda hi: range(1, hi + 1)),
               st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=20,
                        unique=True).map(sorted)))
    @example(c=Fraction(141421356, 10 ** 8), ends=[Fraction(1, 2), Fraction(1)],
             ks=range(1, 601))
    def test_untwisted_windows_are_never_empty(self, c, ends, ks):
        # 0 ≤ lo ≤ hi ≤ c: at d = 0, |J| − 1 = ⌊k·c⌋ − ⌊k·(c − hi)⌋ − ⌊k·lo⌋ ≥ 0,
        # which the norms, β and the approximants take for granted
        lo, hi = sorted(min(e, c) for e in ends)
        assert np.all(section_counts(ks, c, lo, c - hi, 0) >= 1)


def test_only_the_counting_entries_take_a_twist():
    # the twist by O(d) belongs to the count: the norms, β and the
    # Donaldson functional are those of L^k itself
    takes_d = {name for mod in (sections, toric) for name in mod.__all__
               if "d" in inspect.signature(getattr(mod, name)).parameters}
    assert takes_d == {"admissible_indices", "section_counts", "h0",
                       "counting_window_holds", "h0_toric"}


class TestNorms:
    def test_beta_function_identity(self):
        b = base_profile(1)
        K, nu = WeightedSet.whole(), fs_measure()
        k = 20
        for j in (0, 3, 10, 20):
            want = math.factorial(j) * math.factorial(k - j) / math.factorial(k + 1)
            assert log_norm2(j, k, b, K, nu) == pytest.approx(math.log(want), abs=1e-10)

    def test_symmetry(self):
        b = base_profile(1)
        K, nu = WeightedSet.whole(), fs_measure()
        for j in (2, 5):
            assert log_norm2(j, 11, b, K, nu) == pytest.approx(
                log_norm2(11 - j, 11, b, K, nu), abs=2e-10)

    def test_constant_weight_shift(self):
        b = base_profile(1)
        nu = fs_measure()
        k = 9
        n0 = log_norm2(4, k, b, WeightedSet.whole(), nu)
        n1 = log_norm2(4, k, b, WeightedSet.whole(v=lambda t: np.full_like(t, 0.3)), nu)
        assert n1 == pytest.approx(n0 - k * 0.3, abs=1e-10)

    def test_scipy_quad_oracle_with_weight(self):
        from scipy.integrate import quad

        u = THIRD_QUARTER
        K = WeightedSet.whole(v=lambda t: 0.2 * np.exp(-t * t))
        nu = fs_measure()
        k, j = 15, 7
        got = math.exp(log_norm2(j, k, u, K, nu))

        def integrand(t):
            ta = np.asarray([t])
            e = j * t - (k + 0.0) * np.log1p(np.exp(-abs(t))) - max(t, 0.0) * k \
                - k * 0.2 * np.exp(-t * t)
            return float(np.exp(e) * np.exp(-abs(t)) / (1 + np.exp(-abs(t))) ** 2)

        want, _ = quad(integrand, -42, 42, limit=800)
        assert got == pytest.approx(want, rel=1e-8)

    def test_singular_weight_divergence(self):
        # boundary index under the singular weight diverges
        u = window_envelope(1, Fraction(1, 3), 0)
        K, nu = WeightedSet.whole(), fs_measure()
        with pytest.raises(DivergentIntegralError):
            log_norm2(0, 3, u, K, nu, singular_weight=True)
        # the admissible indices stay finite
        assert math.isfinite(log_norm2(1, 3, u, K, nu, singular_weight=True))

    def test_sup_norm_single_circle(self):
        b = base_profile(1)
        K = WeightedSet.circles([0.0])
        for k, j in ((8, 0), (8, 5), (12, 12)):
            assert log_sup2(j, k, b, K) == pytest.approx(-k * math.log(2), abs=2e-12)

    def test_sup_dominates_l2(self):
        b = base_profile(1)
        K = WeightedSet.interval(-1.0, 1.0)
        nu = annulus_area_measure()
        k = 10
        for j in range(0, 11):
            assert log_sup2(j, k, b, K) >= log_norm2(j, k, b, K, nu) - 2e-12

    def test_weight_monotonicity(self):
        b = base_profile(1)
        K1 = WeightedSet.interval(-1.0, 1.0)
        K2 = K1.add_weight(lambda t: np.ones_like(t), 0.2)
        for j in (0, 4, 9):
            assert log_sup2(j, 9, b, K1) >= log_sup2(j, 9, b, K2)


def loop_refine(bp, k, extra=None):
    """Per-cell `np.linspace` refinement, as one loop iteration per cell."""
    bp = np.asarray(bp, dtype=float)
    if extra is not None:
        inner = np.asarray(extra, dtype=float)
        bp = np.union1d(bp, inner[(inner > bp[0]) & (inner < bp[-1])])
    width = min(0.5, 4.0 / np.sqrt(1.0 + float(k)))
    out = [bp[0]]
    for a, b in zip(bp[:-1], bp[1:]):
        out.extend(np.linspace(a, b, max(1, int(np.ceil((b - a) / width))) + 1)[1:])
    return np.asarray(out)


def index_exponent(j, k, m, u, K, singular):
    """t ↦ j·t − m·f_FS − k·v (− k·(u − c·f_FS)), evaluated per index."""
    def E(t):
        t = np.asarray(t, dtype=float)
        out = float(j) * t - float(m) * softplus(t) - float(k) * K.weight_at(t)
        if singular:
            out = out - float(k) * (u(t) - float(u.class_mass) * softplus(t))
        return out
    return E


def lse(vals):
    vals = np.asarray(vals, dtype=float)
    mx = np.max(vals) if vals.size else -np.inf
    if not np.isfinite(mx):
        return -np.inf
    return float(mx + np.log(np.sum(np.exp(vals - mx))))


def kink_breaks(u, K, nu):
    """The norm integrand's kinks on ν's support, ends included: ν's ends;
    K's component ends, and its sample nodes where its weight is their
    nonzero piecewise-linear interpolant; u's contact points c·σ(t) = lo
    and = hi when it evaluates as a `WindowEnvelope`, else its grid."""
    lo, hi = nu.breakpoints[0], nu.breakpoints[-1]
    pts = [t for a, b, _, _ in K.components for t in (a, b)]
    ts, vs = K.sample_points()
    if K.v_fn is None and np.any(vs):
        pts.extend(ts)
    w = u.exact
    if isinstance(w, WindowEnvelope):
        c = float(w.c)
        pts.extend(float(logit(s / c)) for s in (float(w.lo), float(w.hi)) if 0 < s < c)
    else:
        pts.extend(u.grid)
    inner = np.asarray(pts, dtype=float)
    return np.union1d([lo, hi], inner[(inner > lo) & (inner < hi)])


def lse_by_cell(vals):
    """log Σ exp of the Gauss terms vals, max-shifted, with np.exp on every
    entry: summed by cell of GL_NODES nodes, then over all the cells."""
    mx = np.max(vals)
    if not np.isfinite(mx):
        return -np.inf
    with np.errstate(under="ignore"):
        cells = np.exp(vals - mx).reshape(-1, GL_NODES).sum(axis=1)
    return float(mx + np.log(np.sum(cells)))


def per_index_log_norm2(k, m, u, K, nu, singular=False):
    """j ↦ log N² of z^j, each index with its own exponent and reduction.

    The cells are `kink_breaks` refined once with `loop_refine`, since
    `tests/test_quadrature.py` checks the refinement itself.
    """
    breaks = ts = None
    if nu.breakpoints.size:
        breaks = kink_breaks(u, K, nu)
        ts, ws = gauss_cells(loop_refine(breaks, k))
        dens = np.asarray(nu.density_fn(ts))
        with np.errstate(divide="ignore"):
            log_dens = np.where(dens > 0, np.log(np.maximum(dens, 1e-320)), -np.inf)
    whole_line = breaks is not None and breaks[0] <= -40 + 1e-9 and breaks[-1] >= 40 - 1e-9

    def log_n2(j):
        E = index_exponent(j, k, m, u, K, singular)
        pieces = [-np.inf]
        if ts is not None:
            pieces[0] = lse_by_cell(E(ts) + log_dens + np.log(ws))
        for t, w in nu.atoms:
            pieces.append(float(E(np.asarray([t]))[0]) + np.log(w))
        if whole_line:
            lo, hi = Fraction(j), Fraction(j - m)
            if singular:
                lo, hi = lo - k * u.s_minus, hi + k * (u.class_mass - u.s_plus)
            for edge, rate in ((breaks[0], float(lo + 1)), (breaks[-1], -float(hi - 1))):
                pieces.append(float(E(edge)) + float(np.log(nu.density_fn(edge)))
                              - np.log(rate))
        return lse(np.asarray(pieces))

    return log_n2


def plan_log_norms2(k, u, K, nu, singular=False):
    """(J, log N² of each z^j from one `_NormPlan` on the norms' cells),
    bypassing the closed form."""
    basis = admissible_set(k, u)
    plan = _NormPlan(k, basis.m, u, K, nu, singular, sections._plan_cells(k, u, K, nu))
    return basis, plan.log_norms2(np.asarray(basis.J, dtype=np.int64))


class TestSharedPlan:
    """Norms from one shared quadrature plan equal per-index quadrature bit for bit.

    The plan is built directly: on the FS fixtures `section_basis` takes
    the closed form instead.  At the larger k most cells lie far below
    each index's peak, so the plan skips them.  Every index is checked,
    so the seams between the plan's blocks of indices are too.
    """

    @pytest.mark.parametrize("fixture,k", [
        ("vtheta-fs", 200), ("third-quarter-fs", 30), ("annulus-area", 12),
        ("annulus-atom", 12), ("bump-fs", 25), ("bump-fs", 120), ("bump-fs", 400),
    ])
    def test_log_norms_match_per_index_quadrature(self, fixture, k):
        u, K, nu = weighted_fixture(fixture)
        basis, logs = plan_log_norms2(k, u, K, nu)
        log_n2 = per_index_log_norm2(k, basis.m, u, K, nu)
        assert np.array_equal(logs, [log_n2(j) for j in basis.J])
        if k == 400:
            # the indices span several blocks of (index × node) entries
            n_nodes = (refine_breakpoints(kink_breaks(u, K, nu), k).size - 1) * 32
            assert len(basis.J) > 3 * (sections.KERNEL_BLOCK // n_nodes)

    @pytest.mark.parametrize("block", [1, 2 ** 24])
    def test_any_block_size_matches_per_index_quadrature(self, block, monkeypatch):
        # one index per block, and all of them in one block: on [−1, 1] at
        # k = 1000, z^0's and z^1000's peaks lie at opposite ends, so the
        # nodes one row skips are live in another row of the same block;
        # bump-fs, the plan energy_bump's norms take, spans several blocks at
        # k = 400 by default
        monkeypatch.setattr(sections, "KERNEL_BLOCK", block)
        for fixture, k in (("annulus-area", 1000), ("bump-fs", 400)):
            u, K, nu = weighted_fixture(fixture)
            basis, logs = plan_log_norms2(k, u, K, nu)
            log_n2 = per_index_log_norm2(k, basis.m, u, K, nu)
            assert np.array_equal(logs, [log_n2(j) for j in basis.J]), fixture

    @pytest.mark.parametrize("k", [12, 400])
    def test_singular_weight_matches_per_index_quadrature(self, k):
        u, K, nu = weighted_fixture("third-quarter-fs")
        basis, logs = plan_log_norms2(k, u, K, nu, singular=True)
        log_n2 = per_index_log_norm2(k, basis.m, u, K, nu, singular=True)
        assert np.array_equal(logs, [log_n2(j) for j in basis.J])

    @pytest.mark.parametrize("k", [10, 30])
    def test_singular_weight_of_a_pl_profile_against_quad(self, k):
        # third-quarter sampled at (1/3 + ℤ) as a PL profile, without its
        # evaluator: no closed form applies, and the plan breaks at u's
        # grid, which refinement alone would not reach.  Each index against
        # scipy's quad over [−120, 120] with the same breakpoints: 2.6e-15
        # relative at most, 4.0e-15 with the grid at 0.1 + ℤ or 0.7 + ℤ
        # (past ±60 the integrand would hold 9e-14 of the norm)
        from scipy.integrate import quad

        _, K, nu = weighted_fixture("third-quarter-fs")
        w = window_envelope(1, Fraction(1, 3), Fraction(1, 4), np.arange(-40, 40) + 1 / 3)
        u = ConvexProfile(w.class_mass, w.grid, w.values, w.s_minus, w.s_plus,
                          w.a_minus, w.a_plus)
        basis = section_basis(k, u, K, nu, singular_weight=True)
        m = basis.m
        for j, log_n2 in zip(basis.J, basis.log_norms2):
            def integrand(t, j=j, log_n2=log_n2):
                e = (j * t - m * float(softplus(t))
                     - k * (float(u(t)) - float(softplus(t))) - log_n2)
                return math.exp(e) * float(logistic_density(t))

            ratio = quad(integrand, -120, 120, points=u.grid, limit=500,
                         epsabs=0, epsrel=2e-14)[0]
            assert abs(ratio - 1.0) <= 1.6e-14

    @pytest.mark.parametrize("fixture,k", [
        ("annulus-area", 12), ("annulus-atom", 12), ("bump-fs", 25),
    ])
    def test_basis_without_closed_form_is_the_plan(self, fixture, k):
        u, K, nu = weighted_fixture(fixture)
        _, logs = plan_log_norms2(k, u, K, nu)
        assert np.array_equal(section_basis(k, u, K, nu).log_norms2, logs)

    def test_sup_norms_match_per_index_scan(self):
        # the hull walk against the exact max of j·t − G(t) over the same
        # scan, G = −E_0 the index-free terms, taken in Fractions
        u = THIRD_QUARTER
        Ks = (WeightedSet.interval(-1.0, 1.0, v=lambda t: 0.1 * t * t),
              WeightedSet.interval(-1.0, 1.0, v=0.1 * np.linspace(-1, 1, 129) ** 2),
              WeightedSet.circles([-1.0, 0.5, 2.0], [0.1, 0.0, 0.3]),
              WeightedSet.whole(v=lambda t: 0.2 * np.exp(-t * t)))
        for K, k, singular in itertools.product(Ks, (20, 200), (False, True)):
            basis = admissible_set(k, u)
            js = basis.J
            if K.whole_space and singular:
                # E_j grows at −∞ for j < k·ν₀ and at +∞ for j > m − k·ν_∞
                js = [j for j in js if k * u.s_minus <= j
                      <= basis.m - k * (u.class_mass - u.s_plus)]
            assert js
            if K.whole_space:
                ts = K.sample_points()[0]
                scan = loop_refine(_pad_to_asymptotes(ts), k, np.concatenate([u.grid, ts]))
            else:
                scan = np.concatenate([[a] if a == b else loop_refine(grid, k, u.grid)
                                       for a, b, grid, _ in K.components])
            G = -index_exponent(0, k, basis.m, u, K, singular)(scan)
            got = _log_sups2(k, basis.m, u, K, js, singular)
            for j, val in zip(js, got):
                # only points within far more than rounding of the float
                # max can hold the exact one
                approx = j * scan - G
                near = np.flatnonzero(
                    approx >= np.max(approx) - 1e-9 * (1 + np.max(np.abs(approx))))
                want = float(max(j * Fraction(scan[i]) - Fraction(G[i]) for i in near))
                assert abs(val - want) <= np.spacing(abs(want)), (K, k, singular, j)

    def test_sup_raises_where_the_weight_grows(self):
        # third-quarter at k = 12 under the singular weight: E_j has slope
        # j − 4 at −∞ and j − 9 at +∞, so j = 3 and j = 10 grow
        K = WeightedSet.whole()
        assert all(np.isfinite(log_sup2(j, 12, THIRD_QUARTER, K, singular_weight=True))
                   for j in (4, 9))
        for j, end in ((3, "-inf"), (10, "[+]inf")):
            with pytest.raises(DivergentIntegralError, match=end):
                log_sup2(j, 12, THIRD_QUARTER, K, singular_weight=True)

    def test_single_index_is_the_basis_entry(self):
        u, K, nu = weighted_fixture("bump-fs")
        basis = section_basis(20, u, K, nu)
        for i, j in enumerate(basis.J):
            assert log_norm2(j, 20, u, K, nu) == basis.log_norms2[i]


def norm_plan_cells(monkeypatch, k, u, K, nu, singular=False):
    """The cells `_log_norms2` gives its plan, with ν's density wrapped so
    that no closed form applies."""
    seen = []
    real = sections._NormPlan
    with monkeypatch.context() as patch:
        patch.setattr(sections, "_NormPlan",
                      lambda *args: seen.append(args[-1]) or real(*args))
        basis = admissible_set(k, u)
        sections._log_norms2(k, basis.m, basis.J, u, K, quadrature_route(nu), singular)
    assert len(seen) == 1
    return seen[0]


class TestPlanCells:
    """The norm plan's cells are the integrand's kinks refined at k, not
    ν's storage grid."""

    @pytest.mark.parametrize("k", [100, 400])
    def test_storage_nodes_are_no_cell_ends_on_the_fs_volume(self, k, monkeypatch):
        # on vtheta-fs the integrand has no kink inside (−40, 40); the
        # refinement's own ends i·80/n − 40 with n = 201 and 401 cells miss
        # every 1/16 node
        u, K, nu = weighted_fixture("vtheta-fs")
        cells = norm_plan_cells(monkeypatch, k, u, K, nu)
        storage = nu.breakpoints[1:-1]
        assert storage.size == 1279
        assert not np.isin(storage, cells).any()
        assert np.array_equal(cells, refine_breakpoints(nu.breakpoints[[0, -1]], k))

    @pytest.mark.parametrize("singular", [False, True])
    def test_window_contact_points_are_cell_ends(self, singular, monkeypatch):
        u, K, nu = weighted_fixture("third-quarter-fs")
        contacts = [float(logit(1 / 3)), float(logit(3 / 4))]
        cells = norm_plan_cells(monkeypatch, 60, u, K, nu, singular)
        assert np.isin(contacts, cells).all()
        assert np.array_equal(cells, refine_breakpoints(
            [-40.0, contacts[0], contacts[1], 40.0], 60))

    def test_sampled_nonzero_weight_keeps_its_nodes(self, monkeypatch):
        u, nu = base_profile(1), annulus_area_measure()
        sampled = WeightedSet.interval(-1.0, 1.0, v=0.1 * np.linspace(-1, 1, 129) ** 2)
        exact = WeightedSet.interval(-1.0, 1.0, v=lambda t: 0.1 * t * t)
        nodes = sampled.components[0][2]
        assert np.isin(nodes, norm_plan_cells(monkeypatch, 12, u, sampled, nu)).all()
        # as a callable, or as zero samples, the weight has no kink inside
        for K in (exact, WeightedSet.interval(-1.0, 1.0)):
            cells = norm_plan_cells(monkeypatch, 12, u, K, nu)
            assert np.array_equal(cells, refine_breakpoints([-1.0, 1.0], 12))

    @pytest.mark.parametrize("fixture", [
        "vtheta-fs", "third-quarter-fs", "annulus-area", "annulus-atom", "bump-fs"])
    def test_beta_cells_are_the_measure_breakpoints(self, fixture):
        _, K, nu = weighted_fixture(fixture)
        breaks = sections._norm_breaks(K, nu)
        if nu.breakpoints.size:
            assert np.array_equal(breaks, nu.breakpoints)
        else:
            assert breaks is None

    def test_beta_cells_keep_a_sampled_weight_nodes(self):
        # nodes off ν's 1/64 grid: the piecewise-linear weight kinks at each
        # of them, the callable one only at K's ends
        nu = annulus_area_measure()
        grid = np.linspace(-0.71, 0.71, 8)
        sampled = WeightedSet(((-0.71, 0.71, grid, 0.1 * grid ** 2),))
        exact = WeightedSet(((-0.71, 0.71, grid, 0.1 * grid ** 2),), v_fn=lambda t: 0.1 * t * t)
        assert not np.isin(grid, nu.breakpoints).any()
        assert np.array_equal(sections._norm_breaks(sampled, nu),
                              np.union1d(nu.breakpoints, grid))
        assert np.array_equal(sections._norm_breaks(exact, nu),
                              np.union1d(nu.breakpoints, [-0.71, 0.71]))


def mp_log_norms2(k, u, singular=False):
    """log N² over u's admissible set in mpmath: Beta values under the
    smooth convention; under the singular weight `betainc` for the middle
    and quadrature, split at x/2, for each tangent-line tail."""
    import mpmath as mp

    def mpq(q):
        return mp.mpf(q.numerator) / q.denominator

    basis = admissible_set(k, u)
    m = basis.m
    w = u.exact
    c, lo, hi = mpq(w.c), mpq(w.lo), mpq(w.hi)
    B = m - k * c

    def g_star(s):
        return s * mp.log(s / c) + (c - s) * mp.log((c - s) / c)

    out = []
    for j in basis.J:
        if not singular:
            out.append(mp.log(mp.beta(j + 1, m - j + 1)))
            continue
        total = mp.betainc(j + 1, m - j + 1, lo / c, hi / c)
        for x, A, s in ((lo / c, j - k * lo, lo), (1 - hi / c, m - j - k * (c - hi), hi)):
            if x > 0:
                tail = mp.quad(lambda y: y ** A * (1 - y) ** (B - A), [0, x / 2, x])
                total += mp.exp(k * g_star(s)) * tail
        out.append(mp.log(total))
    return basis, np.asarray([float(v) for v in out])


SQRT2 = Fraction(141421356, 10 ** 8)
SQRT2_WINDOW = window_envelope(SQRT2, Fraction(1, 2), SQRT2 - 1)   # slopes [1/2, 1]
TQ_FS = (THIRD_QUARTER, WeightedSet.whole(), fs_measure())


class TestClosedFormNorms:
    """v = 0 on K = X against the FS volume: log N² in closed form."""

    @pytest.mark.parametrize("u,k,singular", [
        (THIRD_QUARTER, 12, True),
        (THIRD_QUARTER, 60, True),
        (SQRT2_WINDOW, 40, True),       # {k·c} ≠ 0
        (window_envelope(1, Fraction(1, 3), 0), 30, True),     # x₁ = 1
        (window_envelope(1, 0, Fraction(1, 4)), 30, True),     # x₀ = 0
        (base_profile(1), 500, False),
    ], ids=["tq-12", "tq-60", "sqrt2-40", "left-tail-only", "right-tail-only",
            "vtheta-500-smooth"])
    def test_against_mpmath(self, u, k, singular):
        import mpmath as mp

        with mp.workdps(30):
            basis, want = mp_log_norms2(k, u, singular)
        if u is SQRT2_WINDOW:
            assert (k * SQRT2).denominator != 1
        got = section_basis(k, u, WeightedSet.whole(), fs_measure(),
                            singular_weight=singular).log_norms2
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_log_tail_doubles_its_term_count(self):
        # b2 = 14 at x = 1/3: the terms (14)ₙ/(a1 + 1)ₙ·xⁿ first grow, so the
        # log ε / log x = 38 terms the count starts at leave out more than
        # 2⁻⁵³ of the sum, and the count doubles
        import mpmath as mp

        a1, b2, x = np.arange(1.0, 27.0), 14.0, 1 / 3
        got = sections._log_tail(a1, b2, x)
        n0 = math.ceil(-60.0 * math.log(2.0) / math.log(x))
        with mp.workdps(30):
            xm = mp.mpf(x)
            for a, g in zip(a1, got):
                series = mp.hyp2f1(b2, 1, a + 1, xm)
                head = mp.fsum(mp.rf(b2, n) / mp.rf(a + 1, n) * xm ** n for n in range(n0 + 1))
                if a == 1:
                    assert 1 - head / series > 2.0 ** -53
                want = (a * mp.log(xm) + (b2 - a) * mp.log(1 - xm) - mp.log(a)
                        + mp.log(series))
                assert abs(g - want) <= 1e-14 * max(1.0, abs(want))

    # ids "u<i>-<k>-0-<singular>": the names these cases had while the
    # norms took a twist d, here 0
    @pytest.mark.parametrize("u,k,singular", [
        pytest.param(base_profile(1), 60, False, id="u0-60-0-False"),
        pytest.param(THIRD_QUARTER, 60, False, id="u1-60-0-False"),
        pytest.param(THIRD_QUARTER, 12, True, id="u2-12-0-True"),
        pytest.param(THIRD_QUARTER, 60, True, id="u3-60-0-True"),
        pytest.param(THIRD_QUARTER, 45, True, id="u4-45-0-True"),
        pytest.param(SQRT2_WINDOW, 40, True, id="u5-40-0-True"),
    ])
    def test_agrees_with_the_plan(self, u, k, singular):
        K, nu = WeightedSet.whole(), fs_measure()
        _, want = plan_log_norms2(k, u, K, nu, singular)
        got = section_basis(k, u, K, nu, singular_weight=singular).log_norms2
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("u,k", [
        (window_envelope(1, Fraction(99, 100), 0), 300),      # x₀ = 0.99
        (window_envelope(1, 1, 0), 5),                        # x₀ = 1
        (window_envelope(Fraction(1, 2), 0, Fraction(1, 2)), 5),   # x₁ = 0
    ], ids=["window-end-near-c", "window-at-c", "window-at-0"])
    def test_plan_where_the_series_does_not_apply(self, u, k):
        K, nu = WeightedSet.whole(), fs_measure()
        _, want = plan_log_norms2(k, u, K, nu, singular=True)
        got = section_basis(k, u, K, nu, singular_weight=True).log_norms2
        assert np.array_equal(got, want)

    def test_window_at_c_is_a_beta_value(self):
        # u = c·t on the window [c, c]: with c = 1/2 and k = 5, m = 2, J = {2}
        # and N_j² = B(j − 3/2, 3 − j), i.e. B(1/2, 1) = 2
        u = window_envelope(Fraction(1, 2), Fraction(1, 2), 0)
        basis = section_basis(5, u, WeightedSet.whole(), fs_measure(), singular_weight=True)
        assert basis.J == (2,)
        assert abs(basis.log_norms2[0] - math.log(2)) <= 1e-13

    def test_boundary_indices_diverge(self):
        u, K, nu = TQ_FS
        _, J = admissible_indices(12, 1, Fraction(1, 3), Fraction(1, 4))
        for j in (J[0] - 1, J[-1] + 1):
            with pytest.raises(DivergentIntegralError):
                log_norm2(j, 12, u, K, nu, singular_weight=True)

    def test_boundary_indices_diverge_on_the_plan_route(self):
        # ν's density wrapped: no closed form applies, and the plan takes
        # the norms
        u, K, _ = TQ_FS
        nu = quadrature_route(fs_measure())
        m, J = admissible_indices(30, 1, Fraction(1, 3), Fraction(1, 4))
        assert sections._closed_form_log_norms2(
            30, m, np.asarray(J), u, K, nu, True) is None
        assert np.isfinite(log_norm2(J[0], 30, u, K, nu, singular_weight=True))
        for j in (J[0] - 1, J[-1] + 1):
            with pytest.raises(DivergentIntegralError):
                log_norm2(j, 30, u, K, nu, singular_weight=True)

    def test_index_outside_J_is_finite_on_compact_K(self):
        # annulus-area's ν lives on [−1, 1], so every index integrates
        _, K, nu = weighted_fixture("annulus-area")
        _, J = admissible_indices(12, 1, Fraction(1, 3), Fraction(1, 4))
        for j in (J[0] - 1, J[-1] + 1):
            assert np.isfinite(log_norm2(j, 12, THIRD_QUARTER, K, nu, singular_weight=True))

    def test_large_k_is_finite_without_floating_point_exceptions(self):
        u, K, nu = TQ_FS
        k = 4000
        with np.errstate(all="raise"):
            bases = [section_basis(k, u, K, nu, singular_weight=True),
                     reference_basis(k, u)]
        for basis in bases:
            assert len(basis.J) > 1600
            assert np.all(np.isfinite(basis.log_norms2))

    def test_no_scipy_at_runtime(self):
        import envlab

        src = os.path.dirname(os.path.dirname(envlab.__file__))
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from envlab import (WeightedSet, bergman, bergman_approximant,\n"
            "                    fs_measure, reference_basis)\n"
            "from envlab.envelopes import window_envelope\n"
            "u = window_envelope(1, Fraction(1, 3), Fraction(1, 4))\n"
            "bergman_approximant(60, u)\n"
            "reference_basis(60, u)\n"
            "bergman(60, u, WeightedSet.whole(), fs_measure())\n"
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src},
                             timeout=120, check=True)
        assert out.stdout.strip() == "[]"


def quadrature_route(nu):
    """ν with its own density wrapped, so that `bergman` no longer
    recognizes it, declines the closed form and takes the plan route: the
    norms and β from one pass of a norm plan on β's 32-node Gauss cells."""
    density = nu.density_fn
    return RadialMeasure(nu.breakpoints, nu.cell_masses, nu.atoms,
                         density_fn=lambda t: density(t))


def refuse(*args, **kwargs):
    raise AssertionError("built where nothing needs it")


def plan_route_parts(k, u, K, nu):
    """(m, J, β's cells, their Gauss nodes and weights, log ρ there) of
    the plan route, ν on cells only."""
    basis = admissible_set(k, u)
    fine = refine_breakpoints(sections._norm_breaks(K, nu), 4 * k)
    ts, ws = gauss_cells(fine)
    return basis.m, np.asarray(basis.J), fine, ts, ws, np.log(nu.density_fn(ts))


def edge_pieces(k, m, j, K, nu, fine):
    """E_j + log ρ at β's outer cell ends, and the tail rates j + 1 and
    m − j + 1 of a whole-line ν beyond them."""
    E = index_exponent(j, k, m, None, K, False)
    return [(float(E(t)) + float(np.log(nu.density_fn(t))), float(rate))
            for t, rate in ((fine[0], j + 1), (fine[-1], m - j + 1))]


def dense_plan_beta(k, u, K, nu):
    """β's cell masses on a whole-line ν without prune or blocks: per index,
    exp_normal of every node's term shifted by the row max, summed per cell;
    log N² from the total of the cell sums and the two tails; the cell sums
    times e^{shift − log N²}/k, a product below 2·TINY as 0.0, added one
    index after another; then each tail's Σ_J."""
    m, J, fine, ts, ws, log_dens = plan_route_parts(k, u, K, nu)
    log_k = math.log(k)
    cells = np.zeros(fine.size - 1)
    logs, tails = [], []
    for j in J:
        ex = index_exponent(j, k, m, u, K, False)(ts)
        ex += log_dens
        ex += np.log(ws)
        shift = np.max(ex)
        sums = exp_normal(ex - shift).reshape(-1, GL_NODES).sum(axis=1)
        pieces = [lv - np.log(rate) for lv, rate in edge_pieces(k, m, j, K, nu, fine)]
        log_n2 = lse([shift + np.log(np.sum(sums))] + pieces)
        scale = exp_normal(shift - log_n2 - log_k)
        sums[sums < (2.0 * TINY / scale if scale > 0 else np.inf)] = 0.0
        cells += sums * scale
        logs.append(log_n2)
        tails.append(pieces)
    logs, tails = np.asarray(logs), np.asarray(tails)
    cells[0] += np.sum(exp_normal(tails[:, 0] - logs - log_k))
    cells[-1] += np.sum(exp_normal(tails[:, 1] - logs - log_k))
    return cells


def kernel_second_pass(t, k, m, js, logs, K):
    """B(t) = Σ_J e^{E_j(t)}/N_j² in (t × J) blocks with the index prune,
    as the plan route evaluated it in a second pass after the norms."""
    t = np.asarray(t, dtype=float)
    base = -float(m) * softplus(t) - float(k) * K.weight_at(t)
    rows = max(1, sections.KERNEL_BLOCK // js.size)
    out = np.empty(t.size)
    block = np.empty((min(rows, t.size), js.size))
    for lo in range(0, t.size, rows):
        sl = slice(lo, lo + rows)
        ex = block[:t[sl].size]
        ex[...] = 0.0
        top = js * np.max(t[sl]) + np.max(base[sl]) - logs
        live = np.flatnonzero(~(top < LOG_TINY - 1.0))
        if live.size:
            cols = slice(live[0], live[-1] + 1)
            sub = ex[:, cols]
            np.multiply(js[None, cols], t[sl, None], out=sub)
            sub += base[sl, None]
            sub -= logs[None, cols]
            exp_normal(sub, out=sub)
        out[sl] = np.sum(ex, axis=1)
    return out


def two_pass_beta(k, u, K, nu):
    """β's cell masses on a whole-line ν as the plan route made them in two
    passes, bit for bit: the norms from the plan on their own cells, refined
    at k; then the kernel at β's Gauss nodes times ν/k, with the norms'
    tails in the end cells."""
    m, J, fine, ts, ws, _ = plan_route_parts(k, u, K, nu)
    logs = section_basis(k, u, K, nu).log_norms2
    js = J.astype(float)
    with np.errstate(under="ignore"):
        vals = kernel_second_pass(ts, k, m, js, logs, K) * nu.density_fn(ts) * ws / k
        cells = vals.reshape(fine.size - 1, -1).sum(axis=1)
        edges = [edge_pieces(k, m, j, K, nu, fine) for j in J]
        for i in (0, 1):
            lv, rate = np.asarray([e[i] for e in edges]).T
            cells[-i] += np.sum(exp_normal(lv - logs) / rate) / k
    return cells


@st.composite
def window_profiles(draw):
    """window_envelope(c, ν₀, ν_∞) with rational c ∈ (0, 2], ν₀ + ν_∞ ≤ c."""
    q = draw(st.integers(1, 12))
    c = Fraction(draw(st.integers(1, 2 * q)), q)
    a = draw(st.integers(0, 24))
    b = draw(st.integers(0, 24 - a))      # ν₀ and ν_∞: multiples of c/24
    return window_envelope(c, c * Fraction(a, 24), c * Fraction(b, 24))


class TestBergman:
    def test_constant_kernel(self):
        # on vtheta-fs the kernel is the constant h0, so β = (h0/k)·ν cell by
        # cell, tails included; σ's differences on the side where both are small
        u, K, nu = weighted_fixture("vtheta-fs")
        k = 10
        for ref in (nu, quadrature_route(nu)):
            res = bergman(k, u, K, ref)
            bp = res.beta.breakpoints
            lo = np.concatenate([[0.0], sigmoid(bp[1:-1])])
            hi = np.concatenate([sigmoid(bp[1:-1]), [1.0]])
            up_lo = np.concatenate([[1.0], sigmoid(-bp[1:-1])])
            up_hi = np.concatenate([sigmoid(-bp[1:-1]), [0.0]])
            cells = np.where(bp[1:] <= 0, hi - lo, up_lo - up_hi)
            want = res.h0 / k * cells
            assert res.h0 == 11
            assert np.max(np.abs(res.beta.cell_masses - want) / want) <= 1e-12

    def test_mass_identity(self):
        u = THIRD_QUARTER
        for k in (10, 25):
            res = bergman(k, u, WeightedSet.whole(), fs_measure())
            assert res.total_mass == pytest.approx(res.h0 / k, rel=1e-8)

    def test_monotone_in_singularity(self):
        k = 16
        K, nu = WeightedSet.whole(), fs_measure()
        small = THIRD_QUARTER
        big = base_profile(1)
        Js, Jb = admissible_set(k, small).J, admissible_set(k, big).J
        assert set(Js) <= set(Jb)
        for ref in (nu, quadrature_route(nu)):
            rs = bergman(k, small, K, ref).beta
            rb = bergman(k, big, K, ref).beta
            assert np.array_equal(rs.breakpoints, rb.breakpoints)
            assert np.all(rs.cell_masses <= rb.cell_masses * (1 + 1e-12))

    def test_requires_probability_measure(self):
        nu = annulus_area_measure()
        bad = type(nu)(nu.breakpoints, nu.cell_masses * 2.0, (),
                       density_fn=nu.density_fn)
        with pytest.raises(InputError):
            bergman(5, base_profile(1), WeightedSet.interval(-1, 1), bad)

    def test_nan_total_mass_is_not_a_probability_measure(self, monkeypatch):
        monkeypatch.setattr(RadialMeasure, "total_mass", lambda self: float("nan"))
        with pytest.raises(InputError, match="probability"):
            bergman(5, base_profile(1), WeightedSet.whole(), fs_measure())

    def test_blocked_kernel_equals_one_piece_sum(self, monkeypatch):
        # bump-fs at k = 60: β and its plan's norms from blocks of one index,
        # of six (the last one ragged) and of all 26 at once, bit for bit
        u, K, nu = weighted_fixture("bump-fs")
        k = 60
        m, J, fine, ts, _, _ = plan_route_parts(k, u, K, nu)
        assert J.size == 26 and ts.size == 40960
        got = []
        for block in (1, 6 * ts.size, J.size * ts.size):
            monkeypatch.setattr(sections, "KERNEL_BLOCK", block)
            plan = _NormPlan(k, m, u, K, nu, False, fine)
            got.append((plan.log_norms2(J), bergman(k, u, K, nu).beta.cell_masses))
        for logs, cells in got[1:]:
            assert np.array_equal(logs, got[0][0])
            assert np.array_equal(cells, got[0][1])

    def test_large_k_kernel_is_finite_and_keeps_mass(self):
        # β's cells are the kernel integrated against ν/k, so a finite β is
        # the kernel's finiteness as the FS route sees it
        u, K, nu = weighted_fixture("third-quarter-fs")
        k = 2000
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = bergman(k, u, K, nu)
        assert res.h0 == h0(k, u)
        assert np.all(np.isfinite(res.beta.cell_masses))
        assert abs(res.total_mass - res.h0 / k) <= 1e-8 * (res.h0 / k)

    def test_atom_measure_kernel(self):
        # single-circle reference: beta = (h0/k) * delta
        b = base_profile(1)
        K = WeightedSet.circles([0.0])
        res = bergman(6, b, K, circle_atom(0.0))
        assert res.total_mass == pytest.approx(res.h0 / 6, rel=1e-12)
        assert len(res.beta.atoms) == 1

    # β on the FS volume comes from binomial expectations, not quadrature

    @pytest.mark.parametrize("fixture,k", [
        pytest.param(f, k, id=untwisted(k, f))
        for f in ("vtheta-fs", "third-quarter-fs") for k in (10, 60)])
    def test_matches_the_quadrature_route(self, fixture, k):
        u, K, nu = weighted_fixture(fixture)
        exact = bergman(k, u, K, nu)
        quad = bergman(k, u, K, quadrature_route(nu))
        assert np.array_equal(exact.beta.breakpoints, quad.beta.breakpoints)
        assert np.max(np.abs(exact.beta.cell_masses - quad.beta.cell_masses)) <= 1e-13

    @pytest.mark.parametrize("k", [12, 60, 240])
    def test_cdf_against_mpmath(self, k):
        import mpmath as mp

        u, K, nu = TQ_FS
        basis = admissible_set(k, u)
        m, J = basis.m, basis.J

        def mp_cdfs(t):
            """Σ_J I_x(j+1, m−j+1) and Σ_J of its complement at x = σ(t)."""
            x = 1 / (1 + mp.exp(-mp.mpf(float(t))))
            return (mp.fsum(mp.betainc(j + 1, m - j + 1, 0, x, regularized=True)
                            for j in J),
                    mp.fsum(mp.betainc(m - j + 1, j + 1, 0, 1 - x, regularized=True)
                            for j in J))

        res = bergman(k, u, K, nu)
        bp = res.beta.breakpoints
        cdf = res.beta.cdf(bp)
        # the breakpoints where the CDF first reaches these shares of h0/k
        picks = [int(np.searchsorted(cdf, q * res.h0 / k))
                 for q in (1e-6, 0.1, 0.5, 0.9, 1 - 1e-6)]
        with mp.workdps(30):
            for i in picks:
                want = mp_cdfs(bp[i])[0] / k
                assert abs(cdf[i] - want) <= 1e-14 * want
            # Far out (t = ±8) G and |J| − G are tiny, and their accuracy
            # follows their conditioning in t: d log G/dt ≈ j_min + 1.
            for t in (-8.0, 8.0):
                got = _fs_beta_cdfs(np.asarray([t]), m, J[0], len(J), 1.0)[0]
                for g, want in zip(got, mp_cdfs(t)):
                    assert abs(g - want) <= 1e-12 * want

    def test_builds_no_quadrature(self, monkeypatch):
        monkeypatch.setattr(sections._NormPlan, "beta", refuse)
        for name in ("gauss_cells", "_NormPlan", "_log_norms2"):
            monkeypatch.setattr(sections, name, refuse)
        for fixture in ("vtheta-fs", "third-quarter-fs", "annulus-area"):
            u, K, nu = weighted_fixture(fixture)
            res = bergman(25, u, K, nu)
            assert res.total_mass == pytest.approx(res.h0 / 25, rel=1e-14)

    def test_large_k_without_floating_point_exceptions(self):
        u, K, nu = weighted_fixture("third-quarter-fs")
        k = 4000
        with np.errstate(all="raise"):
            res = bergman(k, u, K, nu)
        assert np.all(np.isfinite(res.beta.cell_masses))
        assert abs(res.total_mass - res.h0 / k) <= 1e-8 * (res.h0 / k)

    @pytest.mark.parametrize("fixture,k", [("annulus-area", 1000), ("bump-fs", 400)])
    def test_plan_route_large_k_without_floating_point_exceptions(self, fixture, k):
        # far out the exps and products are correctly rounded subnormals,
        # which must not raise under the caller's errstate
        u, K, nu = weighted_fixture(fixture)
        with np.errstate(all="raise"):
            basis = section_basis(k, u, K, nu)
            res = bergman(k, u, K, quadrature_route(nu))
        assert np.all(np.isfinite(basis.log_norms2))
        assert np.all(np.isfinite(res.beta.cell_masses))
        assert abs(res.total_mass - res.h0 / k) <= 1e-8 * (res.h0 / k)

    def test_kernel_on_the_gauss_nodes_is_zero_or_normal(self):
        # k = 200: far out every term of β lies at or below TINY and is
        # written as 0.0, never as a subnormal, on the cells and at the atoms
        for fixture, zeros in (("bump-fs", True), ("annulus-atom", False)):
            u, K, nu = weighted_fixture(fixture)
            beta = bergman(200, u, K, nu).beta
            vals = np.concatenate([beta.cell_masses, [w for _, w in beta.atoms]])
            assert vals.size and np.all((vals == 0.0) | (vals >= TINY))
            assert (np.count_nonzero(vals == 0.0) > 0) == zeros

    @pytest.mark.parametrize("block", [2 ** 10, sections.KERNEL_BLOCK])
    def test_kernel_prunes_only_terms_written_as_zero(self, block, monkeypatch):
        # bump-fs at k = 200: the pruned, blocked pass is the dense one, in
        # which exp_normal takes every (index, node) term
        monkeypatch.setattr(sections, "KERNEL_BLOCK", block)
        u, K, nu = weighted_fixture("bump-fs")
        got = bergman(200, u, K, nu).beta.cell_masses
        assert np.array_equal(got, dense_plan_beta(200, u, K, nu))
        assert np.count_nonzero(got == 0.0) > 0

    @pytest.mark.parametrize("k", [25, 200])
    def test_one_pass_matches_the_two_pass_plan_route(self, k):
        # the norms on β's cells, not their own, and β from the same pass:
        # within rounding of the two passes, relative to the mass h0/k
        # (bump-fs has no atoms)
        u, K, nu = weighted_fixture("bump-fs")
        res = bergman(k, u, K, nu)
        assert not res.beta.atoms
        err = np.max(np.abs(res.beta.cell_masses - two_pass_beta(k, u, K, nu)))
        assert err <= 1e-14 * res.h0 / k

    @settings(max_examples=25, deadline=None)
    @given(u=window_profiles(), k=st.integers(1, 80))
    def test_random_windows_match_the_quadrature_route(self, u, k):
        K, nu = WeightedSet.whole(), fs_measure()
        exact = bergman(k, u, K, nu)
        quad = bergman(k, u, K, quadrature_route(nu))
        assert np.max(np.abs(exact.beta.cell_masses - quad.beta.cell_masses)) <= 1e-12
        assert exact.total_mass == pytest.approx(exact.h0 / k, rel=1e-13, abs=0.0)


def full_log_rows(t, n):
    """log P(i)/P(i₀) of Bin(n, σ(t)) over every i = 0..n, one row per
    point, as the whole-row kernel built them: cumulative sums of the log
    ratios outward from each row's mode i₀."""
    i = np.arange(n)
    log_ratio = np.log((n - i) / (i + 1.0))
    mode = np.clip(np.floor((n + 1) * sigmoid(t)), 0, n)
    steps = log_ratio + t[:, None]
    above = i >= mode[:, None]
    lw = np.empty((t.size, n + 1))
    lw[:, 0] = 0.0
    np.cumsum(np.where(above, steps, 0.0), axis=1, out=lw[:, 1:])
    lw[:, :-1] -= np.cumsum(np.where(above, 0.0, steps)[:, ::-1], axis=1)[:, ::-1]
    return lw, log_ratio, mode


def full_row_fs_beta_cdfs(t, m, j_min, n_J, unit):
    """`_fs_beta_cdfs` on whole rows: every entry of every row built and
    passed through `exp_normal`."""
    lower = np.clip(np.arange(m + 2) - j_min, 0, n_J)
    weights = np.stack([lower, n_J - lower], axis=1).astype(float)
    w = exp_normal(full_log_rows(t, m + 1)[0])
    num = w @ weights
    den = (np.sum(w, axis=1) / unit)[:, None]
    normal = num >= 2.0 * TINY * np.maximum(den, 1.0)
    return np.divide(num, den, out=np.zeros_like(num), where=normal)


def fs_beta_points(fixture, k):
    """β's interior cell ends on an FS fixture, and its (m, J)."""
    u, K, nu = weighted_fixture(fixture)
    basis = admissible_set(k, u)
    t = refine_breakpoints(sections._norm_breaks(K, nu), 4 * k)[1:-1]
    return t, basis.m, basis.J


class TestWindowedRows:
    """β's binomial rows on the FS fixtures' points, against whole rows."""

    @pytest.mark.parametrize("fixture", ["vtheta-fs", "third-quarter-fs"])
    @pytest.mark.parametrize("k", [1, 2, 25, 200, 3200])
    def test_values_match_the_whole_rows(self, fixture, k):
        # Only the order of the sums changes.  From k ≈ 400 the whole rows'
        # matrix product is itself up to 21 ulps off the exact sum of its
        # terms; wherever the two differ by more than 4 ulps, the windowed
        # value is within 4 ulps of the ratio of the exact sums.
        t, m, J = fs_beta_points(fixture, k)
        unit = 1.0 / k
        got = _fs_beta_cdfs(t, m, J[0], len(J), unit)
        want = full_row_fs_beta_cdfs(t, m, J[0], len(J), unit)
        assert np.array_equal(got == 0.0, want == 0.0)
        far = np.argwhere(np.abs(got - want) > 4 * np.spacing(want))
        if k <= 200:
            assert far.size == 0
        w = exp_normal(full_log_rows(t, m + 1)[0])
        lower = np.clip(np.arange(m + 2) - J[0], 0, len(J))
        for r, c in far:
            weights = lower if c == 0 else len(J) - lower
            exact = math.fsum(w[r] * weights) / (math.fsum(w[r]) / unit)
            assert abs(got[r, c] - exact) <= 4 * np.spacing(exact)

    @pytest.mark.parametrize("k", [1, 2, 25, 200, 3200, 10 ** 4])
    def test_every_live_entry_lies_in_its_window(self, k):
        t, m, _ = fs_beta_points("vtheta-fs", k)
        lw, log_ratio, mode = full_log_rows(t, m + 1)
        windows = list(sections._row_windows(t, m + 1, log_ratio, mode))
        assert windows[0][0] == 0 and windows[-1][1] == t.size - 1
        for (r0, r1, lo, hi), nxt in zip(windows, windows[1:] + [(t.size,)]):
            assert nxt[0] == r1 + 1
            live = np.flatnonzero(np.any(lw[r0:r1 + 1] > LOG_TINY, axis=0))
            assert lo <= live[0] and live[-1] <= hi

    def test_large_k_touches_a_quarter_of_the_table(self):
        t, m, _ = fs_beta_points("vtheta-fs", 3200)
        _, log_ratio, mode = full_log_rows(t, m + 1)
        touched = sum((r1 + 1 - r0) * (hi + 1 - lo) for r0, r1, lo, hi
                      in sections._row_windows(t, m + 1, log_ratio, mode))
        assert touched <= t.size * (m + 2) / 4


def tiny_window_row_means(t, n, weights, unit):
    """`_binomial_row_means` written out with its windows found afresh:
    each chunk of ROW_CHUNK rows folded (both folds over the whole span,
    zeros included) and exponentiated on every entry of its LOG_TINY
    window [lo, hi]."""
    log_ratio, mode = sections._binomial_steps(t, n)
    prefix = np.concatenate([[0.0], np.cumsum(log_ratio)])
    out = np.empty((t.size, weights.shape[1]))
    for r0 in range(0, t.size, sections.ROW_CHUNK):
        r1 = min(r0 + sections.ROW_CHUNK, t.size) - 1
        g = prefix + np.arange(n + 1) * t[[r0, r1], None]
        g -= g[[0, 1], mode[[r0, r1]].astype(np.intp)][:, None]
        live = g > LOG_TINY - 1.0
        lo, hi = int(np.argmax(live[0])), n - int(np.argmax(live[1, ::-1]))
        sl = slice(r0, r1 + 1)
        steps = log_ratio[lo:hi] + t[sl, None]
        above = np.arange(lo, hi) >= mode[sl, None]
        lw = np.empty((r1 + 1 - r0, hi - lo + 1))
        lw[:, 0] = 0.0
        np.cumsum(np.where(above, steps, 0.0), axis=1, out=lw[:, 1:])
        lw[:, :-1] -= np.cumsum(np.where(above, 0.0, steps)[:, ::-1], axis=1)[:, ::-1]
        w = exp_normal(lw, out=lw)
        num = w @ weights[lo:hi + 1]
        den = (np.sum(w, axis=1) / unit)[:, None]
        normal = num >= 2.0 * TINY * np.maximum(den, 1.0)
        out[sl] = np.divide(num, den, out=np.zeros_like(num), where=normal)
    return out


def on_tiny_windows(fn, *args):
    """fn(*args) with β's rows from `tiny_window_row_means`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sections, "_binomial_row_means", tiny_window_row_means)
        return fn(*args)


def same_bits(got, want):
    return (got is None) == (want is None) and (
        got is None or (got.shape == want.shape and got.tobytes() == want.tobytes()))


def area_beta_args(k, u, K, nu):
    """`_area_beta_cell_masses`'s arguments as `bergman` passes them."""
    basis = admissible_set(k, u)
    bp = refine_breakpoints(sections._norm_breaks(K, nu), 4 * k)
    return bp, basis.m, basis.J, 1 / k


class TestWorkWindows:
    """Every closed-form β, bit for bit against `tiny_window_row_means`:
    the kernel's one-sided folds and its windows from `_row_windows` give
    the sums of the whole LOG_TINY windows, whatever the weights."""

    @pytest.mark.parametrize("fixture", ["vtheta-fs", "third-quarter-fs"])
    @pytest.mark.parametrize("k", [1, 2, 25, 200, 3200, 10 ** 4])
    def test_fs_cdfs_are_the_tiny_window_kernels(self, fixture, k):
        t, m, J = fs_beta_points(fixture, k)
        args = (t, m, J[0], len(J), 1.0 / k)
        assert same_bits(_fs_beta_cdfs(*args), on_tiny_windows(_fs_beta_cdfs, *args))

    @pytest.mark.parametrize("k", [10, 60, 200, 1000])
    def test_area_masses_are_the_tiny_window_kernels(self, k):
        args = area_beta_args(k, *weighted_fixture("annulus-area"))
        got = sections._area_beta_cell_masses(*args)
        assert got is not None
        assert same_bits(got, on_tiny_windows(sections._area_beta_cell_masses, *args))

    @settings(max_examples=40, deadline=None)
    @given(u=window_profiles(), k=st.integers(1, 600))
    def test_random_windows_on_the_fs_volume(self, u, k):
        basis = admissible_set(k, u)
        t = refine_breakpoints(sections._norm_breaks(WeightedSet.whole(), fs_measure()),
                               4 * k)[1:-1]
        args = (t, basis.m, basis.J[0], len(basis.J), 1.0 / k)
        assert same_bits(_fs_beta_cdfs(*args), on_tiny_windows(_fs_beta_cdfs, *args))

    @settings(max_examples=40, deadline=None)
    @given(u=window_profiles(), ends=st.lists(st.integers(-256, 256), min_size=2,
                                               max_size=2, unique=True),
           k=st.integers(1, 600))
    def test_random_annuli(self, u, ends, k):
        a, b = (e / 64 for e in sorted(ends))
        args = area_beta_args(k, u, *area_fixture(a, b)[1:])
        assert same_bits(sections._area_beta_cell_masses(*args),
                         on_tiny_windows(sections._area_beta_cell_masses, *args))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_any_nonnegative_weights(self, n, seed):
        # weights over 600 orders of magnitude, a third of them 0: a sum's
        # largest term may lie far from the row's mode
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(-30.0, 30.0, rng.integers(1, 400)))
        weights = np.exp(rng.uniform(-700.0, 700.0, (n + 1, 3)))
        weights[rng.random((n + 1, 3)) < 1 / 3] = 0.0
        args = (t, n, weights, 1.0)
        assert same_bits(sections._binomial_row_means(*args),
                         tiny_window_row_means(*args))

    def test_a_term_some_rows_leave_out_sets_no_cut(self):
        # One chunk.  Index p lies just past the first row's live window but
        # in the last row's, and its weight e^700 would dwarf every term the
        # first row sums: that row's weighted sum peaks at its window's left
        # end, far from the row's mode.
        n, t = 2000, np.linspace(-0.5, 0.5, sections.ROW_CHUNK)
        first, last = full_log_rows(t[[0, -1]], n)[0]
        p = int(np.flatnonzero(first > LOG_TINY)[-1]) + 1
        assert last[p] > LOG_TINY + 1.0
        log_w = np.maximum(700.0 - 3.0 * np.arange(n + 1), -700.0)
        log_w[p] = 700.0
        args = (t, n, np.exp(log_w)[:, None], 1.0)
        assert same_bits(sections._binomial_row_means(*args), tiny_window_row_means(*args))


def area_fixture(a, b):
    """annulus-area's profile with K = [a, b] and ν its area measure."""
    return base_profile(1), WeightedSet.interval(a, b), annulus_area_measure(a, b)


def closed_form_bergman(monkeypatch, k, u, K, nu):
    """`bergman` with every quadrature builder stubbed to raise."""
    with monkeypatch.context() as patch:
        patch.setattr(sections._NormPlan, "beta", refuse)
        for name in ("gauss_cells", "_NormPlan", "_log_norms2"):
            patch.setattr(sections, name, refuse)
        return bergman(k, u, K, nu)


class TestAreaBeta:
    """β against the area density on [a, b] with v = 0, in closed form."""

    @pytest.mark.parametrize("k", [pytest.param(k, id=untwisted(k)) for k in (10, 60, 200)])
    def test_matches_the_quadrature_route(self, k, monkeypatch):
        u, K, nu = weighted_fixture("annulus-area")
        exact = closed_form_bergman(monkeypatch, k, u, K, nu)
        quad = bergman(k, u, K, quadrature_route(nu))
        assert np.array_equal(exact.beta.breakpoints, quad.beta.breakpoints)
        assert np.max(np.abs(exact.beta.cell_masses - quad.beta.cell_masses)) <= 1e-13
        assert abs(exact.total_mass - exact.h0 / k) <= 1e-14 * exact.h0 / k

    @pytest.mark.parametrize("k", [12, 60, 240])
    def test_cdf_against_mpmath(self, k):
        import mpmath as mp

        u, K, nu = weighted_fixture("annulus-area")
        basis = admissible_set(k, u)
        m, J = basis.m, basis.J
        assert J[-1] == m           # z^{m−1} and z^m are in J

        def mp_cdf(t):
            """Σ_J of z^j's normalized mass on [−1, t]: its density is
            ∝ x^j (1 − x)^{m−j−2} on [σ(−1), σ(1)], x = σ(t)."""
            xa, xb, x = (1 / (1 + mp.exp(-mp.mpf(s))) for s in (-1, 1, float(t)))
            return mp.fsum(mp.betainc(j + 1, m - j - 1, xa, x)
                           / mp.betainc(j + 1, m - j - 1, xa, xb) for j in J)

        res = bergman(k, u, K, nu)
        bp = res.beta.breakpoints
        cdf = res.beta.cdf(bp)
        picks = [int(np.searchsorted(cdf, q * res.h0 / k))
                 for q in (1e-6, 0.1, 0.5, 0.9, 1 - 1e-6)]
        # 60 digits, not 30: at m = 240 mpmath's betainc over [x_a, x] loses
        # about 25 digits to cancellation for some j, and its sum over J
        # moved in the 8th digit at 30
        with mp.workdps(60):
            for i in picks:
                want = mp_cdf(bp[i]) / k
                assert abs(cdf[i] - want) <= 1e-14 * want

    @pytest.mark.parametrize("m", [12, 60, 240])
    def test_top_two_terms_against_mpmath(self, m):
        # j = m − 1 and m: the second Beta parameter is 0 or −1
        import mpmath as mp

        t = np.linspace(-1.0, 1.0, 9)
        got = sections._log_tail(np.asarray([[m], [m + 1.0]]), float(m), sigmoid(t))
        with mp.workdps(30):
            for row, j in zip(got, (m - 1, m)):
                for g, s in zip(row, t):
                    x = 1 / (1 + mp.exp(-mp.mpf(float(s))))
                    want = mp.log(mp.betainc(j + 1, m - j - 1, 0, x))
                    assert abs(g - want) <= 1e-14 * abs(want)

    def test_large_k_without_floating_point_exceptions(self, monkeypatch):
        # On [−4, 1.5] every z^j keeps a mass on [a, b] far above TINY at
        # k = 3200, and the closed form applies
        k = 3200
        u, K, nu = area_fixture(-4.0, 1.5)
        with np.errstate(all="raise"):
            res = closed_form_bergman(monkeypatch, k, u, K, nu)
        assert np.all(np.isfinite(res.beta.cell_masses))
        assert abs(res.total_mass - res.h0 / k) <= 1e-13 * (res.h0 / k)

    def test_tiny_masses_leave_beta_to_the_plan(self):
        # on [−1, 1] at k = 3200, z^0's mass on K is below e^{-1000}: the
        # closed form declines, and the plan's β has no floating-point
        # exception either
        k = 3200
        u, K, nu = weighted_fixture("annulus-area")
        bp = refine_breakpoints(sections._norm_breaks(K, nu), 4 * k)
        assert sections._area_beta_cell_masses(bp, k, range(k + 1), 1 / k) is None
        with np.errstate(all="raise"):
            res = bergman(k, u, K, nu)
        assert abs(res.total_mass - res.h0 / k) <= 1e-8 * (res.h0 / k)

    @pytest.mark.parametrize("K", [
        WeightedSet.interval(-1.0, 1.0, v=lambda t: 0 * t),        # a callable weight
        WeightedSet.interval(-1.0, 0.5),                            # ν leaves K
        WeightedSet.interval(-1.0, 1.0).add_weight(np.cos, 0.0),    # v_fn set
    ], ids=["v-callable", "nu-outside-K", "added-weight"])
    def test_unknown_weight_is_not_the_closed_form(self, K):
        assert sections._closed_form_density(K, annulus_area_measure()) is None

    @settings(max_examples=25, deadline=None)
    @given(u=window_profiles(), ends=st.lists(st.integers(-256, 256), min_size=2,
                                               max_size=2, unique=True),
           k=st.integers(1, 80))
    def test_random_annuli_match_the_plan(self, u, ends, k):
        a, b = (e / 64 for e in sorted(ends))
        _, K, nu = area_fixture(a, b)
        exact = bergman(k, u, K, nu)
        quad = bergman(k, u, K, quadrature_route(nu))
        assert np.max(np.abs(exact.beta.cell_masses - quad.beta.cell_masses)) <= 1e-12
        assert exact.total_mass == pytest.approx(exact.h0 / k, rel=1e-13, abs=0.0)


class TestDonaldson:
    def test_zero_on_equal(self):
        u = THIRD_QUARTER
        A = section_basis(10, u, WeightedSet.whole(), fs_measure())
        assert donaldson(10, A, A) == 0.0

    def test_constant_shift_closed_form(self):
        u = THIRD_QUARTER
        k, a = 20, 0.4
        K0 = WeightedSet.whole()
        Ka = WeightedSet.whole(v=lambda t: np.full_like(t, a))
        A = section_basis(k, u, K0, fs_measure())
        B = section_basis(k, u, Ka, fs_measure())
        want = -a * len(A.J) / k
        assert donaldson(k, A, B) == pytest.approx(want, abs=1e-8)

    def test_mismatched_bases_rejected(self):
        u = THIRD_QUARTER
        A = section_basis(10, u, WeightedSet.whole(), fs_measure())
        B = section_basis(12, u, WeightedSet.whole(), fs_measure())
        with pytest.raises(InputError):
            donaldson(10, A, B)

    def test_functional_of_reference_is_zero(self):
        u = THIRD_QUARTER
        ref = reference_basis(14, u)
        assert donaldson_functional(14, u, ref) == 0.0


class TestBMRate:
    def test_fs_rate_decays(self):
        K, nu = WeightedSet.whole(), fs_measure()
        rates = [bm_rate(k, K, nu) for k in (10, 20, 40)]
        assert rates[2] < rates[0]
        assert rates[2] < 0.1

    def test_annulus_area_rate_decays(self):
        K, nu = WeightedSet.interval(-1, 1), annulus_area_measure()
        rates = [bm_rate(k, K, nu) for k in (10, 20, 40)]
        assert rates[2] < rates[0]

    def test_atom_reference_fails_diagnostic(self):
        K, nu = WeightedSet.interval(-1, 1), circle_atom(0.0)
        rates = [bm_rate(k, K, nu) for k in (10, 20, 40)]
        # rate pins at max_t (t - f_FS(t) + log 2) over [-1, 1]
        want = 1.0 - np.log1p(np.e) + np.log(2)
        assert np.max(np.abs(np.asarray(rates) - want)) < 1e-9
        assert min(rates) > 0.3


class TestFSSups:
    """v = 0 on K = X against the FS volume: log sup² of z^j is m·g*(j/m)
    with g* = `fs_conjugate(·, 1)`, and N_j² = B(j+1, m−j+1)."""

    @pytest.mark.parametrize("k", [10, 200, 1000, 3000])
    def test_scan_max_is_a_lower_bound(self, k):
        u, K = base_profile(1), WeightedSet.whole()
        js = np.arange(k + 1)
        sup = np.asarray([k * fs_conjugate(j / k, 1) for j in js.tolist()])
        assert np.all(_log_sups2(k, k, u, K, js, False) <= sup + 1e-12)
        for j in (0, 1, k // 3, k // 2, k - 1, k):
            assert log_sup2(j, k, u, K) <= sup[j] + 1e-12

    @pytest.mark.parametrize("k", [10, 200, 1000, 3000])
    def test_bm_rate_is_log_k_plus_one_over_k(self, k):
        # the max is at j = 0 or m, where the scan reaches the sup 0 and
        # N² = 1/(m + 1)
        rate = bm_rate(k, WeightedSet.whole(), fs_measure())
        assert rate == pytest.approx(math.log(k + 1) / k, rel=1e-15, abs=0)


class TestApproximant:
    def test_minimal_singularity_closed_form(self):
        b = base_profile(1)
        for k in (8, 16):
            ap = bergman_approximant(k, b)
            ts = np.asarray([-3.0, 0.0, 0.7, 5.0])
            want = np.log1p(np.exp(ts)) + np.log(k + 1) / k
            assert np.max(np.abs(ap(ts) - want)) < 1e-9

    def test_third_quarter_off_grid_against_quad(self):
        # F̃(t) = (1/k) log Σ_J e^{jt}/N_j², with N_j² = ∫ e^{jt − k·F_u(t)} σ'(t) dt
        # (c = 1, so m·f_FS cancels against the singular weight); F_u is the
        # slope-[1/3, 3/4] envelope of softplus, written out here
        from scipy.integrate import quad

        t_lo, t_hi = -np.log(2.0), np.log(3.0)   # σ(t) = 1/3 and 3/4

        def softplus(t):
            return np.logaddexp(0.0, t)

        def F_u(t):
            if t < t_lo:
                return softplus(t_lo) + (t - t_lo) / 3.0
            if t > t_hi:
                return softplus(t_hi) + 0.75 * (t - t_hi)
            return softplus(t)

        def log_integrand(j, k, t):
            return j * t - k * F_u(t) + t - 2.0 * softplus(t)

        ts = np.asarray([-2.5, -0.3, 0.5, 1.7, 3.25])   # off the integer grid
        for k in (8, 25):
            J = [j for j in range(k + 1)
                 if Fraction(j + 1) > Fraction(k, 3) and Fraction(k - j + 1) > Fraction(k, 4)]
            logs = []
            for j in J:
                peak = max(log_integrand(j, k, t) for t in np.linspace(-10, 10, 2001))
                f = lambda t: np.exp(log_integrand(j, k, t) - peak)
                total = sum(quad(f, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
                            for a, b in ((-np.inf, t_lo), (t_lo, t_hi), (t_hi, np.inf)))
                logs.append(peak + np.log(total))
            ex = np.asarray(J)[None, :] * ts[:, None] - np.asarray(logs)[None, :]
            mx = ex.max(axis=1)
            want = (mx + np.log(np.exp(ex - mx[:, None]).sum(axis=1))) / k
            ap = bergman_approximant(k, THIRD_QUARTER)
            assert not np.any(np.isin(ts, ap.grid))
            assert np.max(np.abs(ap(ts) - want)) < 1e-9

    def test_exact_evaluation_survives_shift(self):
        ap = bergman_approximant(8, base_profile(1))
        ts = np.asarray([-3.0, 0.0, 0.7, 5.0])
        assert np.array_equal(ap.shifted(0.25)(ts), ap(ts) + 0.25)

    def test_tail_indices_at_k12(self):
        ap = bergman_approximant(12, THIRD_QUARTER)
        assert ap.s_minus == Fraction(4, 12)
        assert ap.s_plus == Fraction(9, 12)
        assert lelong(ap) == (Fraction(1, 3), Fraction(1, 4))

    def test_lelong_sandwich_and_mass(self):
        env = i_model_envelope(THIRD_QUARTER)
        for k in (7, 13, 40, 100):
            ap = bergman_approximant(k, THIRD_QUARTER)
            assert abs(ap.s_minus - Fraction(1, 3)) <= Fraction(1, k)
            assert abs((1 - ap.s_plus) - Fraction(1, 4)) <= Fraction(1, k)
            gap = ap.mass - env.mass
            assert 0 <= gap <= Fraction(2, k)

    def test_tail_slopes_are_the_window_ends_over_the_sweep(self):
        # the approx gates read s₋ = j_min/k and s₊ = j_max/k off the index
        # window; the approximant built at every k of the committed sweep
        # has exactly those tail slopes
        u = THIRD_QUARTER
        ks = range(1, 501)
        _, _, j_min, j_max = sections._index_windows(
            ks, u.class_mass, u.s_minus, u.class_mass - u.s_plus, 0)
        for k, lo, hi in zip(ks, j_min.tolist(), j_max.tolist()):
            ap = bergman_approximant(k, u)
            assert (ap.s_minus, ap.s_plus) == (Fraction(lo, k), Fraction(hi, k))

    def test_large_k_lelong_slopes(self):
        k = 5000
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ap = bergman_approximant(k, THIRD_QUARTER)
        assert abs(ap.s_minus - Fraction(1, 3)) <= Fraction(1, k)
        assert abs((1 - ap.s_plus) - Fraction(1, 4)) <= Fraction(1, k)
        assert np.all(np.isfinite(ap.values))

    def test_lower_bound_constant(self):
        ap = bergman_approximant(25, THIRD_QUARTER)
        c = approximant_lower_bound_constant(25, THIRD_QUARTER, ap)
        # F + C log k / k >= F_u on a probe grid
        ts = np.linspace(-30, 30, 1001)
        assert np.all(ap(ts) + c * np.log(25) / 25 >= THIRD_QUARTER(ts) - 1e-9)

    def test_zero_mass_rejected(self):
        line = window_envelope(1, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(NoSectionsError):
            bergman_approximant(10, line)


def inline_approximant(js, logs, k, t):
    """Reference: F̃_k as a separate max-shifted log-sum-exp, np.exp on
    every (point, index) entry."""
    ex = js * np.asarray(t, dtype=float)[..., None] - logs
    mx = np.max(ex, axis=-1)
    return (mx + np.log(np.sum(np.exp(ex - mx[..., None]), axis=-1))) / float(k)


# the approx configs' fixtures at their scheduled k, and k across the
# third-quarter config's 1..500 sweep, one in each quarter
APPROX_CASES = ([("vtheta", k) for k in (12, 24, 48, 96)]
                + [("third-quarter", k) for k in (25, 50, 100, 200, 400)]
                + [("third-quarter", k) for k in (109, 142, 300, 451)])


class TestApproximantEvaluation:
    @pytest.mark.parametrize("fixture,k", APPROX_CASES)
    def test_matches_the_inline_formula(self, fixture, k):
        u = experiments.radial_fixture(fixture)
        basis = section_basis(k, u, WeightedSet.whole(), fs_measure(),
                              singular_weight=True)
        js = np.asarray(basis.J, dtype=float)
        ap = bergman_approximant(k, u)
        ts = np.concatenate([ap.grid, np.linspace(-50.0, 50.0, 37), [0.1, -7.3]])
        assert np.array_equal(ap(ts), inline_approximant(js, basis.log_norms2, k, ts))
        assert ap(0.1) == inline_approximant(js, basis.log_norms2, k, 0.1)

    @pytest.mark.parametrize("fixture,k", APPROX_CASES)
    def test_values_are_the_evaluation_on_the_grid(self, fixture, k):
        ap = bergman_approximant(k, experiments.radial_fixture(fixture))
        assert np.array_equal(ap(ap.grid), ap.values)
        assert np.array_equal(ap.shifted(0.5)(ap.grid), ap.shifted(0.5).values)

    def test_sup_difference_reads_the_values(self, monkeypatch):
        # two profiles on one grid: the union adds no point, so neither is
        # evaluated there
        u = experiments.radial_fixture("third-quarter")
        ap = bergman_approximant(50, u)
        on_ap_grid = window_envelope(1, Fraction(1, 3), Fraction(1, 4), ap.grid)
        assert on_ap_grid.grid.tobytes() == ap.grid.tobytes()
        assert on_ap_grid.values.tobytes() == u(ap.grid).tobytes()
        want = float(np.max(u(ap.grid) - ap(ap.grid)))
        monkeypatch.setattr(type(ap), "__call__", refuse)
        assert profiles.sup_difference(ap, ap) == 0.0
        assert profiles.sup_difference(on_ap_grid, ap) == want


class TestCellsWithoutDensity:
    """ν with the FS cells and masses but no density: quadrature has no
    density to integrate, so every route refuses it."""

    NU = RadialMeasure(fs_measure().breakpoints, fs_measure().cell_masses, ())

    def test_section_basis(self):
        K = WeightedSet.whole(v=lambda t: 0.1 + 0.0 * t)
        with pytest.raises(InputError, match="density_fn"):
            section_basis(10, base_profile(1), K, self.NU)
        with pytest.raises(InputError, match="density_fn"):
            section_basis(10, base_profile(1), WeightedSet.whole(), self.NU)

    def test_bergman(self):
        assert self.NU.total_mass() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InputError, match="density_fn"):
            bergman(10, base_profile(1), WeightedSet.whole(), self.NU)

    def test_measure_integral(self):
        with pytest.raises(InputError, match="density_fn"):
            measure_integral(lambda t: np.asarray(t), self.NU)
