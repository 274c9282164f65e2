import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import (
    TwistData,
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
    gram,
    h0,
    i_model_envelope,
    l2_norm,
    lelong,
    limit_mass,
    reference_basis,
    section_basis,
    sup_norm,
)
from envlab.envelopes import window_envelope
from envlab.errors import (
    ConditioningError,
    DivergentIntegralError,
    InputError,
    NoSectionsError,
)
from envlab import experiments, profiles, sections
from envlab.basefun import logistic_density, logit, sigmoid, softplus
from envlab.experiments import ExperimentConfig, run_volume, weighted_fixture
from envlab.measures import RadialMeasure
from envlab.profiles import WindowEnvelope, _pad_to_asymptotes
from envlab.quadrature import GL_NODES, TINY, exp_normal, gauss_cells, refine_breakpoints
from envlab.sections import (
    _NormPlan,
    _SupPlan,
    _fs_beta_cdfs,
    approximant_lower_bound_constant,
    counting_bound_holds,
    counting_window_holds,
    log_norm2,
    section_counts,
)


THIRD_QUARTER = window_envelope(1, Fraction(1, 3), Fraction(1, 4))


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
                _, J = admissible_indices(k, c, nu0, nu_inf, TwistData(1, d))
                assert len(J) == oracle_count(k, c, nu0, nu_inf, d), (c, k, d)

    def test_boundary_exponent_excluded(self):
        # k*nu0 integral: the equality index diverges and is excluded
        _, J = admissible_indices(3, 1, Fraction(1, 3), 0)
        assert J[0] == 1  # j=0 has j+1 = 1 = k*nu0, excluded


class TestH0:
    def test_spec_counts(self):
        assert h0(24, THIRD_QUARTER) == 11
        assert h0(24, THIRD_QUARTER, TwistData(2, 0)) == 22
        assert h0(12, THIRD_QUARTER, TwistData(1, 1)) == 7

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
                    _, J = admissible_indices(k, c, nu0, nu_inf, TwistData(1, d))
                    assert len(J) == oracle_count(k, c, nu0, nu_inf, d), (c, d, k)
                    for r in (1, 2):
                        assert h0(k, u, TwistData(r, d)) == r * len(J), (c, r, d, k)

    def test_count_at_huge_k_is_closed_form(self):
        # J = [⌊k/3⌋, m − ⌊k/4⌋] with m = k + d; J is never built
        k = 10 ** 12
        assert h0(k, THIRD_QUARTER) == 416_666_666_668
        for r, d in ((1, 0), (2, 1), (1, -1)):
            count = h0(k, THIRD_QUARTER, TwistData(r, d))
            assert count == r * (k + d - k // 4 - k // 3 + 1)
            assert counting_bound_holds(k, count, 1, Fraction(1, 3), Fraction(1, 4),
                                        TwistData(r, d))

    def test_counting_bound(self):
        # J = integers in the open interval (k/3 − 1, m + 1 − k/4), m = k + d,
        # of length L = k·mass + d + 2 (c = 1, so {k·c} = 0).  An open
        # interval of length L > −1 holds at least L − 1 and fewer than L + 1
        # integers: d + 1 ≤ h0/r − k·mass < d + 3.
        lim = limit_mass(1, Fraction(1, 3), Fraction(1, 4))
        assert lim == Fraction(5, 12)
        for r in (1, 2):
            for d in (-1, 0, 1):
                tw = TwistData(r, d)
                for k in range(1, 201):
                    count = h0(k, THIRD_QUARTER, tw)
                    assert count % r == 0
                    excess = Fraction(count, r) - k * lim
                    assert d + 1 <= excess < d + 3, (r, d, k)
                    err = abs(Fraction(count, r * k) - lim)
                    assert err < Fraction(abs(d) + 3, k)

    def test_counting_gate_matches_oracle(self):
        c, nu0, nu_inf = Fraction(1), Fraction(1, 3), Fraction(1, 4)
        for r in (1, 2):
            for d in (-1, 0, 1):
                tw = TwistData(r, d)
                for k in range(1, 201):
                    count = r * oracle_count(k, c, nu0, nu_inf, d)
                    assert counting_bound_holds(k, count, c, nu0, nu_inf, tw)
                    # the window is two wide: a count two off is rejected
                    for off in (-2, 2):
                        assert not counting_bound_holds(
                            k, count + off * r, c, nu0, nu_inf, tw), (r, d, k, off)

    def test_counting_gate_fractional_class(self):
        # {k·c} ≠ 0 moves the window, and d = −4 empties J at small k
        for c, nu0, nu_inf in ((Fraction(3, 2), Fraction(2, 7), Fraction(1, 5)),
                               (Fraction(141421356, 10 ** 8), Fraction(0), Fraction(0))):
            for d in (-4, -1, 0, 1):
                for k in range(1, 120):
                    count = oracle_count(k, c, nu0, nu_inf, d)
                    assert counting_bound_holds(k, count, c, nu0, nu_inf,
                                                TwistData(1, d)), (c, d, k)


def py_window(k, c, nu0, nu_inf, d):
    """Reference (m, j_min, j_max) for one k, in Python integers."""
    m = k * c.numerator // c.denominator + d
    j_min = max(0, k * nu0.numerator // nu0.denominator)
    j_max = min(m, m - k * nu_inf.numerator // nu_inf.denominator)
    return m, j_min, j_max


def py_window_holds(k, count, c, nu0, nu_inf, tw):
    """Reference counting-window verdict for one k: q·(n − 1) < q·L ≤ q·(n + 1)
    in Python integers, with q = q₀·q_∞."""
    m, _, _ = py_window(k, c, nu0, nu_inf, tw.degree_shift)
    q = nu0.denominator * nu_inf.denominator
    qL = q * (m + 2) - k * (nu0.numerator * nu_inf.denominator
                            + nu_inf.numerator * nu0.denominator)
    if qL <= -q:
        return count == 0
    n, rem = divmod(count, tw.rank)
    return rem == 0 and q * (n - 1) < qL <= q * (n + 1)


def fractions(max_num, max_den=12):
    return st.builds(Fraction, st.integers(0, max_num), st.integers(1, max_den))


class TestArrayCounts:
    @settings(max_examples=60, deadline=None)
    @given(c=fractions(36).filter(lambda c: c > 0), nu0=fractions(12),
           nu_inf=fractions(12), d=st.integers(-3, 2), r=st.sampled_from([1, 2, 3]),
           ks=st.one_of(
               st.integers(1, 600).map(lambda hi: range(1, hi + 1)),
               st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=20,
                        unique=True).map(sorted)))
    def test_counts_and_verdicts_match_python_ints(self, c, nu0, nu_inf, d, r, ks):
        tw = TwistData(r, d)
        want = []
        for k in ks:
            _, j_min, j_max = py_window(k, c, nu0, nu_inf, d)
            want.append(r * max(0, j_max - j_min + 1))
        got = section_counts(ks, c, nu0, nu_inf, tw)
        assert got.dtype == np.int64 and got.tolist() == want
        # the true counts, and counts moved by a unit or by one or two ranks
        for off in (0, -1, 1, -r, r, -2 * r, 2 * r):
            verdicts = counting_window_holds(ks, got + off, c, nu0, nu_inf, tw)
            assert verdicts.tolist() == [
                py_window_holds(k, n + off, c, nu0, nu_inf, tw)
                for k, n in zip(ks, want)], off

    @pytest.mark.parametrize("k", [2 ** 62, 10 ** 19])
    def test_huge_k_raises_before_allocating(self, k):
        cfg = ExperimentConfig("volume", "third-quarter", k=[10], sweep_max=k)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="int64"):
                run_volume(cfg)
            with pytest.raises(InputError, match="int64"):
                counting_bound_holds(10, 2 ** 63, 1, Fraction(1, 3), Fraction(1, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_numpy_k_sequence_raises_past_int64(self):
        # the bounds are Python ints even when the k come as int64
        with pytest.raises(InputError, match="int64"):
            section_counts(np.array([2 ** 62, 2 ** 63 - 1]), 1, 0, 0)


class TestNorms:
    def test_beta_function_identity(self):
        b = base_profile(1)
        K, nu = WeightedSet.whole(), fs_measure()
        k = 20
        for j in (0, 3, 10, 20):
            got = l2_norm(j, k, b, K, nu) ** 2
            want = math.factorial(j) * math.factorial(k - j) / math.factorial(k + 1)
            assert got == pytest.approx(want, rel=1e-10)

    def test_symmetry(self):
        b = base_profile(1)
        K, nu = WeightedSet.whole(), fs_measure()
        for j in (2, 5):
            assert l2_norm(j, 11, b, K, nu) == pytest.approx(
                l2_norm(11 - j, 11, b, K, nu), rel=1e-10)

    def test_constant_weight_shift(self):
        b = base_profile(1)
        nu = fs_measure()
        k = 9
        n0 = l2_norm(4, k, b, WeightedSet.whole(), nu) ** 2
        n1 = l2_norm(4, k, b, WeightedSet.whole(v=lambda t: np.full_like(t, 0.3)), nu) ** 2
        assert n1 == pytest.approx(n0 * np.exp(-k * 0.3), rel=1e-10)

    def test_scipy_quad_oracle_with_weight(self):
        from scipy.integrate import quad

        u = THIRD_QUARTER
        K = WeightedSet.whole(v=lambda t: 0.2 * np.exp(-t * t))
        nu = fs_measure()
        k, j = 15, 7
        got = l2_norm(j, k, u, K, nu) ** 2

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
            l2_norm(0, 3, u, K, nu, singular_weight=True)
        # the admissible indices stay finite
        assert l2_norm(1, 3, u, K, nu, singular_weight=True) > 0

    def test_sup_norm_single_circle(self):
        b = base_profile(1)
        K = WeightedSet.circles([0.0])
        for k, j in ((8, 0), (8, 5), (12, 12)):
            assert sup_norm(j, k, b, K) == pytest.approx(2.0 ** (-k / 2), rel=1e-12)

    def test_sup_dominates_l2(self):
        b = base_profile(1)
        K = WeightedSet.interval(-1.0, 1.0)
        nu = annulus_area_measure()
        k = 10
        for j in range(0, 11):
            assert sup_norm(j, k, b, K) >= l2_norm(j, k, b, K, nu) * (1 - 1e-12)

    def test_weight_monotonicity(self):
        b = base_profile(1)
        K1 = WeightedSet.interval(-1.0, 1.0)
        K2 = K1.add_weight(lambda t: np.ones_like(t), 0.2)
        for j in (0, 4, 9):
            assert sup_norm(j, 9, b, K1) >= sup_norm(j, 9, b, K2)


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
            pieces[0] = lse(E(ts) + log_dens + np.log(ws))
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


def plan_log_norms2(k, u, K, nu, tw=TwistData(), singular=False):
    """(J, log N² of each z^j from one `_NormPlan`), bypassing the closed form."""
    basis = admissible_set(k, u, tw)
    assert basis.J
    plan = _NormPlan(k, basis.m, u, K, nu, singular)
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
        # one index per block, and all 1,001 in one block: on [−1, 1] at
        # k = 1000, z^0's and z^1000's peaks lie at opposite ends, so the
        # nodes one row skips are live in another row of the same block
        monkeypatch.setattr(sections, "KERNEL_BLOCK", block)
        u, K, nu = weighted_fixture("annulus-area")
        basis, logs = plan_log_norms2(1000, u, K, nu)
        log_n2 = per_index_log_norm2(1000, basis.m, u, K, nu)
        assert np.array_equal(logs, [log_n2(j) for j in basis.J])

    @pytest.mark.parametrize("k", [12, 400])
    def test_singular_weight_matches_per_index_quadrature(self, k):
        u, K, nu = weighted_fixture("third-quarter-fs")
        basis, logs = plan_log_norms2(k, u, K, nu, singular=True)
        log_n2 = per_index_log_norm2(k, basis.m, u, K, nu, singular=True)
        assert np.array_equal(logs, [log_n2(j) for j in basis.J])

    @pytest.mark.parametrize("fixture,k", [
        ("annulus-area", 12), ("annulus-atom", 12), ("bump-fs", 25),
    ])
    def test_basis_without_closed_form_is_the_plan(self, fixture, k):
        u, K, nu = weighted_fixture(fixture)
        _, logs = plan_log_norms2(k, u, K, nu)
        assert np.array_equal(section_basis(k, u, K, nu).log_norms2, logs)

    def test_sup_norms_match_per_index_scan(self):
        u = THIRD_QUARTER
        for K in (WeightedSet.interval(-1.0, 1.0, v=lambda t: 0.1 * t * t),
                  WeightedSet.whole(v=lambda t: 0.2 * np.exp(-t * t))):
            k = 20
            basis = admissible_set(k, u)
            assert basis.J
            plan = _SupPlan(k, basis.m, u, K, False)
            if K.whole_space:
                ts = K.sample_points()[0]
                scan = loop_refine(_pad_to_asymptotes(ts), k, np.concatenate([u.grid, ts]))
            else:
                scan = loop_refine(K.components[0][2], k, u.grid)
            want = [float(np.max(index_exponent(j, k, basis.m, u, K, False)(scan)))
                    for j in basis.J]
            assert [plan.log_sup2(j) for j in basis.J] == want

    def test_single_index_is_the_basis_entry(self):
        u, K, nu = weighted_fixture("bump-fs")
        basis = section_basis(20, u, K, nu)
        for i, j in enumerate(basis.J):
            assert log_norm2(j, 20, u, K, nu) == basis.log_norms2[i]


class TestPlanCells:
    """The plan's cells are the integrand's kinks refined at k, not ν's
    storage grid."""

    @pytest.mark.parametrize("k", [100, 400])
    def test_storage_nodes_are_no_cell_ends_on_the_fs_volume(self, k):
        # on vtheta-fs the integrand has no kink inside (−40, 40); the
        # refinement's own ends i·80/n − 40 with n = 201 and 401 cells miss
        # every 1/16 node
        u, K, nu = weighted_fixture("vtheta-fs")
        cells = _NormPlan(k, k, u, K, nu, False).cells
        storage = nu.breakpoints[1:-1]
        assert storage.size == 1279
        assert not np.isin(storage, cells).any()
        assert np.array_equal(cells, refine_breakpoints(nu.breakpoints[[0, -1]], k))

    @pytest.mark.parametrize("singular", [False, True])
    def test_window_contact_points_are_cell_ends(self, singular):
        u, K, nu = weighted_fixture("third-quarter-fs")
        contacts = [float(logit(1 / 3)), float(logit(3 / 4))]
        cells = _NormPlan(60, 60, u, K, nu, singular).cells
        assert np.isin(contacts, cells).all()
        assert np.array_equal(cells, refine_breakpoints(
            [-40.0, contacts[0], contacts[1], 40.0], 60))

    def test_sampled_nonzero_weight_keeps_its_nodes(self):
        u, nu = base_profile(1), annulus_area_measure()
        sampled = WeightedSet.interval(-1.0, 1.0, v=0.1 * np.linspace(-1, 1, 129) ** 2)
        exact = WeightedSet.interval(-1.0, 1.0, v=lambda t: 0.1 * t * t)
        nodes = sampled.components[0][2]
        assert np.isin(nodes, _NormPlan(12, 12, u, sampled, nu, False).cells).all()
        # as a callable, or as zero samples, the weight has no kink inside
        for K in (exact, WeightedSet.interval(-1.0, 1.0)):
            cells = _NormPlan(12, 12, u, K, nu, False).cells
            assert np.array_equal(cells, refine_breakpoints([-1.0, 1.0], 12))


def mp_log_norms2(k, u, tw=TwistData(), singular=False):
    """log N² over u's admissible set in mpmath: Beta values under the
    smooth convention; under the singular weight `betainc` for the middle
    and quadrature, split at x/2, for each tangent-line tail."""
    import mpmath as mp

    def mpq(q):
        return mp.mpf(q.numerator) / q.denominator

    basis = admissible_set(k, u, tw)
    assert basis.J
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

    @pytest.mark.parametrize("u,k,d,singular", [
        (THIRD_QUARTER, 12, 0, True),
        (THIRD_QUARTER, 60, 0, True),
        (SQRT2_WINDOW, 40, 0, True),       # {k·c} ≠ 0
        (THIRD_QUARTER, 30, -1, True),
        (THIRD_QUARTER, 30, 1, True),
        (THIRD_QUARTER, 30, 12, True),     # the series needs more than log ε / log x terms
        (window_envelope(1, Fraction(1, 3), 0), 30, 0, True),     # x₁ = 1
        (window_envelope(1, 0, Fraction(1, 4)), 30, 0, True),     # x₀ = 0
        (base_profile(1), 500, 0, False),
        (THIRD_QUARTER, 500, 1, False),
    ], ids=["tq-12", "tq-60", "sqrt2-40", "tq-30-d-1", "tq-30-d+1", "tq-30-d+12",
            "left-tail-only", "right-tail-only", "vtheta-500-smooth",
            "tq-500-d+1-smooth"])
    def test_against_mpmath(self, u, k, d, singular):
        import mpmath as mp

        tw = TwistData(1, d)
        with mp.workdps(30):
            basis, want = mp_log_norms2(k, u, tw, singular)
        if u is SQRT2_WINDOW:
            assert (k * SQRT2).denominator != 1
        got = section_basis(k, u, WeightedSet.whole(), fs_measure(), tw,
                            singular_weight=singular).log_norms2
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("u,k,d,singular", [
        (base_profile(1), 60, 0, False),
        (THIRD_QUARTER, 60, 1, False),
        (THIRD_QUARTER, 12, 0, True),
        (THIRD_QUARTER, 60, 0, True),
        (THIRD_QUARTER, 45, -1, True),
        (SQRT2_WINDOW, 40, 1, True),
    ])
    def test_agrees_with_the_plan(self, u, k, d, singular):
        K, nu = WeightedSet.whole(), fs_measure()
        tw = TwistData(1, d)
        _, want = plan_log_norms2(k, u, K, nu, tw, singular)
        got = section_basis(k, u, K, nu, tw, singular_weight=singular).log_norms2
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("u,k,d", [
        (THIRD_QUARTER, 30, -2),                                  # B + 2 ≤ 0
        (window_envelope(1, Fraction(99, 100), 0), 300, 0),      # x₀ = 0.99
    ], ids=["d-2", "window-end-near-c"])
    def test_plan_where_the_series_does_not_apply(self, u, k, d):
        K, nu = WeightedSet.whole(), fs_measure()
        tw = TwistData(1, d)
        _, want = plan_log_norms2(k, u, K, nu, tw, singular=True)
        got = section_basis(k, u, K, nu, tw, singular_weight=True).log_norms2
        assert np.array_equal(got, want)

    def test_boundary_indices_diverge(self):
        u, K, nu = TQ_FS
        _, J = admissible_indices(12, 1, Fraction(1, 3), Fraction(1, 4))
        for j in (J[0] - 1, J[-1] + 1):
            with pytest.raises(DivergentIntegralError):
                log_norm2(j, 12, u, K, nu, singular_weight=True)

    def test_large_k_is_finite_without_floating_point_exceptions(self):
        u, K, nu = TQ_FS
        k = 4000
        with np.errstate(all="raise"):
            bases = [section_basis(k, u, K, nu, singular_weight=True),
                     section_basis(k, u, K, nu, TwistData(1, 1), singular_weight=True),
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
    """ν with its density wrapped, so that `bergman` declines the closed
    form and integrates the kernel on its 32-node Gauss cells."""
    return RadialMeasure(nu.breakpoints, nu.cell_masses, nu.atoms,
                         density_fn=lambda t: logistic_density(t),
                         exact_total=nu.exact_total)


def refuse(*args, **kwargs):
    raise AssertionError("built where nothing needs it")


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

    def test_rank_scales_mass(self):
        u = THIRD_QUARTER
        r1 = bergman(12, u, WeightedSet.whole(), fs_measure())
        r2 = bergman(12, u, WeightedSet.whole(), fs_measure(), TwistData(2, 0))
        assert r2.h0 == 2 * r1.h0
        assert r2.total_mass == pytest.approx(2 * r1.total_mass, rel=1e-12)

    def test_empty_index_set_is_zero_kernel(self):
        u = base_profile(1)
        res = bergman(1, u, WeightedSet.whole(), fs_measure(), TwistData(1, -2))
        assert res.h0 == 0
        assert res.total_mass == 0.0

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

    def test_blocked_kernel_equals_one_piece_sum(self):
        # k = 60: 61 indices, so the norms' grid spans two blocks of rows
        u, K, nu = weighted_fixture("vtheta-fs")
        k = 60
        basis = section_basis(k, u, K, nu)
        js = np.asarray(basis.J, dtype=float)
        t = refine_breakpoints(sections._norm_breaks(u, K, nu), k)
        got = sections._kernel(t, k, basis.m, js, basis.log_norms2, K, 1)
        base = -float(basis.m) * softplus(t) - float(k) * K.weight_at(t)
        ex = js[None, :] * t[:, None] + base[:, None] - basis.log_norms2[None, :]
        assert t.size > sections.KERNEL_BLOCK // js.size     # at least two blocks
        assert np.array_equal(got, np.sum(np.exp(ex), axis=1))

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

    @pytest.mark.parametrize("fixture", ["vtheta-fs", "third-quarter-fs"])
    @pytest.mark.parametrize("k", [10, 60])
    @pytest.mark.parametrize("rank,d", [(1, 0), (2, 0), (1, 1), (1, -1)])
    def test_matches_the_quadrature_route(self, fixture, k, rank, d):
        u, K, nu = weighted_fixture(fixture)
        tw = TwistData(rank, d)
        exact = bergman(k, u, K, nu, tw)
        quad = bergman(k, u, K, quadrature_route(nu), tw)
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
        for name in ("gauss_cells", "_NormPlan", "_log_norms2", "_kernel"):
            monkeypatch.setattr(sections, name, refuse)
        for fixture in ("vtheta-fs", "third-quarter-fs"):
            u, K, nu = weighted_fixture(fixture)
            res = bergman(25, u, K, nu)
            assert res.total_mass == pytest.approx(res.h0 / 25, rel=1e-14)

    @pytest.mark.parametrize("fixture", ["vtheta-fs", "annulus-area", "annulus-atom",
                                         "bump-fs"])
    def test_empty_index_set_builds_only_the_grid(self, fixture, monkeypatch):
        # an empty J now builds not even the refined grid: every builder is
        # stubbed to raise, refine_breakpoints included
        for name in ("refine_breakpoints", "gauss_cells", "_NormPlan",
                     "_log_norms2", "_kernel"):
            monkeypatch.setattr(sections, name, refuse)
        u, K, nu = weighted_fixture(fixture)
        res = bergman(1, u, K, nu, TwistData(1, -2))
        assert res.h0 == 0 and res.total_mass == 0.0
        assert res.beta.cell_masses.size == 0 and not res.beta.atoms

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
            res = bergman(k, u, K, nu)
        assert np.all(np.isfinite(basis.log_norms2))
        assert np.all(np.isfinite(res.beta.cell_masses))
        assert abs(res.total_mass - res.h0 / k) <= 1e-8 * (res.h0 / k)

    def test_kernel_on_the_gauss_nodes_is_zero_or_normal(self, monkeypatch):
        # bump-fs at k = 200: far out every term of B lies at or below TINY,
        # and exp_normal writes it as 0.0, so B is 0.0 there, never a
        # subnormal (exp on every term made 999 of 61,440 values subnormal)
        u, K, nu = weighted_fixture("bump-fs")
        k = 200
        seen = []
        real = sections._kernel
        monkeypatch.setattr(sections, "_kernel",
                            lambda t, *rest: seen.append(real(t, *rest)) or seen[-1])
        bergman(k, u, K, nu)
        cells = refine_breakpoints(sections._norm_breaks(u, K, nu), 4 * k).size - 1
        assert [b.size for b in seen] == [cells * GL_NODES]
        assert np.count_nonzero(seen[0] == 0.0) > 0
        assert np.all((seen[0] == 0.0) | (seen[0] >= TINY))

    @pytest.mark.parametrize("block", [2 ** 10, sections.KERNEL_BLOCK])
    def test_kernel_prunes_only_terms_written_as_zero(self, block, monkeypatch):
        # bump-fs at k = 200, every 7th Gauss node of β: the pruned kernel
        # is exp_normal of every (node, index) term, summed by rows
        monkeypatch.setattr(sections, "KERNEL_BLOCK", block)
        u, K, nu = weighted_fixture("bump-fs")
        k = 200
        basis = section_basis(k, u, K, nu)
        js = np.asarray(basis.J, dtype=float)
        t, _ = gauss_cells(refine_breakpoints(sections._norm_breaks(u, K, nu), 4 * k))
        t = t[::7]
        got = sections._kernel(t, k, basis.m, js, basis.log_norms2, K, 1)
        base = -float(basis.m) * softplus(t) - float(k) * K.weight_at(t)
        ex = js[None, :] * t[:, None] + base[:, None] - basis.log_norms2[None, :]
        assert np.array_equal(got, np.sum(exp_normal(ex), axis=1))
        assert np.count_nonzero(got == 0.0) > 0

    @settings(max_examples=25, deadline=None)
    @given(u=window_profiles(), k=st.integers(1, 80), d=st.integers(-1, 1))
    def test_random_windows_match_the_quadrature_route(self, u, k, d):
        K, nu = WeightedSet.whole(), fs_measure()
        tw = TwistData(1, d)
        exact = bergman(k, u, K, nu, tw)
        quad = bergman(k, u, K, quadrature_route(nu), tw)
        assert np.max(np.abs(exact.beta.cell_masses - quad.beta.cell_masses),
                      initial=0.0) <= 1e-12
        assert exact.total_mass == pytest.approx(exact.h0 / k, rel=1e-13, abs=0.0)


class TestGram:
    def test_angle_independent_weight_is_diagonal(self):
        u = base_profile(1)
        K, nu = WeightedSet.whole(), fs_measure()
        k = 6
        basis = gram(k, u, K, lambda t, phi: np.zeros(np.broadcast(t, phi).shape), nu)
        G = basis.gram_matrix
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-12 * np.max(np.abs(np.diag(G)))
        for idx, j in enumerate(basis.J):
            want = l2_norm(j, k, u, K, nu) ** 2
            assert G[idx, idx].real == pytest.approx(want, rel=1e-9)

    def test_cosine_weight_bessel_structure(self):
        from scipy.special import iv

        u = base_profile(1)
        K, nu = WeightedSet.whole(), fs_measure()
        k, eps = 6, 0.5
        basis = gram(k, u, K, lambda t, phi: eps * np.cos(phi) + 0.0 * t, nu)
        G = basis.gram_matrix
        # angular factor of G_{j,j+1} is I_1(-k eps); ratios match Bessel
        diag_rad = np.diag(G).real
        band = np.abs(np.diag(G, 1))
        assert np.all(band > 0)
        # |I_1(k eps)| / I_0(k eps) ratio reproduced against radial means
        ratio = iv(1, k * eps) / iv(0, k * eps)
        mid = len(basis.J) // 2
        got = band[mid] / np.sqrt(diag_rad[mid] * diag_rad[mid + 1])
        assert got == pytest.approx(ratio, rel=0.2)
        # decay in |i - j|
        r0 = np.abs(G[mid, mid])
        assert np.abs(G[mid, mid + 1]) < r0
        assert np.abs(G[mid, mid + 2]) < np.abs(G[mid, mid + 1])

    def test_positive_definite(self):
        u = base_profile(1)
        basis = gram(5, u, WeightedSet.whole(),
                     lambda t, phi: 0.3 * np.cos(phi) + 0.0 * t, fs_measure())
        eig = np.linalg.eigvalsh(basis.gram_matrix)
        assert np.min(eig) > 0
        # nonzero coefficient vectors get strictly positive norms
        rng = np.random.default_rng(1)
        for _ in range(5):
            cvec = rng.normal(size=len(basis.J)) + 1j * rng.normal(size=len(basis.J))
            q = float(np.real(cvec.conj() @ basis.gram_matrix @ cvec))
            assert q > 0


class TestDonaldson:
    def test_zero_on_equal(self):
        u = THIRD_QUARTER
        A = section_basis(10, u, WeightedSet.whole(), fs_measure())
        assert donaldson(10, u, A, A) == 0.0

    def test_constant_shift_closed_form(self):
        u = THIRD_QUARTER
        k, a = 20, 0.4
        K0 = WeightedSet.whole()
        Ka = WeightedSet.whole(v=lambda t: np.full_like(t, a))
        A = section_basis(k, u, K0, fs_measure())
        B = section_basis(k, u, Ka, fs_measure())
        want = -a * len(A.J) / k
        assert donaldson(k, u, A, B) == pytest.approx(want, abs=1e-8)

    def test_mismatched_bases_rejected(self):
        u = THIRD_QUARTER
        A = section_basis(10, u, WeightedSet.whole(), fs_measure())
        B = section_basis(12, u, WeightedSet.whole(), fs_measure())
        with pytest.raises(InputError):
            donaldson(10, u, A, B)

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

    def test_exact_evaluation_survives_shift_and_resample(self):
        ap = bergman_approximant(8, base_profile(1))
        ts = np.asarray([-3.0, 0.0, 0.7, 5.0])
        assert np.array_equal(ap.shifted(0.25)(ts), ap(ts) + 0.25)
        assert np.array_equal(ap.resampled(np.linspace(-40, 40, 33))(ts), ap(ts))

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
            ks, u.class_mass, u.s_minus, u.class_mass - u.s_plus, TwistData())
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
        on_ap_grid = u.resampled(ap.grid)
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

    def test_gram(self):
        with pytest.raises(InputError, match="density_fn"):
            gram(5, base_profile(1), WeightedSet.whole(),
                 lambda t, phi: 0.3 * np.cos(phi) + 0.0 * t, self.NU)
