"""ℙ¹ inversion as an oracle: z ↦ 1/z sends t to −t and z^j to z^{m−j},
and swaps ν₀ with ν_∞.  Counts, index sets, norms, β, weighted envelopes
and energies of a window profile must agree with those of its mirror
image."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envlab import (
    WeightedSet,
    admissible_indices,
    admissible_set,
    annulus_area_measure,
    bergman,
    bergman_approximant,
    contact_leakage,
    fs_measure,
    section_basis,
    weighted_envelope,
)
from envlab.energy import equilibrium_energy
from envlab.basefun import logistic_density
from envlab.envelopes import window_envelope
from envlab.errors import EnvlabError, NoSectionsError
from envlab.experiments import weighted_fixture
from envlab.measures import RadialMeasure
from envlab.quadrature import union
from envlab.sections import _area_beta_cell_masses, _closed_form_density, section_counts
from test_sections import window_profiles

# Bounds on |original − mirror image|, each about 4× the largest seen:
# singular-weight log N², relative to max(1, |log N²|): 1.4e-14 over 800
# draws (the ₂F₁ tails), 2.2e-16 on third-quarter for k = 25..3000
SINGULAR_REL = 1e-13
THIRD_QUARTER_REL = 2.0 ** -51
# β's cells on the annulus, closed form against the mirror's plan: 5.9e-14
# of β's total mass over 450 draws; on annulus-area for k ≤ 1000, 5.3e-15
# absolute and 6.6e-14 relative per cell
ANNULUS_OF_TOTAL = 2e-13
ANNULUS_ABS = 2e-14
ANNULUS_REL = 2e-13
# β's CDFs, |F(t) + F′(−t) − mass| over β's breakpoints, of the mass:
# 5.5e-15 over 52,571 draws on the FS volume (closed form, k ≤ 400) and
# 3.6e-14 over 17,208 draws on bump-fs (the plan, k ≤ 200)
FS_CDF_OF_MASS = 2e-14
BUMP_CDF_OF_MASS = 1.5e-13
# Bergman approximants, |F̃(t) − F̃′(−t) − (m/k)·t| relative to
# max(1, |F̃(t)|) on both grids: 1.8e-14 over 18,431 draws (k ≤ 1000)
APPROX_REL = 7.5e-14
# weighted envelopes on drawn (u, K), |E′(−t) − E(t) + c·t| relative to
# max(1, |E(t)|): 1.4e-14 over 20,000 draws.  Over the same draws the
# energies differ by up to 2.3e-13 and the leakage totals by 1.2e-12, and
# no leak exceeds 1.4e-12: every atom sits on an obstacle sample, and a
# leak is a rounding-size kink at a sample the envelope passes below
ENVELOPE_REL = 6e-14
ENERGY_REL = 9e-13
LEAKAGE_TOTAL_REL = 5e-12
LEAK_ABS = 6e-12


def mirror(u, K, nu):
    """(u, K, ν) under t ↦ −t, for a window envelope u.

    u's image is the window envelope with ν₀ and ν_∞ swapped.  K is
    reflected with weight v(−t).  ν's breakpoints are negated and
    reversed, its masses reversed, its atoms negated, and its density
    becomes ρ(−t); the FS density is even, so it stays the same object.
    """
    c = u.class_mass
    v_fn = K.v_fn
    K_m = WeightedSet(
        tuple((-b, -a, -grid[::-1], vals[::-1]) for a, b, grid, vals in K.components),
        K.whole_space, None if v_fn is None else (lambda t: v_fn(-np.asarray(t))))
    f = nu.density_fn
    rho = f if f is None or f is logistic_density else (lambda t: f(-np.asarray(t)))
    nu_m = RadialMeasure(-nu.breakpoints[::-1], nu.cell_masses[::-1],
                         tuple((-t, w) for t, w in reversed(nu.atoms)),
                         density_fn=rho)
    return window_envelope(c, c - u.s_plus, u.s_minus), K_m, nu_m


@settings(max_examples=100, deadline=None)
@given(u=window_profiles(), k=st.integers(1, 400), d=st.integers(-3, 3))
def test_index_sets_and_counts_reflect(u, k, d):
    # the counts alone take a twist
    v = mirror(u, WeightedSet.whole(), fs_measure())[0]
    c = u.class_mass
    m, J = admissible_indices(k, c, u.s_minus, c - u.s_plus, d)
    assert admissible_indices(k, c, v.s_minus, c - v.s_plus, d) == (
        m, [m - j for j in reversed(J)])
    ks = np.arange(1, k + 1)
    assert np.array_equal(
        section_counts(ks, c, c - u.s_plus, u.s_minus, d),
        section_counts(ks, c, u.s_minus, c - u.s_plus, d))


@settings(max_examples=60, deadline=None)
@given(u=window_profiles(), k=st.integers(1, 300))
def test_fs_norms_reflect(u, k):
    K, nu = WeightedSet.whole(), fs_measure()
    v, K_m, nu_m = mirror(u, K, nu)
    a, b = section_basis(k, u, K, nu), section_basis(k, v, K_m, nu_m)
    assert b.log_norms2.tobytes() == a.log_norms2[::-1].tobytes()
    try:
        a = section_basis(k, u, K, nu, singular_weight=True).log_norms2
    except EnvlabError as exc:
        with pytest.raises(type(exc)):
            section_basis(k, v, K_m, nu_m, singular_weight=True)
        return
    b = section_basis(k, v, K_m, nu_m, singular_weight=True).log_norms2[::-1]
    assert np.all(np.abs(b - a) <= SINGULAR_REL * np.maximum(1.0, np.abs(a)))


# ids "k-0": the names these cases had while the norms took a twist d, here 0
@pytest.mark.parametrize("k", [pytest.param(k, id=f"{k}-0") for k in (25, 200, 1000, 3000)])
def test_third_quarter_singular_norms_reflect(k):
    u, K, nu = weighted_fixture("third-quarter-fs")
    v, K_m, nu_m = mirror(u, K, nu)
    a = section_basis(k, u, K, nu, singular_weight=True).log_norms2
    b = section_basis(k, v, K_m, nu_m, singular_weight=True).log_norms2[::-1]
    assert np.all(np.abs(b - a) <= THIRD_QUARTER_REL * np.abs(a))


def annulus_cells(k, u):
    """β's cells on annulus-area's (K, ν) with u, and those of the mirror
    image reflected back, after checking the routes each takes."""
    K, nu = WeightedSet.interval(-1.0, 1.0), annulus_area_measure()
    v, K_m, nu_m = mirror(u, K, nu)
    # e^{−t} is not an `AreaDensity`, so the mirror's β takes the plan
    assert _closed_form_density(K, nu) is not None
    assert _closed_form_density(K_m, nu_m) is None
    res = bergman(k, v, K_m, nu_m)
    basis = admissible_set(k, u)
    assert res.h0 == len(basis.J)
    beta = bergman(k, u, K, nu).beta
    assert np.max(np.abs(-res.beta.breakpoints[::-1] - beta.breakpoints)) <= 1e-15
    # the original's β is `_area_beta_cell_masses`, which declines only at m = 0
    closed = _area_beta_cell_masses(beta.breakpoints, basis.m, basis.J, 1 / k)
    assert (closed is None) == (basis.m < 1)
    return beta.cell_masses, res.beta.cell_masses[::-1]


@settings(max_examples=25, deadline=None)
@given(u=window_profiles(), k=st.integers(1, 1000))
def test_annulus_closed_form_matches_the_mirror_plan(u, k):
    # far cells hold e^{−O(k)} of the mass: only the absolute error is bounded
    want, got = annulus_cells(k, u)
    assert np.all(np.abs(got - want) <= ANNULUS_OF_TOTAL * np.sum(want))


@pytest.mark.parametrize("k", [1, 5, 25, 200, 1000])
def test_annulus_area_matches_the_mirror_plan_per_cell(k):
    u = weighted_fixture("annulus-area")[0]
    want, got = annulus_cells(k, u)
    err = np.abs(got - want)
    assert np.max(err) <= ANNULUS_ABS
    assert np.max(err / want) <= ANNULUS_REL


def cdf_mirror_error(k, u, K, nu):
    """max |F(t) + F′(−t) − mass| over β's breakpoints, of β's mass, where
    F is β's CDF and F′ that of the mirror image's β."""
    beta = bergman(k, u, K, nu).beta
    image = bergman(k, *mirror(u, K, nu)).beta
    t = beta.breakpoints
    mass = beta.total_mass()
    return np.max(np.abs(beta.cdf(t) + image.cdf(-t) - mass)) / mass


@settings(max_examples=40, deadline=None)
@given(u=window_profiles(), k=st.integers(1, 400))
def test_fs_beta_cdfs_reflect(u, k):
    K, nu = WeightedSet.whole(), fs_measure()
    assert _closed_form_density(K, nu) is logistic_density
    assert cdf_mirror_error(k, u, K, nu) <= FS_CDF_OF_MASS


@settings(max_examples=15, deadline=None)
@given(u=window_profiles(), k=st.integers(1, 200))
def test_bump_beta_cdfs_reflect(u, k):
    _, K, nu = weighted_fixture("bump-fs")
    assert _closed_form_density(K, nu) is None
    assert cdf_mirror_error(k, u, K, nu) <= BUMP_CDF_OF_MASS


@settings(max_examples=40, deadline=None)
@given(u=window_profiles(), k=st.integers(1, 1000))
def test_approximants_reflect(u, k):
    # F̃ is (1/k)·log Σ_J e^{j·t}/N_j², and J′ = m − J with the same norms
    v = mirror(u, WeightedSet.whole(), fs_measure())[0]
    try:
        a = bergman_approximant(k, u)
    except NoSectionsError:
        with pytest.raises(NoSectionsError):
            bergman_approximant(k, v)
        return
    b = bergman_approximant(k, v)
    m = admissible_set(k, u).m
    assert (b.s_minus, b.s_plus) == (Fraction(m, k) - a.s_plus, Fraction(m, k) - a.s_minus)
    t = union(a.grid, -b.grid)
    want = a.exact(t)
    err = np.abs(b.exact(-t) + m / k * t - want)
    assert np.all(err <= APPROX_REL * np.maximum(1.0, np.abs(want)))


@st.composite
def mirror_windows(draw):
    """window_envelope(c, ν₀, ν_∞) with c ∈ {1, 2, 3/2} and ν₀, ν_∞
    multiples of c/24 with ν₀ + ν_∞ ≤ c."""
    c = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
    a = draw(st.integers(0, 24))
    b = draw(st.integers(0, 24 - a))
    return window_envelope(c, c * Fraction(a, 24), c * Fraction(b, 24))


@st.composite
def weighted_sets(draw):
    """K as an interval with or without a callable weight, as 1–3 circles
    with weights, or as the whole line with a shifted bump sampled on a
    grid of half-width 1, 3 or 8, which the obstacle pads to ±40."""
    eighths = st.integers(-24, 24).map(lambda i: i / 8)
    kind = draw(st.sampled_from(["interval", "weighted", "circles", "bump"]))
    amp, shift = draw(st.floats(-0.5, 0.5)), draw(eighths)

    def bump(t):
        return amp * np.exp(-np.square(np.asarray(t) - shift))

    if kind == "circles":
        ts = sorted(draw(st.lists(eighths, min_size=1, max_size=3, unique=True)))
        return WeightedSet.circles(ts, draw(st.lists(st.floats(-0.5, 0.5),
                                                     min_size=len(ts), max_size=len(ts))))
    if kind == "bump":
        half = draw(st.sampled_from([1, 3, 8]))
        return WeightedSet.whole(grid=np.linspace(-half, half, 16 * half + 1), v=bump)
    a, b = sorted(draw(st.lists(eighths, min_size=2, max_size=2, unique=True)))
    return WeightedSet.interval(a, b, bump if kind == "weighted" else None)


def envelope_mirror_errors(u, K):
    """|E′(−t) − E(t) + c·t| relative to max(1, |E(t)|) over both grids,
    where E is u's weighted envelope on K and E′ the mirror image's, and
    the differences of `equilibrium_energy` and of `contact_leakage`'s
    totals, each relative to max(1, the original's), and both leaks.
    The tail slopes must reflect exactly: s′₋ = c − s₊, s′₊ = c − s₋."""
    c = u.class_mass
    v, K_m, _ = mirror(u, K, fs_measure())
    E, F = weighted_envelope(u, K), weighted_envelope(v, K_m)
    assert (F.s_minus, F.s_plus) == (c - E.s_plus, c - E.s_minus)
    t = union(E.grid, -F.grid)
    want = E(t) - float(c) * t
    env = float(np.max(np.abs(F(-t) - want) / np.maximum(1.0, np.abs(E(t)))))
    e, e_m = equilibrium_energy(u, K), equilibrium_energy(v, K_m)
    (leak, total), (leak_m, total_m) = contact_leakage(E, K), contact_leakage(F, K_m)
    return (env, abs(e_m - e) / max(1.0, abs(e)),
            abs(total_m - total) / max(1.0, total), max(leak, leak_m))


def full_window_bump(a):
    """K of the "bump" kind with half-width 8 and shift 9/8."""
    return WeightedSet.whole(grid=np.linspace(-8, 8, 129),
                             v=lambda t: a * np.exp(-(np.asarray(t) - 1.125) ** 2))


@settings(max_examples=100, deadline=None)
@given(u=mirror_windows(), K=weighted_sets())
# c = 3/2, ν₀ = ν_∞ = 0: these bumps once crashed the envelope's assembly
@example(u=window_envelope(Fraction(3, 2), 0, 0), K=full_window_bump(-0.225))
@example(u=window_envelope(Fraction(3, 2), 0, 0), K=full_window_bump(-0.2))
@example(u=window_envelope(Fraction(3, 2), 0, 0), K=full_window_bump(-0.15))
def test_weighted_envelopes_and_energies_reflect(u, K):
    env, energy, total, leak = envelope_mirror_errors(u, K)
    assert env <= ENVELOPE_REL
    assert energy <= ENERGY_REL
    assert total <= LEAKAGE_TOTAL_REL
    assert leak <= LEAK_ABS
