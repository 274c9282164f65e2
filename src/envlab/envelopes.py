"""Constrained convex envelopes via restricted Legendre transforms.

All envelopes here are "maximal convex function below an obstacle with
slopes confined to a window".  The restricted conjugate of the obstacle
is computed by the monotone-pointer linear-time walk over the obstacle's
lower hull; the envelope is the upper envelope of the resulting tangent
lines, assembled as a piecewise-linear profile whose tail slopes are the
exact rational window endpoints.

The hull is taken only on the contact slice of the samples: from the
first maximizer of lo·t − f to the last maximizer of hi·t − f.  Every
hull chord left of it is at most lo and every one right of it at least
hi, so they clip to the window ends, which are slopes already; the slopes
and the conjugate values are those of the whole line's hull.  Both hulls
are exact: `lower_hull` decides an orientation test in `Fraction`s
wherever float rounding could decide it.  The slice's ends are not: they
are maximizers among float values.  On samples that lie on a line of
slope lo or hi only to rounding, a slice end can fall on another of
those samples than in exact arithmetic, and the whole line's hull then
gives an extra slope an ulp inside the window; the two envelopes agree
as functions to rounding.

Two closed-form fast paths exist: the slope-window envelope of the base
potential (the I-model projection, evaluated by `WindowEnvelope`) and
rooftops of two such envelopes (window intersection).  Everything else
lives in the piecewise-linear world, where the algebraic identities
asserted by the test-suite hold exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .basefun import as_fraction, fs_conjugate, softplus
from .errors import FeasibilityError, InfeasibleClassError, InputError
from .measures import ma_measure
from .profiles import (
    ConvexProfile,
    SlopeWindow,
    WeightedSet,
    WindowEnvelope,
    _pad_to_asymptotes,
    base_profile,
    merge_grids,
    mix_profiles,
    sample_with_crossings,
)
from .quadrature import TINY, insert_interior, refine_breakpoints, union

__all__ = [
    "i_model_envelope",
    "window_envelope",
    "weighted_envelope",
    "rooftop",
    "p_shift",
    "divergence",
    "kahler_current_minorant",
    "restricted_biconjugate",
    "contact_leakage",
    "envelope_of_samples",
]


# ---------------------------------------------------------------------------
# discrete Legendre machinery
# ---------------------------------------------------------------------------

def lower_hull(ts: np.ndarray, fs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of sampled function data."""
    # Python floats: the same IEEE arithmetic as numpy scalars, at a
    # fraction of the cost per operation
    t, f = ts.tolist(), fs.tolist()
    keep: list[int] = []
    for i in range(len(t)):
        while len(keep) >= 2:
            i0, i1 = keep[-2], keep[-1]
            df1, df = f[i1] - f[i0], f[i] - f[i0]
            lhs, rhs = df1 * (t[i] - t[i0]), df * (t[i1] - t[i0])
            if ((df1 and -TINY < lhs < TINY) or (df and -TINY < rhs < TINY)
                    or abs(lhs - rhs) <= 1e-15 * (abs(lhs) + abs(rhs))):
                # a product of nonzero factors (the ts are distinct) has
                # underflowed, to 0.0 say, or the two sides agree to within
                # the rounding of their differences and products (relative
                # 3·2⁻⁵³ each): decide the test in exact Fractions
                x0, x1, x, y0, y1, y = map(Fraction, (t[i0], t[i1], t[i], f[i0], f[i1], f[i]))
                lhs, rhs = (y1 - y0) * (x - x0), (y - y0) * (x1 - x0)
            # pop i1 when it lies on or above the chord i0 -> i
            if lhs >= rhs:
                keep.pop()
            else:
                break
        keep.append(i)
    idx = np.asarray(keep, dtype=int)
    return ts[idx], fs[idx]


def conjugate_at_slopes(ts, fs, slopes) -> np.ndarray:
    """c(s) = max_i (s·t_i − f_i) for ascending slopes.

    (ts, fs) must be the vertices of a lower convex hull (`lower_hull`),
    which is all the conjugate sees of any data: a single monotone pointer
    walks them, O(n + |slopes|) total.
    """
    ht = np.asarray(ts, dtype=float).tolist()
    hf = np.asarray(fs, dtype=float).tolist()
    out = np.empty(len(slopes))
    j = 0
    n = len(ht)
    for i, s in enumerate(np.asarray(slopes, dtype=float).tolist()):
        while j + 1 < n and s * ht[j + 1] - hf[j + 1] >= s * ht[j] - hf[j]:
            j += 1
        out[i] = s * ht[j] - hf[j]
    return out


def _upper_envelope_lines(slopes, cvals):
    """Active lines of t ↦ max_s (s·t − c(s)) and their switch points.

    Lines come sorted by slope; equal slopes keep the smaller c (higher
    line).  Ties in the pointwise max resolve toward the smaller slope.
    """
    pts: list[tuple[float, float]] = []
    for s, c in zip(slopes, cvals):
        if pts and pts[-1][0] == s:
            if c < pts[-1][1]:
                pts[-1] = (s, c)
        else:
            pts.append((s, c))

    def x_cross(i, j):
        return (pts[j][1] - pts[i][1]) / (pts[j][0] - pts[i][0])

    keep: list[int] = []
    for i in range(len(pts)):
        while len(keep) >= 2 and x_cross(keep[-2], i) <= x_cross(keep[-2], keep[-1]):
            keep.pop()
        keep.append(i)
    switches = [x_cross(keep[j], keep[j + 1]) for j in range(len(keep) - 1)]
    act = [pts[j] for j in keep]
    return act, switches


def _assemble(window: SlopeWindow, slopes, cvals, extra_nodes) -> ConvexProfile:
    """PL profile of the upper line envelope; tails = exact window slopes."""
    act, switches = _upper_envelope_lines(slopes, cvals)
    act_s = np.asarray([a[0] for a in act])
    act_c = np.asarray([a[1] for a in act])
    if len(act) == 1:
        if extra_nodes is not None and np.ptp(extra_nodes) > 0:
            grid = np.asarray([float(np.min(extra_nodes)), float(np.max(extra_nodes))])
        else:
            grid = np.asarray([-1.0, 1.0])
        vals = act_s[0] * grid - act_c[0]
        return ConvexProfile(
            window.c, grid, vals, window.lo, window.lo, -act_c[0], -act_c[0]
        )
    grid = merge_grids(insert_interior(np.sort(switches), extra_nodes))
    if grid.size < 2:
        grid = union(grid, grid + 1.0)
    vals = np.max(grid[:, None] * act_s[None, :] - act_c[None, :], axis=1)
    return ConvexProfile(
        window.c, grid, vals, window.lo, window.hi,
        -float(act_c[0]), -float(act_c[-1]),
    )


def envelope_of_samples(
    window: SlopeWindow,
    obs_ts,
    obs_fs,
    extra_nodes=None,
    limit_lo: float | None = None,
    limit_hi: float | None = None,
) -> ConvexProfile:
    """Maximal convex minorant of PL sample data with slopes in `window`.

    Samples that repeat a t count once, with their smallest f.

    limit_lo / limit_hi inject sup values attained at t = ∓∞ into the
    conjugate at the window endpoints (only meaningful when lo = 0 resp.
    hi = c, where the obstacle levels off in the unbounded direction).
    The hull and the conjugate see only the contact slice (module doc).
    """
    obs_ts = np.asarray(obs_ts, dtype=float)
    obs_fs = np.asarray(obs_fs, dtype=float)
    if obs_ts.size == 0:
        raise InputError("empty obstacle")
    if not (np.all(np.isfinite(obs_ts)) and np.all(np.isfinite(obs_fs))):
        raise InputError("obstacle samples must be finite")
    # by t, then f: a repeated t keeps its smallest f, as a minorant must
    order = np.lexsort((obs_fs, obs_ts))
    obs_ts, obs_fs = obs_ts[order], obs_fs[order]
    first_at_t = np.concatenate(([True], obs_ts[1:] != obs_ts[:-1]))
    obs_ts, obs_fs = obs_ts[first_at_t], obs_fs[first_at_t]

    lo_f, hi_f = float(window.lo), float(window.hi)
    # the contact slice: from the first maximizer of lo·t − f to the last
    # of hi·t − f; hull chords outside it clip to lo resp. hi
    first = int(np.argmax(lo_f * obs_ts - obs_fs))
    last = obs_ts.size - 1 - int(np.argmax((hi_f * obs_ts - obs_fs)[::-1]))
    contact = slice(first, max(first, last) + 1)
    ht, hf = lower_hull(obs_ts[contact], obs_fs[contact])
    chords = np.diff(hf) / np.diff(ht) if ht.size > 1 else np.empty(0)
    slopes = union([lo_f, hi_f], np.clip(chords, lo_f, hi_f))
    cvals = conjugate_at_slopes(ht, hf, slopes)
    if limit_lo is not None and slopes[0] == lo_f:
        cvals[0] = max(cvals[0], limit_lo)
    if limit_hi is not None and slopes[-1] == hi_f:
        cvals[-1] = max(cvals[-1], limit_hi)
    nodes = obs_ts if extra_nodes is None else union(obs_ts, extra_nodes)
    return _assemble(window, list(slopes), list(cvals), nodes)


# ---------------------------------------------------------------------------
# envelope operations
# ---------------------------------------------------------------------------

def window_envelope(c, nu0, nu_inf, grid=None) -> ConvexProfile:
    """Closed-form envelope of the base potential over a Lelong window.

    Maximal convex minorant of c·f_FS with slopes in [ν₀, c − ν_∞]:
    equals c·f_FS where c·σ(t) sits inside the window and continues as
    exact tangent lines outside.  An empty window raises unless it
    degenerates to the single admissible slope.
    """
    c = as_fraction(c)
    nu0 = as_fraction(nu0)
    nu_inf = as_fraction(nu_inf)
    lo, hi = nu0, c - nu_inf
    if lo > hi:
        raise InfeasibleClassError(
            f"Lelong pair ({nu0}, {nu_inf}) exceeds class mass {c}"
        )
    if grid is None:
        grid = _pad_to_asymptotes(np.asarray([-1.0, 0.0, 1.0]))
    else:
        grid = _pad_to_asymptotes(np.asarray(grid, dtype=float))
    exact = WindowEnvelope(c, lo, hi)
    # g*(0) = g*(c) = 0, so the same formula covers the base tails
    return ConvexProfile(
        c, grid, exact(grid), lo, hi,
        -fs_conjugate(lo, c), -fs_conjugate(hi, c), exact=exact,
    )


def i_model_envelope(p: ConvexProfile) -> ConvexProfile:
    """Projection onto the model class of p's singularity data.

    Depends on p only through (class mass, slope window), hence
    idempotent by construction.
    """
    return window_envelope(p.class_mass, p.s_minus, p.class_mass - p.s_plus, p.grid)


def _obstacle_samples(class_mass, K: WeightedSet):
    """Sampled obstacle c·f_FS + v over K, extended for whole-space K."""
    ts, vs = K.sample_points()
    if K.whole_space:
        padded = _pad_to_asymptotes(ts)
        n_left = int(np.searchsorted(padded, ts[0]))
        vs = np.concatenate([np.full(n_left, vs[0]), vs,
                             np.full(padded.size - n_left - ts.size, vs[-1])])
        ts = padded
    return ts, float(class_mass) * softplus(ts) + vs


def weighted_envelope(p: ConvexProfile, K: WeightedSet) -> ConvexProfile:
    """Maximal convex minorant of (c·f_FS + v on K) with p's slope window.

    Takes the restricted conjugate of the sampled obstacle directly.  The
    route through the base-window envelope of (K, v), projected below
    afterwards, gives the same profile for exact linear-tail profiles;
    the suite builds that route and asserts the equality.
    """
    c = p.class_mass
    window = p.window
    _, vs = K.sample_points()
    if K.whole_space and not np.any(vs):
        # (K, v) = (X, 0): the weighted envelope is the I-model projection
        return i_model_envelope(p)
    obs_ts, obs_phi = _obstacle_samples(c, K)
    return envelope_of_samples(
        window, obs_ts, obs_phi, extra_nodes=obs_ts,
        limit_lo=-vs[0] if (K.whole_space and window.lo == 0) else None,
        limit_hi=-vs[-1] if (K.whole_space and window.hi == c) else None,
    )


def rooftop(p: ConvexProfile, q: ConvexProfile) -> ConvexProfile:
    """Maximal convex minorant of min(F_p, F_q) with slopes in [0, c].

    Feasible iff the slope windows intersect; for two base-window
    envelopes the result is the envelope of the intersected window.
    """
    if p.class_mass != q.class_mass:
        raise InputError("class mass mismatch")
    lo = max(p.s_minus, q.s_minus)
    hi = min(p.s_plus, q.s_plus)
    if lo > hi:
        raise InfeasibleClassError(
            "slope windows are disjoint: the minimum has no convex minorant"
        )
    grid = union(p.grid, q.grid)
    if isinstance(p.exact, WindowEnvelope) and isinstance(q.exact, WindowEnvelope):
        return window_envelope(p.class_mass, lo, p.class_mass - hi, grid)
    grid, fp, fq = sample_with_crossings(p, q, grid)
    obs = np.minimum(fp, fq)
    return envelope_of_samples(
        SlopeWindow(lo, hi, p.class_mass), grid, obs, extra_nodes=grid
    )


def p_shift(b, u: ConvexProfile, v: ConvexProfile) -> ConvexProfile:
    """Maximal convex H with slopes in [0, c] and H + (b−1)·F_v ≤ b·F_u.

    Requires nested windows ([u] refines [v]) and the strict mass bound
    b < mass(v)/(mass(v) − mass(u)); violating it raises.
    """
    if isinstance(b, float):
        b = Fraction(b)
    b = as_fraction(b)
    if b <= 1:
        raise FeasibilityError("shift factor must exceed 1")
    if u.class_mass != v.class_mass:
        raise InputError("class mass mismatch")
    if not v.window.contains(u.window):
        raise FeasibilityError("windows not nested: [u] must refine [v]")
    mu, mv = u.mass, v.mass
    if mv > mu and b * (mv - mu) >= mv:
        raise FeasibilityError(
            f"shift factor {b} outside (1, {mv / (mv - mu)}) allowed by the masses"
        )
    sig_lo = b * u.s_minus - (b - 1) * v.s_minus
    sig_hi = b * u.s_plus - (b - 1) * v.s_plus
    merged = union(u.grid, v.grid)
    grid = refine_breakpoints(merged, 0, max_width=1.0 / 32.0)
    bf = float(b)
    psi = bf * u(grid) - (bf - 1.0) * v(grid)
    h = envelope_of_samples(
        SlopeWindow(sig_lo, sig_hi, u.class_mass), grid, psi, extra_nodes=merged
    )
    # operands with an exact evaluator curve below their chords between
    # samples; verify the defining inequality on a finer aligned grid and
    # absorb any excess (plus the analytic curvature slack) into a
    # downward shift
    h_val = 1.0 / 128.0
    vgrid = refine_breakpoints(union(h.grid, merged), 0, max_width=h_val)
    viol = float(np.max(h(vgrid) + (bf - 1.0) * v(vgrid) - bf * u(vgrid)))
    slack = 0.0
    curvature = float(u.class_mass) / 4.0
    if u.exact is not None:
        slack += bf * curvature * h_val ** 2 / 8.0
    if v.exact is not None:
        slack += (bf - 1.0) * curvature * h_val ** 2 / 8.0
    margin = viol + slack
    if margin > 0:
        h = h.shifted(-margin)
    return h


def divergence(u: ConvexProfile, v: ConvexProfile) -> Fraction:
    """Mixed-mass gap 2·mass(max(u,v)) − mass(u) − mass(v), exact.

    Equals |Δν₀| + |Δν_∞| for linear-tail profiles: symmetric, zero on
    same-type pairs, and a metric with triangle constant 1.
    """
    if u.class_mass != v.class_mass:
        raise InputError("class mass mismatch")
    max_hi = max(u.s_plus, v.s_plus)
    min_lo = min(u.s_minus, v.s_minus)
    return 2 * (max_hi - min_lo) - u.mass - v.mass


def _curvature_ratio(p: ConvexProfile) -> float:
    """min over grid cells of (discrete F'') / (discrete f_FS'').

    Cells where the base curvature sits below float noise are skipped;
    they carry no usable comparison.
    """
    d2 = np.diff(p.chord_slopes())
    base_chords = np.diff(softplus(p.grid)) / np.diff(p.grid)
    d2b = np.diff(base_chords)
    ok = d2b > 1e-10
    if not np.any(ok):
        return 0.0
    return float(np.min(d2[ok] / d2b[ok]))


def kahler_current_minorant(u: ConvexProfile) -> tuple[ConvexProfile, float]:
    """v ≤ u with discrete curvature ≥ δ·(f_FS)'' and reported δ > 0.

    When u itself is uniformly curved relative to the base it is its own
    minorant; otherwise envelope-shift against the base potential and mix
    the base back in, reporting the measured curvature ratio.
    """
    if u.mass <= 0:
        raise FeasibilityError("minorant construction needs positive mass")
    own = _curvature_ratio(u)
    if own >= 1e-9:
        return u, own
    c = u.class_mass
    base = base_profile(c, u.grid)
    b = Fraction(1) if u.mass == c else u.mass / (2 * (c - u.mass))
    h = p_shift(1 + b, u, base)
    v = mix_profiles(b / (1 + b), base, h)
    return v, _curvature_ratio(v)


def restricted_biconjugate(p: ConvexProfile) -> ConvexProfile:
    """Biconjugate with window [s₋, s₊]; the identity on valid profiles."""
    return envelope_of_samples(
        p.window, p.grid, np.asarray(p.values, dtype=float), extra_nodes=p.grid
    )


# relative distance below which the envelope counts as touching the obstacle
CONTACT_TOL = 1e-9


def contact_leakage(env: ConvexProfile, K: WeightedSet):
    """(mass outside the contact set, total mass) for env's MA measure.

    Contact set: points of K where the envelope touches the obstacle
    c·f_FS + v within CONTACT_TOL·scale.
    """
    mu = ma_measure(env)
    ts, vs = K.sample_points()
    phi = float(env.class_mass) * softplus(ts) + vs
    gap = np.abs(env(ts) - phi)
    scale = max(1.0, float(np.max(np.abs(phi))))
    contact = ts[gap <= CONTACT_TOL * scale]
    at, aw = np.asarray(mu.atoms, dtype=float).reshape(-1, 2).T
    touched = np.any(np.abs(contact[None, :] - at[:, None]) <= 1e-9, axis=1)
    bp = mu.breakpoints
    inside = K.contains(0.5 * (bp[:-1] + bp[1:]))
    # added one by one, atoms then cells, as a loop over them would
    leaked = np.concatenate([aw[~touched], mu.cell_masses[~inside]])
    leak = float(np.cumsum(leaked)[-1]) if leaked.size else 0.0
    return leak, mu.total_mass()
