"""Constrained convex envelopes of sampled obstacles.

All envelopes here are "maximal convex function below an obstacle with
slopes confined to a window".  For samples it is the lower hull of their
contact slice, from the first maximizer of lo·t − f to the last of
hi·t − f: every chord on it lies in [lo, hi], so its vertices, joined
linearly and continued by the window's tail lines, are the envelope.
The slice's ends and the hull's orientation tests are exact (a float
decides only where rounding cannot change the answer, `Fraction`s the
rest), so every Monge–Ampère atom sits on a sample.

One closed-form fast path exists: the slope-window envelope of the base
potential (the I-model projection, evaluated by `WindowEnvelope`).
Everything else lives in the piecewise-linear world, where the algebraic
identities asserted by the test-suite hold exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .basefun import as_fraction, fs_conjugate, softplus
from .errors import InputError
from .measures import ma_measure
from .profiles import (
    ConvexProfile,
    WeightedSet,
    WindowEnvelope,
    _pad_to_asymptotes,
)
from .quadrature import TINY, insert_interior

__all__ = [
    "i_model_envelope",
    "window_envelope",
    "weighted_envelope",
    "divergence",
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


def _maximizers(s: Fraction, ts: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Ascending indices of every maximizer of s·t − f, decided exactly: a
    float s·t − f is within 2⁻⁵⁰·(|s·t| + |f|) + 2⁻¹⁰⁷⁴ of the exact value,
    and `Fraction`s compare the samples that this bound cannot separate."""
    g, err = float(s) * ts - fs, 2.0 ** -50 * (np.abs(float(s) * ts) + np.abs(fs))
    near = np.flatnonzero(g + err >= np.max(g - err - 2.0 ** -1073))
    if near.size == 1:
        return near
    exact = [s * Fraction(t) - Fraction(f) for t, f in zip(ts[near].tolist(), fs[near].tolist())]
    top = max(exact)
    return near[[e == top for e in exact]]


def envelope_of_samples(
    window: WindowEnvelope,
    obs_ts,
    obs_fs,
) -> ConvexProfile:
    """Maximal convex minorant of PL sample data with slopes in `window`:
    the lower hull of the contact slice (module doc), continued by the
    window's lines through its end vertices.  Samples that repeat a t count
    once, with their smallest f.
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

    first = _maximizers(window.lo, obs_ts, obs_fs)[0]
    last = _maximizers(window.hi, obs_ts, obs_fs)[-1]
    ts = obs_ts[first:last + 1]
    return _hull_profile(window, *lower_hull(ts, obs_fs[first:last + 1]), ts)


def _hull_profile(window: WindowEnvelope, ht, hf, ts) -> ConvexProfile:
    """The envelope from the lower hull (ht, hf) of the contact slice ts:
    the hull, with tails through its end vertices."""
    lo, hi = window.lo, window.hi
    a_lo, a_hi = hf[0] - float(lo) * ht[0], hf[-1] - float(hi) * ht[-1]
    if lo == hi:
        # the slice lies on one line; its end vertices agree to rounding
        a_lo = a_hi = min(a_lo, a_hi)
        ht, hf = ht[:1], np.asarray([float(lo) * ht[0] + a_lo])
    if ht.size == 1:
        ht, hf = np.append(ht, ht[0] + 1.0), np.append(hf, float(hi) * (ht[0] + 1.0) + a_hi)
    # a sample off the hull joins the grid only apart from its neighbours:
    # over a closer cell the chord of interpolated values is round-off noise
    apart = np.diff(ts) > 1e-6 * max(1.0, float(np.max(np.abs(ts))))
    grid = insert_interior(ht, ts[np.append(True, apart) & np.append(apart, True)])
    return ConvexProfile(window.c, grid, np.interp(grid, ht, hf), lo, hi, a_lo, a_hi)


# ---------------------------------------------------------------------------
# envelope operations
# ---------------------------------------------------------------------------

def window_envelope(c, nu0, nu_inf, grid=None) -> ConvexProfile:
    """Closed-form envelope of the base potential over a Lelong window.

    Maximal convex minorant of c·f_FS with slopes in [ν₀, c − ν_∞]:
    equals c·f_FS where c·σ(t) sits inside the window and continues as
    exact tangent lines outside.  `WindowEnvelope` checks the window: an
    empty one (ν₀ + ν_∞ > c) raises, and ν₀ + ν_∞ = c is one slope.
    """
    c = as_fraction(c)
    exact = WindowEnvelope(c, nu0, c - as_fraction(nu_inf))
    if grid is None:
        grid = _pad_to_asymptotes(np.asarray([-1.0, 0.0, 1.0]))
    else:
        grid = _pad_to_asymptotes(np.asarray(grid, dtype=float))
    lo, hi = exact.lo, exact.hi
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

    Hulls the sampled obstacle directly (`envelope_of_samples`).  The
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
    return envelope_of_samples(window, obs_ts, obs_phi)


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


# relative distance below which the envelope counts as touching the obstacle
CONTACT_TOL = 1e-9


def contact_leakage(env: ConvexProfile, K: WeightedSet):
    """(mass outside the contact set, total mass) for env's MA measure.

    Contact set: samples of the obstacle `weighted_envelope` hulls
    (`_obstacle_samples`) where the envelope touches it within
    CONTACT_TOL·scale.  An atom counts as on it only when it is one of
    those samples exactly, as every atom of a weighted envelope is.
    """
    mu = ma_measure(env)
    ts, phi = _obstacle_samples(env.class_mass, K)
    gap = np.abs(env(ts) - phi)
    scale = max(1.0, float(np.max(np.abs(phi))))
    contact = ts[gap <= CONTACT_TOL * scale]
    at, aw = np.asarray(mu.atoms, dtype=float).reshape(-1, 2).T
    # equality, not np.isin: that goes through np.unique, which imports numpy.ma
    touched = np.any(contact[None, :] == at[:, None], axis=1)
    bp = mu.breakpoints
    inside = K.contains(0.5 * (bp[:-1] + bp[1:]))
    # added one by one, atoms then cells, as a loop over them would
    leaked = np.concatenate([aw[~touched], mu.cell_masses[~inside]])
    leak = float(np.cumsum(leaked)[-1]) if leaked.size else 0.0
    return leak, mu.total_mass()
