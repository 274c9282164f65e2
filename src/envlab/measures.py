"""Measures on the t-line: densities over cells plus finite atom lists.

The non-pluripolar Monge–Ampère measure of a profile is its second
derivative with the pole masses removed: profiles evaluated by
`WindowEnvelope` produce a density with exact per-cell masses, all
others produce atoms at the kinks of their samples.  Reference measures
(Fubini–Study volume, area measure on an annulus, circle atoms) carry an
analytic density callable so quadrature downstream does not see sampling
error.

A measure holds its atoms sorted by position, with their running weight
sums in a table, so its CDF at any point is the cell CDF plus one table
entry found by binary search: no query costs points × atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basefun import logistic_density, logit, sigmoid
from .errors import InputError
from .profiles import ConvexProfile, WindowEnvelope, default_grid
from .quadrature import gauss_cells, insert_interior, union

__all__ = [
    "RadialMeasure",
    "ma_measure",
    "fs_measure",
    "annulus_area_measure",
    "circle_atom",
    "kolmogorov_distance",
    "measure_integral",
]


@dataclass(frozen=True)
class RadialMeasure:
    """Nonnegative measure: per-cell masses on breakpoints plus atoms.

    The CDF is taken linear inside cells; `density_fn`, when present, is
    the exact density used by quadrature.  Atoms are held
    sorted by position (a stable sort: equal positions keep their given
    order), and `_atom_cum` is their weights' left-to-right running sum
    after a leading 0, so the atoms' CDF at t is one entry of it.
    """

    breakpoints: np.ndarray
    cell_masses: np.ndarray
    atoms: tuple = ()
    density_fn: object = None
    _atom_ts: np.ndarray = field(init=False, repr=False, compare=False)
    _atom_cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        cm = np.asarray(self.cell_masses, dtype=float)
        if bp.size and cm.size != bp.size - 1:
            raise InputError("cell_masses must have len(breakpoints) - 1 entries")
        if bp.size == 0 and cm.size:
            raise InputError("cells without breakpoints")
        if not np.all(np.isfinite(cm) & (cm >= -1e-15)):
            raise InputError("cell masses must be finite and nonnegative")
        atoms, at, cum = (), np.empty(0), np.zeros(1)
        if len(self.atoms):  # most measures have none: skip the array work
            at, w = np.asarray(self.atoms, dtype=float).reshape(-1, 2).T
            if not np.isfinite(at).all():
                raise InputError("atom at infinity is not allowed")
            if not ((w > 0).all() and (w < np.inf).all()):
                raise InputError("atom weights must be finite and positive")
            order = at.argsort(kind="stable")
            at, w = at[order], w[order]
            atoms = tuple(zip(at.tolist(), w.tolist()))
            cum = np.zeros(w.size + 1)
            w.cumsum(out=cum[1:])
        for a in (bp, cm, at, cum):
            a.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "cell_masses", cm)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_atom_ts", at)
        object.__setattr__(self, "_atom_cum", cum)

    def total_mass(self) -> float:
        return float(np.sum(self.cell_masses)) + float(self._atom_cum[-1])

    def cdf(self, ts, side: str = "right") -> np.ndarray:
        """CDF at ts; side='left' excludes atoms exactly at t.

        The cell CDF plus the atoms' running sum up to t: `searchsorted`
        with side 'right' counts the atoms at or below t, 'left' those
        strictly below it.  A NaN query point raises InputError."""
        if side not in ("right", "left"):
            raise InputError(f"side must be 'right' or 'left', not {side!r}")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if np.isnan(ts).any():
            raise InputError("CDF query points must not be NaN")
        out = np.zeros_like(ts)
        if self.breakpoints.size:
            bp, cm = self.breakpoints, self.cell_masses
            cum = np.concatenate([[0.0], np.cumsum(cm)])
            out += np.interp(ts, bp, cum, left=0.0, right=cum[-1])
            bad = ~np.isfinite(out)
            if bad.any():
                # interp's slope Δcum/Δt overflows inside a cell narrower
                # than its mass / DBL_MAX: take the cell's fraction first
                t = ts[bad]
                i = np.clip(np.searchsorted(bp, t, side="right") - 1, 0, bp.size - 2)
                out[bad] = cum[i] + cm[i] * ((t - bp[i]) / (bp[i + 1] - bp[i]))
        if self.atoms:
            out += self._atom_cum[np.searchsorted(self._atom_ts, ts, side=side)]
        return out

    def support_points(self) -> np.ndarray:
        return union(self._atom_ts, self.breakpoints)


def ma_measure(p: ConvexProfile) -> RadialMeasure:
    """Non-pluripolar Monge–Ampère measure of a profile; mass s₊ − s₋.

    A `WindowEnvelope` profile yields the exact density c·σ' restricted
    to the slope window's contact range; every other profile yields atoms
    at the kinks of its samples (tail seams included).  Pole masses at
    t = ±∞ are never charged.
    """
    c = float(p.class_mass)
    total = p.s_plus - p.s_minus
    if total == 0:  # affine, whatever its samples' rounding
        return RadialMeasure(np.empty(0), np.empty(0), ())
    if isinstance(p.exact, WindowEnvelope):
        lo, hi = float(p.s_minus), float(p.s_plus)
        t_lo = float(logit(lo / c)) if lo > 0 else float(p.grid[0])
        t_hi = float(logit(hi / c)) if hi < c else float(p.grid[-1])
        bp = insert_interior(np.linspace(t_lo, t_hi, 513), p.grid)
        masses = c * np.diff(sigmoid(bp))
        return RadialMeasure(
            bp, masses, (),
            density_fn=lambda t: c * logistic_density(t),
        )
    chords = p.chord_slopes()
    slopes = np.concatenate([[float(p.s_minus)], chords, [float(p.s_plus)]])
    jumps = np.diff(slopes)
    atoms = []
    scale = max(1e-300, float(total))
    for t, w in zip(p.grid, jumps):
        if w > 1e-13 * scale:
            atoms.append((float(t), float(w)))
    return RadialMeasure(np.empty(0), np.empty(0), tuple(atoms))


def fs_measure() -> RadialMeasure:
    """Fubini–Study probability volume pushed to the t-line (σ' density)."""
    grid = default_grid()
    masses = np.diff(sigmoid(grid))
    return RadialMeasure(grid, masses, (), density_fn=logistic_density)


@dataclass(frozen=True)
class AreaDensity:
    """e^t/(e^b − e^a) on [a, b]: the normalized area density of the
    annulus {a ≤ t ≤ b}.  Its own type, so that `sections.bergman` can
    recognize the measure and take β's closed form."""

    a: float
    b: float

    def __call__(self, t):
        return np.exp(t) / (np.exp(self.b) - np.exp(self.a))


def annulus_area_measure(a: float = -1.0, b: float = 1.0) -> RadialMeasure:
    """Normalized area measure of the annulus {a ≤ t ≤ b} (density ∝ e^t,
    an `AreaDensity`) on a 1/64 grid.  Under x = σ(t) it is dx/(1 − x)²
    up to its normalization, so the partial Bergman measure against it
    has the closed form of `sections._area_beta_cell_masses`."""
    if not a < b:
        raise InputError("annulus needs a < b")
    grid = np.linspace(a, b, max(2, int(np.ceil((b - a) * 64)) + 1))
    density = AreaDensity(float(a), float(b))
    masses = np.diff(np.exp(grid)) / (np.exp(density.b) - np.exp(density.a))
    return RadialMeasure(grid, masses, (), density_fn=density)


def circle_atom(t: float = 0.0) -> RadialMeasure:
    """Unit point mass on the circle log|z|² = t."""
    return RadialMeasure(np.empty(0), np.empty(0), ((float(t), 1.0),))


def kolmogorov_distance(m1: RadialMeasure, m2: RadialMeasure) -> float:
    """sup |CDF₁ − CDF₂| over the line, atoms included from both sides.

    Without atoms the left and right CDFs are the same arrays, so one side
    is taken."""
    pts = union(m1.support_points(), m2.support_points())
    if not pts.size:
        pts = np.zeros(1)
    sides = ("right", "left") if m1.atoms or m2.atoms else ("right",)
    return float(np.max([np.abs(m1.cdf(pts, side=side) - m2.cdf(pts, side=side))
                         for side in sides]))


def measure_integral(f, m: RadialMeasure, extra_breaks=None) -> float:
    """∫ f dμ for continuous f: exact atom sums plus cell quadrature.

    Cells use GL_NODES-point Gauss–Legendre against the density callable;
    cells without one raise InputError, since their masses alone do not
    give the density.
    """
    out = 0
    if m.atoms:
        # f once on every atom; the weighted values summed in atom order
        at = m._atom_ts
        fa = np.broadcast_to(np.asarray(f(at), dtype=float), at.shape).tolist()
        out = sum(w * fv for (_, w), fv in zip(m.atoms, fa))
    if m.cell_masses.size == 0:
        return out
    if m.density_fn is None:
        raise InputError("a measure with cells needs a density_fn to integrate against")
    ts, ws = gauss_cells(insert_interior(m.breakpoints, extra_breaks))
    out += float(np.sum(np.asarray(f(ts)) * np.asarray(m.density_fn(ts)) * ws))
    return out
