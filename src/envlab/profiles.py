"""Radial convex profiles: the full-potential avatars of θ-psh functions.

A profile stores the full potential F = c·f_FS + u as grid samples with
exactly affine tails of rational slope.  The slope pair (s₋, s₊) carries
all singularity data: the pole masses are ν₀ = s₋ and ν_∞ = c − s₊, and
the non-pluripolar mass is s₊ − s₋.  The slope window [s₋, s₊] ⊆ [0, c]
is the singularity class, and a profile's `window` holds it as the
class's model potential, a `WindowEnvelope`.

Between grid nodes a profile evaluates either as the piecewise-linear
interpolant of its samples (the exact object for PL fixtures) or through
an `exact` evaluator carried with the samples: `WindowEnvelope` for
c·softplus and its slope-window envelopes, or any other closed form
(the Bergman approximants carry one).  Closed-form evaluation exists so
that k-fold exponent weights in the quantization layer stay exact
instead of picking up k·O(h²) sampling error.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .basefun import (
    ASYMPTOTE_T,
    as_fraction,
    fraction_str,
    fs_conjugate,
    logit,
    softplus,
)
from .errors import InfeasibleClassError, InputError
from .quadrature import union

CONVEXITY_SLACK = 1e-9      # on chord-slope differences, scaled by max(1, |F|)
TAIL_SEAM_TOL = 1e-12       # tail line must touch the boundary value


@dataclass(frozen=True)
class WindowEnvelope:
    """The singularity class [lo, hi] ⊆ [0, c] as its model potential
    t ↦ sup over s in [lo, hi] of s·t − (c·f_FS)*(s), in closed form.

    The slope window reads lo = ν₀ and hi = c − ν_∞ in Lelong terms, and
    `ConvexProfile.window` is this object for a profile's tail slopes.
    The envelope of c·softplus over it is c·softplus where c·σ(t) lies in
    [lo, hi], tangent lines beyond; the window [0, c] is c·softplus
    itself.  Profiles carry it as their `exact` evaluator, and the
    closed-form paths of `ma_measure` and the section norms recognize it.
    """

    c: Fraction
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        c, lo, hi = map(as_fraction, (self.c, self.lo, self.hi))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (0 <= lo <= hi <= c):
            raise InfeasibleClassError(
                f"slope window [{lo}, {hi}] not inside [0, {c}]"
            )

    def __call__(self, t):
        # the unconstrained argmax is s = c·σ(t); the sup clamps it
        c, lo, hi = self.c, self.lo, self.hi
        cf = float(c)
        lof, hif = float(lo), float(hi)
        t = np.asarray(t, dtype=float)
        out = cf * softplus(t)
        if lof > 0.0:
            t_lo = float(logit(lof / cf)) if lof < cf else np.inf
            mask = t <= t_lo
            out[mask] = lof * t[mask] - fs_conjugate(lo, c)
        if hif < cf:
            t_hi = float(logit(hif / cf)) if hif > 0.0 else -np.inf
            mask = t >= t_hi
            out[mask] = hif * t[mask] - fs_conjugate(hi, c)
        return out


@dataclass(frozen=True)
class ConvexProfile:
    """Convex full potential with exact affine tails.

    Without `exact` the profile is piecewise linear between its nodes
    (the exact object).  With it, `exact` evaluates the function on the
    whole line; the grid values are its samples, and the rest of the
    structure (chords, measures) still reads the samples.

    Invariant: `values` is `self(grid)` bit for bit.  np.interp returns a
    node's own value there, and every profile with `exact` takes its
    values from that evaluator at its grid (`window_envelope`,
    `base_profile`, `bergman_approximant`; `shifted` adds the same a to
    both).  `sup_difference` reads `values` in place of evaluating the
    profile again on its own grid.
    """

    class_mass: Fraction
    grid: np.ndarray
    values: np.ndarray
    s_minus: Fraction
    s_plus: Fraction
    a_minus: float
    a_plus: float
    exact: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "class_mass", as_fraction(self.class_mass))
        object.__setattr__(self, "s_minus", as_fraction(self.s_minus))
        object.__setattr__(self, "s_plus", as_fraction(self.s_plus))
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        self._validate()

    def _validate(self):
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise InputError("grid must hold at least two ascending t-values")
        if np.any(np.diff(self.grid) <= 0):
            raise InputError("grid must be strictly increasing")
        if self.values.shape != self.grid.shape:
            raise InputError("values and grid length mismatch")
        if not np.all(np.isfinite(self.values)):
            raise InputError("profile values must be finite")
        c = self.class_mass
        if not (0 <= self.s_minus <= self.s_plus <= c):
            raise InfeasibleClassError(
                f"tail slopes ({self.s_minus}, {self.s_plus}) violate 0 ≤ s₋ ≤ s₊ ≤ {c}"
            )
        scale = max(1.0, float(np.max(np.abs(self.values))))
        chords = np.diff(self.values) / np.diff(self.grid)
        slack = CONVEXITY_SLACK * scale
        if np.any(np.diff(chords) < -slack):
            raise InputError("profile is not discretely convex")
        if chords.size and (
            chords[0] - float(self.s_minus) < -slack
            or float(self.s_plus) - chords[-1] < -slack
        ):
            raise InputError("chord slopes escape the tail slope sandwich")
        seam_tol = TAIL_SEAM_TOL * scale
        lo_line = float(self.s_minus) * self.grid[0] + self.a_minus
        hi_line = float(self.s_plus) * self.grid[-1] + self.a_plus
        if abs(lo_line - self.values[0]) > seam_tol or abs(hi_line - self.values[-1]) > seam_tol:
            raise InputError("tail lines do not touch the boundary grid values")

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.exact is not None:
            out = np.asarray(self.exact(t), dtype=float)
        else:
            out = np.interp(t, self.grid, self.values)
            left = t < self.grid[0]
            right = t > self.grid[-1]
            if np.any(left):
                out[left] = float(self.s_minus) * t[left] + self.a_minus
            if np.any(right):
                out[right] = float(self.s_plus) * t[right] + self.a_plus
        return float(out[0]) if scalar else out

    def singular_part(self, t):
        """u(t) = F(t) − c·f_FS(t); exactly 0 for the base profile."""
        return self(t) - float(self.class_mass) * softplus(t)

    # -- structure ---------------------------------------------------------

    @property
    def window(self) -> WindowEnvelope:
        return WindowEnvelope(self.class_mass, self.s_minus, self.s_plus)

    @property
    def mass(self) -> Fraction:
        """Non-pluripolar mass s₊ − s₋, exact."""
        return self.s_plus - self.s_minus

    def chord_slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.grid)

    def shifted(self, a: float) -> "ConvexProfile":
        """F + a; an exact evaluator is carried along, wrapped unless a = 0."""
        exact = self.exact
        if exact is not None and a != 0:
            exact = lambda t, f=exact: f(t) + a
        return ConvexProfile(
            self.class_mass, self.grid, self.values + a,
            self.s_minus, self.s_plus, self.a_minus + a, self.a_plus + a,
            exact=exact,
        )

    # -- serialization (rationals as "p/q") --------------------------------

    def to_dict(self) -> dict:
        return {
            "class_mass": fraction_str(self.class_mass),
            "grid": [float(t) for t in self.grid],
            "values": [float(v) for v in self.values],
            "tail_minus": {"slope": fraction_str(self.s_minus), "intercept": float(self.a_minus)},
            "tail_plus": {"slope": fraction_str(self.s_plus), "intercept": float(self.a_plus)},
        }


def default_grid() -> np.ndarray:
    """The 1/16 grid over [−ASYMPTOTE_T, ASYMPTOTE_T]."""
    return np.linspace(-ASYMPTOTE_T, ASYMPTOTE_T, 2 * int(round(16 * ASYMPTOTE_T)) + 1)


def interval_grid(a: float, b: float) -> np.ndarray:
    """The 1/64 grid over [a, b]: ⌈64·(b − a)⌉ equal cells, at least one."""
    return np.linspace(a, b, max(2, int(np.ceil((b - a) * 64)) + 1))


def _pad_to_asymptotes(grid: np.ndarray) -> np.ndarray:
    """Extend a grid so it reaches the asymptotic range on both sides."""
    grid = np.asarray(grid, dtype=float)
    pieces = [grid]
    if grid[0] > -ASYMPTOTE_T:
        left = np.arange(grid[0] - 1.0, -ASYMPTOTE_T - 1.0, -1.0)[::-1]
        pieces.insert(0, left)
    if grid[-1] < ASYMPTOTE_T:
        right = np.arange(grid[-1] + 1.0, ASYMPTOTE_T + 1.0, 1.0)
        pieces.append(right)
    return np.concatenate(pieces)


def base_profile(c, grid=None) -> ConvexProfile:
    """The minimal-singularity potential: F = c·f_FS with tails (0,0), (c,0).

    The grid is padded to the asymptotic range so the exact affine tails
    touch the boundary samples to machine precision.
    """
    c = as_fraction(c)
    if c <= 0:
        raise InputError("class mass must be positive")
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InputError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0):
        raise InputError("grid must be strictly increasing")
    grid = _pad_to_asymptotes(grid)
    exact = WindowEnvelope(c, Fraction(0), c)
    return ConvexProfile(
        c, grid, exact(grid), Fraction(0), c, 0.0, 0.0, exact=exact
    )


def lelong(p: ConvexProfile) -> tuple[Fraction, Fraction]:
    """Pole masses (ν₀, ν_∞) = (s₋, c − s₊), exact rationals."""
    return p.s_minus, p.class_mass - p.s_plus


def merge_grids(*grids: np.ndarray) -> np.ndarray:
    """`union` of node sets with float-coincident nodes collapsed.

    Nodes closer than 1e-9·max(1, max |t|) merge into the first: chord
    slopes over such cells are round-off noise.
    """
    grid = union(*grids)
    scale = max(1.0, float(np.max(np.abs(grid))))
    keep = np.concatenate([[True], np.diff(grid) > 1e-9 * scale])
    return grid[keep]


def mix_profiles(lam, p: ConvexProfile, q: ConvexProfile) -> ConvexProfile:
    """Pointwise convex combination λ·p + (1−λ)·q on the merged grid."""
    lam = as_fraction(lam)
    if not 0 <= lam <= 1:
        raise InputError("mixing weight must lie in [0, 1]")
    if p.class_mass != q.class_mass:
        raise InputError("class mass mismatch")
    grid = merge_grids(p.grid, q.grid)
    lf = float(lam)
    vals = lf * p(grid) + (1.0 - lf) * q(grid)
    s_minus = lam * p.s_minus + (1 - lam) * q.s_minus
    s_plus = lam * p.s_plus + (1 - lam) * q.s_plus
    return ConvexProfile(
        p.class_mass, grid, vals, s_minus, s_plus,
        float(vals[0]) - float(s_minus) * grid[0],
        float(vals[-1]) - float(s_plus) * grid[-1],
    )


def _on_union(p: ConvexProfile, grid: np.ndarray) -> np.ndarray:
    """p at the points of grid, a union that contains p.grid: p's own
    values where the union adds no point (the `ConvexProfile` invariant)."""
    return p.values if grid.size == p.grid.size else p(grid)


def sup_difference(p: ConvexProfile, q: ConvexProfile) -> float:
    """sup over the extended line of F_p − F_q (may be +inf).

    +inf where the tail slopes let the difference grow without bound, else
    its max over the union of the two grids: past the union's ends it
    follows the tails' slopes, so it does not rise above its value at the
    end, which the union holds.
    """
    if p.s_minus < q.s_minus or p.s_plus > q.s_plus:
        return np.inf
    grid = union(p.grid, q.grid)
    return float(np.max(_on_union(p, grid) - _on_union(q, grid)))


def _weight_samples(v, grid: np.ndarray):
    """(samples on grid, exact callable or None) of a weight given as a
    callable, as samples, or as None (zero)."""
    if v is None:
        return np.zeros_like(grid), None
    if callable(v):
        return np.asarray(v(grid), dtype=float), v
    return np.asarray(v, dtype=float), None


@dataclass(frozen=True)
class WeightedSet:
    """Compact radial set K with a continuous weight v.

    components: list of (a, b, grid, v_values); a == b encodes a single
    circle.  whole_space=True models K = X, with v given on the span of
    `grid` and held at its end samples beyond it (continuity at the
    poles).

    v_fn, when set, is the exact weight on the span of the component
    grids: `weight_at` (the norms and kernels) evaluates it there, so
    k-fold weights carry no k·O(h²) sampling error.  The samples serve
    the envelopes, whose obstacles are sampled by construction.  Without
    v_fn the weight is the piecewise-linear interpolant of the samples.
    """

    components: tuple
    whole_space: bool = False
    v_fn: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        comps = []
        for a, b, grid, vals in self.components:
            grid = np.asarray(grid, dtype=float)
            vals = np.asarray(vals, dtype=float)
            grid.setflags(write=False)
            vals.setflags(write=False)
            if grid.size == 0:
                raise InputError("component grid is empty")
            if grid.size != vals.size:
                raise InputError("component grid/weight length mismatch")
            if not np.all(np.isfinite(vals)):
                raise InputError("weight values must be finite")
            if np.any(np.diff(grid) <= 0):
                raise InputError("component grid must be strictly increasing")
            if not (a <= grid[0] and grid[-1] <= b and a <= b):
                raise InputError("component grid escapes its interval")
            comps.append((float(a), float(b), grid, vals))
        if not comps:
            raise InputError("weighted set must be nonempty")
        comps.sort(key=lambda c: c[0])
        for (_, b0, _, _), (a1, _, _, _) in zip(comps, comps[1:]):
            if b0 >= a1:
                raise InputError("components must be disjoint")
        object.__setattr__(self, "components", tuple(comps))

    # -- constructors -------------------------------------------------------

    @classmethod
    def whole(cls, grid=None, v=None) -> "WeightedSet":
        """K = X with weight v (callable or samples; default 0).

        A callable v is kept and evaluated exactly on the grid's span; its
        samples on `grid` feed the envelopes.  Beyond the grid the weight
        is held at the end samples.
        """
        if grid is None:
            grid = default_grid()
        grid = np.asarray(grid, dtype=float)
        vals, v_fn = _weight_samples(v, grid)
        return cls(((grid[0], grid[-1], grid, vals),), whole_space=True, v_fn=v_fn)

    @classmethod
    def interval(cls, a: float, b: float, v=None) -> "WeightedSet":
        """K = [a, b] on a 1/64 grid with weight v (callable, kept exact,
        or samples)."""
        grid = interval_grid(a, b)
        vals, v_fn = _weight_samples(v, grid)
        return cls(((a, b, grid, vals),), v_fn=v_fn)

    @classmethod
    def circles(cls, ts, vs=None) -> "WeightedSet":
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if vs is None:
            vs = np.zeros_like(ts)
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        comps = tuple(
            (t, t, np.asarray([t]), np.asarray([v])) for t, v in zip(ts, vs)
        )
        return cls(comps)

    # -- helpers -------------------------------------------------------------

    def sample_points(self) -> tuple[np.ndarray, np.ndarray]:
        """All (t, v) samples across components, t ascending."""
        ts = np.concatenate([c[2] for c in self.components])
        vs = np.concatenate([c[3] for c in self.components])
        return ts, vs

    def weight_at(self, t) -> np.ndarray:
        """Weight extended continuously: v_fn (else the PL interpolant of the
        samples) on the grid span, the end values outside (only meaningful
        where integrands are supported)."""
        t = np.asarray(t, dtype=float)
        ts, vs = self.sample_points()
        if self.v_fn is None:
            return np.interp(t, ts, vs)
        return np.asarray(self.v_fn(np.clip(t, ts[0], ts[-1])), dtype=float)

    @property
    def unweighted_whole_space(self) -> bool:
        """K = X with v ≡ 0: no callable weight and zero samples."""
        return (self.whole_space and self.v_fn is None
                and not any(np.any(vals) for _, _, _, vals in self.components))

    def contains(self, t) -> np.ndarray:
        """Whether t lies in K, to 1e-12 at the component ends; elementwise
        on an array t."""
        t = np.asarray(t, dtype=float)
        inside = np.full(t.shape, self.whole_space)
        for a, b, _, _ in self.components:
            inside |= (a - 1e-12 <= t) & (t <= b + 1e-12)
        return inside

    def add_weight(self, f, scale: float = 1.0) -> "WeightedSet":
        """K with weight v + scale·f, exact between grid nodes."""
        comps = tuple(
            (a, b, grid, vals + scale * np.asarray(f(grid), dtype=float))
            for a, b, grid, vals in self.components
        )

        def v_fn(t):
            return self.weight_at(t) + scale * np.asarray(f(t), dtype=float)

        return WeightedSet(comps, whole_space=self.whole_space, v_fn=v_fn)
