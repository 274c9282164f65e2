"""Shared fixtures: randomized PL profiles and small oracle helpers."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from envlab import ConvexProfile, WeightedSet


def random_window(rng, denom: int = 24):
    lo = Fraction(int(rng.integers(0, denom // 2)), denom)
    hi = Fraction(int(rng.integers(int(lo * denom) + 1, denom + 1)), denom)
    return lo, hi


def random_pl_profile(rng, c=Fraction(1), n_kinks: int = 5) -> ConvexProfile:
    """Random convex PL profile with exact rational tail slopes in [0, c]."""
    lo, hi = random_window(rng)
    grid = np.sort(rng.uniform(-6.0, 6.0, size=n_kinks + 1))
    while np.min(np.diff(grid)) < 1e-3:
        grid = np.sort(rng.uniform(-6.0, 6.0, size=n_kinks + 1))
    slopes = np.sort(rng.uniform(float(lo), float(hi), size=n_kinks))
    v0 = float(rng.uniform(-1.0, 1.0))
    vals = np.concatenate([[v0], v0 + np.cumsum(slopes * np.diff(grid))])
    return ConvexProfile(
        c, grid, vals, lo, hi,
        vals[0] - float(lo) * grid[0], vals[-1] - float(hi) * grid[-1],
    )


def random_weighted_set(rng) -> WeightedSet:
    kind = rng.integers(0, 3)
    if kind == 0:
        a = float(rng.uniform(-3.0, -0.5))
        b = float(rng.uniform(0.5, 3.0))
        vals = rng.uniform(-0.5, 0.5, size=9)
        grid = np.linspace(a, b, 9)
        return WeightedSet(((a, b, grid, vals),))
    if kind == 1:
        ts = np.sort(rng.uniform(-3.0, 3.0, size=3))
        while np.min(np.diff(ts)) < 0.1:
            ts = np.sort(rng.uniform(-3.0, 3.0, size=3))
        return WeightedSet.circles(ts, rng.uniform(-0.5, 0.5, size=3))
    grid = np.linspace(-8.0, 8.0, 65)
    vals = 0.4 * np.cos(grid) * np.exp(-0.1 * grid ** 2)
    vals = vals - vals[0]
    return WeightedSet.whole(grid=grid, v=vals)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
