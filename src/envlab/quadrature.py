"""Composite Gauss–Legendre quadrature with stable log-space reduction.

One rule: GL_NODES = 32 nodes per cell, cells refined with k so that
k-fold exponent weights stay resolved; unbounded directions are closed
exponential-tail integrals (profiles are exactly affine there).  The rule
is a table in this module, the floats of
`np.polynomial.legendre.leggauss(32)` written as `float.hex`, so no run
imports `numpy.polynomial` or solves its eigenproblem.

`union` merges t-grids into sorted distinct values, and
`insert_interior` adds the points of one grid that lie strictly inside
another's ends; every grid merge in the package goes through them.
`refine_breakpoints` builds every cell's subdivision in one vectorized
pass with `np.linspace`'s own arithmetic, so its nodes are bit for bit
those of a per-cell `linspace` loop.  Callers that integrate many
integrands on one grid (the section norms in `sections`) build the grid
once and sum each integrand's terms by cell, then over all the cells;
`log_integral_exp` integrates one integrand with one flat log-sum-exp
over the same nodes (`logsumexp`, the one-row form of `logsumexp_rows`).

One exp policy: numpy's exp is one to two orders of magnitude slower on
arguments whose result is not a normal float, slowest where it is a
subnormal.  `exp_normal` calls exp only where the result is a normal
float and writes 0.0 at or below LOG_TINY, the log of the smallest one.
The reductions here and the norm plan in `sections` go through it,
and a prune skips only terms that it writes as 0.0.  A max-shifted row
holds the term e⁰ = 1, and a term below 2⁻¹⁰²² cannot move such a row's
sum by a bit, so `logsumexp_rows` gives the results of exp on every
entry.
"""

from __future__ import annotations

import math

import numpy as np

GL_NODES = 32


# The positive nodes, ascending, and their weights of the 32-point
# Gauss–Legendre rule on [−1, 1], as the float.hex of
# `np.polynomial.legendre.leggauss(32)`.  That rule is exactly symmetric
# (x = −x[::-1], w = w[::-1]), so its half determines it.
_GL_HALF = """
    0x1.8bbc8488cc49ap-5 0x1.8b6d9eaec77a3p-4
    0x1.27e0ea717f237p-3 0x1.87bc776f8c6ccp-4
    0x1.ea0f7e19c094bp-3 0x1.8062fc0f6fef5p-4
    0x1.53d55ce57bdf6p-2 0x1.7572bdb3f6e49p-4
    0x1.af76b57c6f8f1p-2 0x1.6705e18e13ecfp-4
    0x1.038862866b29dp-1 0x1.553ee25ebebc3p-4
    0x1.2ce9146962ca4p-1 0x1.40483e126fd0ep-4
    0x1.537a89c487f8ap-1 0x1.2854103b35e00p-4
    0x1.76e0931d693bap-1 0x1.0d9b9a62cac04p-4
    0x1.96c69481c4bc5p-1 0x1.e0bd76c924984p-5
    0x1.b2e04fd686a13p-1 0x1.a1c6ae961fbeep-5
    0x1.caea9b4574cb9p-1 0x1.5ee963a3354abp-5
    0x1.deac0259f7f42p-1 0x1.18c5800a35609p-5
    0x1.edf5518053baap-1 0x1.a0060a8531ff0p-6
    0x1.f8a212714bcdcp-1 0x1.0aa3c248696dep-6
    0x1.fe995e70409b6p-1 0x1.cbf8bc743ce34p-8
"""


def _mirrored(half: str):
    x, w = np.array([float.fromhex(v) for v in half.split()]).reshape(-1, 2).T
    x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_GL_RULE = _mirrored(_GL_HALF)


def gauss_cells(breakpoints: np.ndarray):
    """Flattened GL_NODES-point Gauss–Legendre nodes/weights over
    consecutive cells."""
    bp = np.asarray(breakpoints, dtype=float)
    x, w = _GL_RULE
    a = bp[:-1][:, None]
    h = np.diff(bp)[:, None]
    ts = a + 0.5 * h * (x[None, :] + 1.0)
    ws = 0.5 * h * w[None, :]
    return ts.ravel(), ws.ravel()


def union(*arrays) -> np.ndarray:
    """Sorted distinct values of the flattened NaN-free arrays; of values
    that compare equal (±0.0) the first in argument order is kept."""
    # numpy's union1d and unique import numpy.ma on their first call
    aux = np.sort(np.concatenate(arrays, axis=None), kind="stable")
    keep = np.ones(aux.shape, dtype=bool)
    keep[1:] = aux[1:] != aux[:-1]
    return aux[keep]


def insert_interior(bp, extra) -> np.ndarray:
    """`union` of bp with the points of `extra` strictly inside
    (bp[0], bp[-1]); `extra=None` returns bp as a float array."""
    bp = np.asarray(bp, dtype=float)
    if extra is None:
        return bp
    inner = np.asarray(extra, dtype=float)
    return union(bp, inner[(inner > bp[0]) & (inner < bp[-1])])


def refine_breakpoints(breakpoints, k: int):
    """Subdivide cells so widths track the k-fold weight's length scale.

    Cell [a, b] splits into nsub = ⌈(b − a)/w⌉ equal parts, with
    w = min(1/2, 4/√(1 + k)), nodes i·((b − a)/nsub) + a and the last node
    b exactly, as `np.linspace(a, b, nsub + 1)` places them.
    """
    bp = np.asarray(breakpoints, dtype=float)
    max_width = min(0.5, 4.0 / np.sqrt(1.0 + float(k)))
    a, b = bp[:-1], bp[1:]
    width = b - a
    nsub = np.maximum(1, np.ceil(width / max_width)).astype(np.intp)
    ends = np.cumsum(nsub)
    cell = np.repeat(np.arange(a.size), nsub)
    i = np.arange(1, int(nsub.sum()) + 1) - np.repeat(ends - nsub, nsub)
    out = np.empty(i.size + 1)
    out[0] = bp[0]
    out[1:] = i * (width / nsub)[cell] + a[cell]
    out[ends] = b
    return out


# The smallest normal float and its log: exp(x) is a normal float for
# every x above LOG_TINY, and at most TINY at or below it.
TINY = float(np.finfo(float).tiny)
LOG_TINY = math.log(TINY)


def exp_normal(x, out=None) -> np.ndarray:
    """exp(x) where it is a normal float; the exact 0.0, written without
    calling exp, wherever x ≤ LOG_TINY or x is NaN.  No subnormal is
    formed and no floating-point flag is raised.  `out` may be x itself."""
    x = np.asarray(x, dtype=float)
    keep = x > LOG_TINY
    out = np.exp(x, out=np.empty_like(x) if out is None else out, where=keep)
    out[~keep] = 0.0
    return out


def exp_rows(live: np.ndarray) -> np.ndarray:
    """Each row of the 2-D live less its max, through `exp_normal`, in
    place (a row with a non-finite max unshifted); returns the maxes."""
    mx = np.max(live, axis=1) if live.size else np.full(live.shape[0], -np.inf)
    live -= np.where(np.isfinite(mx), mx, 0.0)[:, None]
    exp_normal(live, out=live)
    return mx


def logsumexp_rows(buf: np.ndarray) -> np.ndarray:
    """log Σ exp of each row of a 2-D buf, max-shifted; overwrites buf.

    A shifted term at or below LOG_TINY is written as 0.0 (`exp_normal`)
    rather than exp's subnormal or 0.0.  The row's max term is exactly 1,
    so such a term, below 2⁻¹⁰²², changes only partial sums far below 1,
    and those vanish in the addition to the partial that holds the 1: each
    result is bit for bit that of exp on every entry.  A non-finite row
    max gives −∞.
    """
    mx = exp_rows(buf)
    ok = np.isfinite(mx)
    out = np.log(np.sum(buf, axis=1), out=np.full(buf.shape[0], -np.inf), where=ok)
    return np.add(mx, out, out=out, where=ok)


def logsumexp(vals) -> float:
    """log Σ exp(vals) of a 1-D array: `logsumexp_rows` of its one row.
    One-row API for `log_integral_exp`, tests and the tracer; no runner
    calls it."""
    return float(logsumexp_rows(np.array(vals, dtype=float)[None, :])[0])


def log_positive(x) -> np.ndarray:
    """log x, −∞ where x is not positive."""
    x = np.asarray(x, dtype=float)
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0)


def log_integral_exp(log_f, breakpoints, k: int = 1, density_fn=None,
                     atoms=(), extra=None, tail_minus=None, tail_plus=None):
    """log ∫ exp(log_f(t))·ρ(t) dt + Σ atoms, computed stably.

    tail_minus/tail_plus: optional (rate, log_value_at_edge) pairs adding
    closed-form ∫ exp(rate·(t − edge)) contributions beyond the ends; the
    caller guarantees rate sign makes them finite.  One-integrand API for
    tests and the tracer; no runner calls it.
    """
    bp = refine_breakpoints(insert_interior(breakpoints, extra), k)
    ts, ws = gauss_cells(bp)
    vals = np.array(log_f(ts), dtype=float)
    if density_fn is not None:
        vals += log_positive(density_fn(ts))
    vals += np.log(ws)
    pieces = [logsumexp(vals)]
    for t, w in atoms:
        pieces.append(float(np.atleast_1d(log_f(np.asarray([t])))[0]) + np.log(w))
    if tail_minus is not None:
        rate, log_val = tail_minus
        pieces.append(log_val - np.log(rate))
    if tail_plus is not None:
        rate, log_val = tail_plus
        pieces.append(log_val - np.log(-rate))
    return logsumexp(np.asarray(pieces))
