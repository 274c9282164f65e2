"""Filtered section spaces, weighted norms, and partial Bergman data.

Degree bookkeeping: the level-k section space is the degree
m = ⌊k·c⌋ monomials, filtered by the exact integrability inequalities
j + 1 > k·ν₀ and m − j + 1 > k·ν_∞ (boundary indices diverge for exact
linear tails and are excluded).  For 0 ≤ ν₀ ≤ c − ν_∞ that set J is
never empty: j_max − j_min = ⌊k·c⌋ − ⌊k·ν_∞⌋ − ⌊k·ν₀⌋ ≥ 0.  The twist by
O(d), a plain int, belongs to the count alone: `admissible_indices`,
`section_counts`, `h0` and `counting_window_holds` take it, with
m = ⌊k·c⌋ + d, to test how uniform the counts are in k.  The norms, β
and the Donaldson functional are those of L^k itself.

Norms follow the smooth-metric convention: the weight is m·f_FS + k·v and
the singular potential enters only through the admissible index filter.
`singular_weight=True` switches to the e^{-k·u}-weighted integrand (the
convention of the Bergman approximants' norm constraint), under which the
boundary-index integrals genuinely diverge.  J decides integrability:
against a whole-line ν, |z^j|²e^{−k·u} is integrable exactly for j ∈ J,
so only `log_norm2`, the one entry that takes any j, checks an index.

L² norms come from one helper, `_log_norms2`, which every caller of a
norm goes through (`log_norm2`, `section_basis` and so `reference_basis`
and `bergman_approximant`; `bergman` holds the plan itself where β has
no closed form).  It takes a closed form
where one exists: v ≡ 0 on K = X against the Fubini–Study volume, where
N_j² is the Beta value B(j+1, m−j+1) under the smooth-metric convention
and, under the singular weight of a `WindowEnvelope` profile, a Beta value
times a difference of regularized incomplete Beta functions plus two
positive ₂F₁ tail series, all summed in numpy.  Everywhere else (sampled
or nonzero weights, compact K, other measures, a window end very near 0
or c) the norms come from one quadrature plan per (k, u, K, ν), on cells
at the integrand's kinks refined at k.  It evaluates all indices
together, in blocks, each index's terms the arithmetic a separate
quadrature of it on those cells would do, and has one reduction: the
terms summed by cell, then over all the cells.

The partial Bergman measure β = B·ν/k (`bergman`) takes one of two
routes.  With v ≡ 0 against the FS volume on K = X, or against the area
density on [a, b] ⊂ K (`_closed_form_density`), it is closed-form: at
x = σ(t) z^j's normalized mass has an incomplete-Beta CDF, a binomial
tail, and the sum over J is one binomial row per point against
cumulative per-index weights (`_binomial_row_means`).  The rows are built
and summed only where an entry is not 0.0 (`exp_normal`'s rule, as in
the norm plan's prune), so no sum leaves out a nonzero term.  Every cell
mass is a difference of such sums, and no norm, plan or kernel value is
computed.  Elsewhere one norm plan on β's own cells (refined at 4k)
evaluates each exponent once: N_j² is the total of the per-cell sums it
reduces to, so β's cells, tails and atoms are those pieces of N_j² over
N_j², summed over J.

Sup norms (`log_sup2`, `bm_rate`) are `_Exponent`'s conjugate: one hull
walk (`_log_sups2`) takes G's Legendre conjugate at every slope j, G the
index-free terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basefun import (
    ASYMPTOTE_T,
    as_fraction,
    fs_conjugate,
    logistic_density,
    logit,
    sigmoid,
    softplus,
)
from .envelopes import conjugate_at_slopes, lower_hull
from .errors import (
    DivergentIntegralError,
    InputError,
    NoSectionsError,
)
from .measures import AreaDensity, RadialMeasure, fs_measure
from .profiles import (
    ConvexProfile,
    WeightedSet,
    WindowEnvelope,
    _pad_to_asymptotes,
    base_profile,
    sup_difference,
)
from .quadrature import (
    GL_NODES,
    LOG_TINY,
    TINY,
    exp_normal,
    exp_rows,
    gauss_cells,
    insert_interior,
    log_positive,
    logsumexp_rows,
    refine_breakpoints,
)

# The norm plan's exponents (J × node) are evaluated in blocks of about
# this many entries, so the working set stays bounded at large k.
KERNEL_BLOCK = 2 ** 16

# β's closed-form binomial rows are built this many points at a time, each
# chunk on the span of its rows' live windows.
ROW_CHUNK = 128

__all__ = [
    "SectionBasisData",
    "BergmanResult",
    "admissible_indices",
    "admissible_set",
    "h0",
    "section_counts",
    "counting_window_holds",
    "limit_mass",
    "log_norm2",
    "log_sup2",
    "section_basis",
    "reference_basis",
    "bergman",
    "donaldson",
    "donaldson_functional",
    "bm_rate",
    "bergman_approximant",
    "approximant_lower_bound_constant",
]


@dataclass(frozen=True)
class SectionBasisData:
    """Admissible monomial indices plus diagonal L² norm data over them:
    log_norms2[i] = log N²(z^{J[i]}), or None for the indices alone."""

    k: int
    m: int
    J: tuple
    log_norms2: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "J", tuple(int(j) for j in self.J))
        if self.log_norms2 is not None:
            arr = np.asarray(self.log_norms2, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "log_norms2", arr)
            if arr.size != len(self.J):
                raise InputError("one log-norm per admissible index required")

    @property
    def log_det_gram(self) -> float:
        """log det of the diagonal Gram form of the monomials: Σ log N²."""
        if self.log_norms2 is None:
            raise InputError("basis carries no norm data")
        return float(np.sum(self.log_norms2))


@dataclass(frozen=True)
class BergmanResult:
    """The partial Bergman measure β = B·ν/k at level k, its total mass,
    and the section count h0 = |J| (the mass identity is ∫β = h0/k)."""

    k: int
    beta: RadialMeasure
    total_mass: float
    h0: int


# ---------------------------------------------------------------------------
# admissible indices and section counts
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _index_windows(ks, c, nu0, nu_inf, d: int):
    """(k, m, j_min, j_max) as int64 arrays, one entry per k of an
    ascending sequence; J = [j_min, j_max] ∩ ℤ at each k.

    m = ⌊k·c⌋ + d.  The filter j + 1 > k·ν₀ and m − j + 1 > k·ν_∞ reads
    j ≥ ⌊k·ν₀ − 1⌋ + 1 = ⌊k·ν₀⌋ and j ≤ ⌈m + 1 − k·ν_∞⌉ − 1 = m − ⌊k·ν_∞⌋.
    Before the k array is formed, integer bounds at the largest k check
    that no intermediate here, in `section_counts` or in
    `counting_window_holds` leaves int64; past it this raises InputError.
    """
    c, nu0, nu_inf = as_fraction(c), as_fraction(nu0), as_fraction(nu_inf)
    # Python ints: numpy ints would wrap in the bounds below
    k_lo, k_hi = int(ks[0]), int(ks[-1])
    if k_lo < 1:
        raise InputError("k must be a positive integer")
    q = nu0.denominator * nu_inf.denominator
    m = k_hi * abs(c.numerator) + abs(d)
    drop = k_hi * (abs(nu0.numerator) + abs(nu_inf.numerator))
    shift = k_hi * (abs(nu0.numerator) * nu_inf.denominator
                    + abs(nu_inf.numerator) * nu0.denominator)
    if max(m + drop + 1, q * (m + 2) + shift) > _INT64_MAX:
        raise InputError(f"k = {k_hi} takes the section count past int64")
    k = np.asarray(ks, dtype=np.int64)
    m = k * c.numerator // c.denominator + d
    j_min = np.maximum(0, k * nu0.numerator // nu0.denominator)
    j_max = np.minimum(m, m - k * nu_inf.numerator // nu_inf.denominator)
    return k, m, j_min, j_max


def admissible_indices(k: int, c, nu0, nu_inf, d: int = 0) -> tuple[int, list[int]]:
    """(m, J): exact rational filter of degree-m monomials by (ν₀, ν_∞)."""
    _, m, j_min, j_max = (int(x[0]) for x in _index_windows((k,), c, nu0, nu_inf, d))
    return m, list(range(j_min, j_max + 1))


def admissible_set(k: int, u: ConvexProfile) -> SectionBasisData:
    m, J = admissible_indices(k, u.class_mass, u.s_minus, u.class_mass - u.s_plus)
    return SectionBasisData(k, m, tuple(J))


def section_counts(ks, c, nu0, nu_inf, d: int = 0) -> np.ndarray:
    """|J| at every k of an ascending sequence, as one int64 array.

    Each count is taken from the ends of its index window, in a few array
    operations for all k together; J itself is never built.
    """
    _, _, j_min, j_max = _index_windows(ks, c, nu0, nu_inf, d)
    return np.maximum(j_max - j_min + 1, 0)


def h0(k: int, u: ConvexProfile, d: int = 0) -> int:
    """Section count |J|; satisfies |h0/k − mass₊| < (|d| + 3)/k.

    The one-k case of `section_counts`: O(1) integer operations, with J
    never built.  See `counting_window_holds` for the exact two-sided
    window behind the bound.  One-k API for tests and the tracer; no
    runner calls it.
    """
    return int(section_counts((k,), u.class_mass, u.s_minus,
                              u.class_mass - u.s_plus, d)[0])


def counting_window_holds(ks, counts, c, nu0, nu_inf, d: int = 0) -> np.ndarray:
    """Whether each int64 count |J| lies in its exact counting window, at
    every k of an ascending sequence.

    J is the set of integers in the open interval (k·ν₀ − 1, m + 1 − k·ν_∞),
    of length L = m + 2 − k·(ν₀ + ν_∞) = k·mass + d + 2 − {k·c} with
    mass = c − ν₀ − ν_∞.  An open interval of length L > −1 holds at least
    L − 1 and fewer than L + 1 integers, so

        d + 1 − {k·c} ≤ count − k·mass < d + 3 − {k·c};

    for L ≤ −1 it holds none.  Either way |count/k − mass₊| < (|d| + 3)/k.

    With q = q₀·q_∞ the window length L is the integer q·L over q, and
    L − 1 ≤ n < L + 1 holds for an integer n exactly when
    ⌈L⌉ − 1 ≤ n ≤ ⌈L⌉, so each test compares counts with integers.
    """
    nu0, nu_inf = as_fraction(nu0), as_fraction(nu_inf)
    k, m, _, _ = _index_windows(ks, c, nu0, nu_inf, d)
    q = nu0.denominator * nu_inf.denominator
    qL = q * (m + 2) - k * (nu0.numerator * nu_inf.denominator
                            + nu_inf.numerator * nu0.denominator)
    ceil_L = -(-qL // q)
    n = np.asarray(counts, dtype=np.int64)
    return np.where(ceil_L <= -1, n == 0, (ceil_L - 1 <= n) & (n <= ceil_L))


def limit_mass(c, nu0, nu_inf) -> Fraction:
    """(c − ν₀ − ν_∞)₊, the k → ∞ limit of h0/k."""
    val = as_fraction(c) - as_fraction(nu0) - as_fraction(nu_inf)
    return val if val > 0 else Fraction(0)


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

class _Exponent:
    """E_j(t), the log of the squared pointwise weight of z^j, at fixed t.

    E_j(t) = j·t − m·f_FS(t) − k·v(t), minus k·(u(t) − c·f_FS(t)) under
    the singular weight.  The index-free terms are evaluated once; each j
    then costs a multiply and two or three in-place subtractions, in the
    order the terms are written, so every j sees the same arithmetic.
    t may be an array, a 1-element array (an atom) or 0-d (an edge).
    """

    def __init__(self, t, k: int, m: int, u: ConvexProfile, K: WeightedSet,
                 singular: bool):
        t = np.asarray(t, dtype=float)
        self.t = t
        terms = [float(m) * softplus(t), float(k) * K.weight_at(t)]
        if singular:
            terms.append(float(k) * u.singular_part(t))
        self.terms = tuple(np.asarray(x) for x in terms)

    def __call__(self, j, out=None, span=...):
        """E_j at t[span]; into out when given.  j is a float, or a float
        array that broadcasts against t[span] (a column of indices gives
        one row per index)."""
        out = np.multiply(j, self.t[span], out=out)
        for x in self.terms:
            out -= x[span]
        return out


def _tail_shifts(k: int, u: ConvexProfile, singular: bool):
    """(k·ν₀, k·ν_∞) under the singular weight, else (0, 0): E_j's exact
    slopes are j − k·ν₀ at t → −∞ and j − m + k·ν_∞ at t → +∞."""
    return ((k * u.s_minus, k * (u.class_mass - u.s_plus)) if singular
            else (Fraction(0), Fraction(0)))


def _measure_is_whole_line(nu: RadialMeasure) -> bool:
    bp = nu.breakpoints
    return bool(
        bp.size
        and nu.density_fn is not None
        and bp[0] <= -ASYMPTOTE_T + 1e-9
        and bp[-1] >= ASYMPTOTE_T - 1e-9
    )


def _weight_kinks(K: WeightedSet) -> np.ndarray:
    """v's kinks: K's component ends, and its sample nodes where v is their
    nonzero piecewise-linear interpolant (no `v_fn`)."""
    ts, vs = K.sample_points()
    kinks = [np.ravel([(a, b) for a, b, _, _ in K.components])]
    if K.v_fn is None and np.any(vs):
        kinks.append(ts)
    return np.concatenate(kinks)


def _norm_breaks(K: WeightedSet, nu: RadialMeasure):
    """β's cells in `bergman`, before refinement: ν's breakpoints with v's
    kinks inserted, all of β's integrand's kinks (it never reads u)."""
    base = np.asarray(nu.breakpoints, dtype=float)
    if base.size == 0:
        return None
    return insert_interior(base, _weight_kinks(K))


def _plan_cells(k: int, u: ConvexProfile, K: WeightedSet, nu: RadialMeasure):
    """The norms' cells: the integrand's kinks on ν's support, ends
    included, refined at k (None for atoms only).  A density measure is its
    `density_fn` on [bp[0], bp[−1]], as every constructor in `measures`
    builds it; v kinks at `_weight_kinks`; u at the contact points where a
    `WindowEnvelope` switches to its tangent lines, else at its grid."""
    bp = nu.breakpoints
    if bp.size == 0:
        return None
    kinks = [_weight_kinks(K)]
    w = u.exact
    if isinstance(w, WindowEnvelope):
        kinks.append([float(logit(float(s) / float(w.c))) for s in (w.lo, w.hi)
                      if 0 < s < w.c])
    else:
        kinks.append(u.grid)
    return refine_breakpoints(insert_interior(bp[[0, -1]], np.concatenate(kinks)), k)


def _minus_fraction(n: np.ndarray, x: Fraction) -> np.ndarray:
    """n − x for int64 n, rounded once from the exact rational, as `float`
    rounds a Fraction: both division operands stay below 2⁵³."""
    num = n * x.denominator - x.numerator
    if max(np.max(np.abs(num)), x.denominator) >= 2 ** 53:
        raise InputError(f"tail rate {x} is not exact in floating point")
    return num / x.denominator


class _NormPlan:
    """log N² of every z^j against ν from one quadrature plan, and β from
    the same pass.

    The caller gives the cells: `_log_norms2` the integrand's kinks refined
    at k (`_plan_cells`), so no Gauss cell straddles a jump of u″ or v″;
    `bergman` β's own cells.  The nodes, the index-free exponent terms,
    log ρ and log w are evaluated once.  `_blocks` takes the indices as the
    rows of (index × node) blocks of at most KERNEL_BLOCK entries, each row
    the arithmetic of a separate quadrature of its index: j·t, less the
    index-free terms in order, plus log ρ and log w.  It is the one
    reduction: each row less its max goes through exp, is summed by cell
    and then over all the cells, and `log_norms2` and `beta` both take N²
    from those sums.  Cells wholly more than −LOG_TINY below every row's
    peak are not evaluated: `exp_normal` writes their terms as 0.0.  A
    measure of atoms only has no cells (None) and no blocks: its
    quadrature piece is −∞.
    """

    def __init__(self, k: int, m: int, u: ConvexProfile, K: WeightedSet,
                 nu: RadialMeasure, singular: bool, cells: np.ndarray | None):
        if cells is None and not nu.atoms:
            raise InputError("measure carries neither cells nor atoms")
        # quadrature integrates the density; cell masses alone do not give it
        if cells is not None and nu.density_fn is None:
            raise InputError("a measure with cells needs a density_fn to integrate against")
        self.m = m
        self.tail_shifts = _tail_shifts(k, u, singular)
        self.body = self.edges = None
        if cells is not None:
            ts, ws = gauss_cells(cells)
            self.log_ws = np.log(ws)
            self.body = _Exponent(ts, k, m, u, K, singular)
            self.log_dens = log_positive(nu.density_fn(ts))
            # per cell: its first and last node, and the max of the index-free
            # part E_j − j·t + log ρ + log w over its nodes
            free = self.log_ws.copy()
            for x in self.body.terms:
                free -= x
            free += self.log_dens
            shape = (cells.size - 1, GL_NODES)
            self.cell_free = free.reshape(shape).max(axis=1)
            self.cell_t0, self.cell_t1 = ts.reshape(shape)[:, [0, -1]].T
            if _measure_is_whole_line(nu):
                self.edges = tuple(
                    (_Exponent(edge, k, m, u, K, singular),
                     float(np.log(nu.density_fn(edge))))
                    for edge in (cells[0], cells[-1])
                )
        self.atoms = tuple((_Exponent(np.asarray([t]), k, m, u, K, singular), np.log(w))
                           for t, w in nu.atoms)

    def _blocks(self, jf: np.ndarray):
        """The cells' sums for the float indices jf ≥ 0, one block of rows
        at a time: (rows, shift, sums, quad).  Each row's terms
        E_j + log ρ + log w, less their max shift (`exp_rows`), are summed
        by cell into a row of sums as wide as all the cells, 0.0 at those
        not evaluated; quad, log N²'s quadrature piece, is shift + log of
        that row's sum.  Every sum runs over all the cells, so none depends
        on KERNEL_BLOCK or on which cells are evaluated.

        Some node of a cell reaches j·t0 + free and none exceeds j·t1 + free;
        a block's cells whose bound lies more than −LOG_TINY below each row's
        best reach (less a unit margin for rounding) are not evaluated.
        """
        if self.body is None:
            return
        n = self.body.t.size
        rows = max(1, KERNEL_BLOCK // n)
        block = np.empty((min(rows, jf.size), n))
        for lo in range(0, jf.size, rows):
            j = jf[lo:lo + rows, None]
            reach = np.max(j * self.cell_t0 + self.cell_free, axis=1)
            top = j * self.cell_t1 + self.cell_free
            live = np.flatnonzero(np.any(
                ~(top < reach[:, None] + (LOG_TINY - 1.0)), axis=0))
            span = slice(live[0] * GL_NODES, (live[-1] + 1) * GL_NODES)
            ex = self.body(j, out=block[:j.size, span], span=span)
            ex += self.log_dens[span]
            ex += self.log_ws[span]
            shift = exp_rows(ex)
            sums = np.zeros((j.size, self.cell_free.size))
            sums[:, live[0]:live[-1] + 1] = ex.reshape(j.size, -1, GL_NODES).sum(axis=2)
            yield slice(lo, lo + j.size), shift, sums, shift + log_positive(np.sum(sums, axis=1))

    def _pieces(self, js: np.ndarray) -> list:
        """log N²'s pieces besides the cells', as arrays over the int64 js:
        E_j + log w at each atom; then at each end of a whole-line measure's
        cells E_j + log ρ there, less the log of the rate at which it decays
        beyond: j + 1 − k·ν₀ at −∞ and m − j + 1 − k·ν_∞ at +∞ (ρ contributes
        e^{t} and e^{−t}), both positive for j ∈ J."""
        jf = js.astype(float)
        pieces = [E(jf) + log_w for E, log_w in self.atoms]
        if self.edges is not None:
            s_lo, s_hi = self.tail_shifts
            rates = (_minus_fraction(js + 1, s_lo), _minus_fraction(self.m - js + 1, s_hi))
            pieces += [E(jf) + log_rho - np.log(rate)
                       for (E, log_rho), rate in zip(self.edges, rates)]
        return pieces

    def log_norms2(self, js: np.ndarray) -> np.ndarray:
        """log N² of z^j for every j of the int64 array js."""
        quad = np.full(js.size, -np.inf)
        for rows, _, _, piece in self._blocks(js.astype(float)):
            quad[rows] = piece
        return logsumexp_rows(np.column_stack([quad] + self._pieces(js)))

    def beta(self, js: np.ndarray, k: int):
        """β = B·ν/k over J = js from one pass of the exponents: its mass
        per cell (the tails beyond a whole-line measure's ends in the end
        cells) and per atom.

        log N² is each block's quadrature piece with the atom and tail
        pieces, as in `log_norms2`.  Block after block, the cell sums times
        e^{shift − log N²}/k are added to β's cells.  A product below
        2·TINY is written as 0.0, the atoms and tails go through
        `exp_normal`: every value is 0.0 or a normal float.  An index's
        pieces over their total add up to 1, so ∫β = h0/k up to rounding.
        """
        pieces = self._pieces(js)
        log_k = math.log(k)
        cells = np.zeros(0 if self.body is None else self.cell_free.size)
        logs = logsumexp_rows(np.column_stack(pieces)) if self.body is None else np.empty(js.size)
        for rows, shift, sums, quad in self._blocks(js.astype(float)):
            logs[rows] = logsumexp_rows(np.column_stack([quad] + [p[rows] for p in pieces]))
            scale = exp_normal(shift - logs[rows] - log_k)
            sums[sums < (2.0 * TINY / np.maximum(scale, TINY))[:, None]] = 0.0
            sums *= scale[:, None]
            for row in sums:
                cells += row
        masses = [float(np.sum(exp_normal(p - logs - log_k))) for p in pieces]
        if self.edges is not None:
            cells[0] += masses[-2]
            cells[-1] += masses[-1]
        return cells, masses[:len(self.atoms)]


def _log_sups2(k: int, m: int, u: ConvexProfile, K: WeightedSet, js,
               singular: bool) -> np.ndarray:
    """log of the max of e^{E_j} over a scan of K, for every j of the
    ascending int array js: a lower bound on log sup over K of e^{E_j},
    not that sup itself.

    With G the sum of `_Exponent`'s index-free terms, the max of
    j·t − G(t) over the scan is the conjugate at slope j of G's samples,
    which one walk over their lower hull takes for every j.  The scan is
    K's component grids refined against the weight scale; on the whole
    space it reaches the asymptotic range, where E_j's exact tail slopes
    bound it unless it grows.  With v = 0 on K = X the sup is m·g*(j/m)
    (`fs_conjugate`), and the scan falls short of it by up to 0.36 at
    k = 3000.
    """
    js = np.asarray(js, dtype=np.int64)
    ts, _ = K.sample_points()
    if K.whole_space:
        s_lo, s_hi = _tail_shifts(k, u, singular)
        for grows, end in ((js < s_lo, "-inf"), (js - m + s_hi > 0, "+inf")):
            if np.any(grows):
                raise DivergentIntegralError(
                    f"sup of index {js[grows][0]} grows at t → {end}")
        scan = refine_breakpoints(insert_interior(
            _pad_to_asymptotes(ts), np.concatenate([u.grid, ts])), k)
    else:
        scan = np.concatenate([
            np.asarray([a]) if a == b else refine_breakpoints(insert_interior(grid, u.grid), k)
            for a, b, grid, _ in K.components
        ])
    G = np.sum(_Exponent(scan, k, m, u, K, singular).terms, axis=0)
    return conjugate_at_slopes(*lower_hull(scan, G), js)


# ---------------------------------------------------------------------------
# closed-form norms and β: v = 0 against the Fubini–Study volume on K = X,
# or against the area density on [a, b] ⊂ K
# ---------------------------------------------------------------------------
#
# Under x = σ(t) the FS measure is dx, e^t = x/(1 − x) and e^{−f_FS} = 1 − x,
# so the integrand of z^j is x^j (1 − x)^{m−j}: N_j² = B(j+1, m−j+1).  Under
# the singular weight of a `WindowEnvelope(c, lo, hi)` profile the middle
# x ∈ [x₀, x₁] = [lo/c, hi/c] keeps that integrand, and each tangent-line
# tail is e^{k·g*}·x^A (1 − x)^{B−A} with A = j − k·lo (mirrored at x₁) and
# B = m − k·c.
#
# The area density ∝ e^t on [a, b] is dx/(1 − x)² under the same
# substitution, so z^j's integrand there is x^j (1 − x)^{m−j−2} on
# [σ(a), σ(b)]: an incomplete Beta(j+1, m−j−1) for j ≤ m − 2, whose CDF
# is a binomial tail as on the FS volume, and for j = m − 1, m (second
# parameter 0, −1) the ₂F₁ series of `_log_tail`.  Only β uses it; the
# norms there stay the plan's, so the plan has this closed form as its
# oracle.

# The ₂F₁ series are summed to at most this many terms; a window end so
# near 0 or c, or an annulus end σ(b) so near 1, that more are needed
# leaves the norms, or β, to the plan.
SERIES_MAX_TERMS = 256


def _log1m_exp(d: np.ndarray) -> np.ndarray:
    """log(1 − e^d) for d ≤ 0 (−∞ at d = 0), without cancellation."""
    out = np.full_like(d, -np.inf)
    near = (d > -math.log(2.0)) & (d < 0)
    far = d <= -math.log(2.0)
    out[near] = np.log(-np.expm1(d[near]))
    out[far] = np.log1p(-exp_normal(d[far]))
    return out


@lru_cache(maxsize=4)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, i) for i = 0..n, each the log of the exact integer."""
    half = np.empty(n // 2 + 1)
    c = 1
    for i in range(half.size):
        half[i] = math.log(c)
        c = c * (n - i) // (i + 1)
    out = np.concatenate([half, half[:(n + 1) // 2][::-1]])
    out.setflags(write=False)
    return out


def _log_gap(low0, up0, low1, up1):
    """log(I_{x₁} − I_{x₀}) for I_x = P(N > j), from both tails at x₀ < x₁:
    on the side where both incomplete-Beta values (upper) or both
    complements (lower) are small, and whether that side is the upper one."""
    upper = up1 <= low0
    big = np.where(upper, up1, low0)
    small = np.where(upper, up0, low1)
    out = np.full(big.size, -np.inf)
    live = np.isfinite(big)
    out[live] = big[live] + _log1m_exp(small[live] - big[live])
    return out, upper


def _log_tail(a1: np.ndarray, b2: float, x) -> np.ndarray | None:
    """log ∫₀^x s^{a1−1} (1 − s)^{b2−a1−1} ds for a1 > 0 and b2 > 0, with
    x a float or an array that broadcasts against a1.

    Equals x^{a1}(1 − x)^{b2−a1}/a1 · ₂F₁(b2, 1; a1 + 1; x), whose series
    Σₙ (b2)ₙ/(a1 + 1)ₙ·xⁿ has positive terms.  The term count starts at
    log ε / log x for the largest x and doubles until the bound
    t_{N+1}/(1 − q) on what the terms t_0..t_N leave out lies below 2⁻⁵³ of
    their sum; None once it would pass SERIES_MAX_TERMS.  The logs of x and
    1 − x are `math`'s, one value at a time: numpy's vectorized logs can
    round differently in the last bit.
    """
    x = np.asarray(x, dtype=float)
    if np.max(x) >= 1.0:        # q = 1: no term count suffices
        return None
    log_x = np.asarray([math.log(v) for v in x.flat]).reshape(x.shape)
    log_1mx = np.asarray([math.log1p(-v) for v in x.flat]).reshape(x.shape)
    n_terms = math.ceil(-60.0 * math.log(2.0) / float(np.max(log_x)))
    term_axis = (-1,) + (1,) * len(np.broadcast_shapes(np.shape(a1), x.shape))
    while n_terms <= SERIES_MAX_TERMS:
        n = np.arange(n_terms + 1, dtype=float).reshape(term_axis)
        log_ratio = np.log((b2 + n) / (a1 + 1.0 + n)) + log_x
        log_terms = np.cumsum(log_ratio, axis=0)     # row i: log t_{i+1}
        total = 1.0 + np.sum(exp_normal(log_terms[:-1]), axis=0)   # t_0..t_N
        # the ratios t_{i+1}/t_i are monotone in i with limit x, so every
        # one past N is at most q = max(x, ratio_N)
        q = np.maximum(x, exp_normal(log_ratio[-1]))
        if np.all(q < 1.0):
            bound = log_terms[-1] - np.log1p(-q)
            if np.all(bound <= np.log(total) - 53.0 * math.log(2.0)):
                return (a1 * log_x + (b2 - a1) * log_1mx - np.log(a1)
                        + np.log(total))
        n_terms *= 2
    return None


def _closed_form_density(K: WeightedSet, nu: RadialMeasure):
    """ν's density where β has a closed form, else None; v ≡ 0 where ν
    lives, and ν has no atoms, in both cases:

    (a) `logistic_density` over the whole line with K = X: the FS volume,
        where the norms have a closed form too;
    (b) an `AreaDensity` on [a, b], ν's cells spanning exactly [a, b],
        inside the sample span of one component of K whose weight samples
        are all 0 (no `v_fn`), so that v's interpolant is 0 on [a, b].

    The density is recognized by its object, never by a name."""
    f, bp = nu.density_fn, nu.breakpoints
    if nu.atoms or f is None:
        return None
    if f is logistic_density:
        return f if K.unweighted_whole_space and _measure_is_whole_line(nu) else None
    if not (isinstance(f, AreaDensity) and K.v_fn is None and bp.size
            and (bp[0], bp[-1]) == (f.a, f.b)):
        return None
    inside = any(grid[0] <= f.a and f.b <= grid[-1] and not np.any(vals)
                 for _, _, grid, vals in K.components)
    return f if inside else None


def _closed_form_log_norms2(k: int, m: int, js: np.ndarray, u: ConvexProfile,
                            K: WeightedSet, nu: RadialMeasure,
                            singular: bool) -> np.ndarray | None:
    """log N_j² for j in js in closed form; None where none applies.

    It applies on the FS volume (case (a) of `_closed_form_density`):
    always under the smooth-metric convention, and under the singular
    weight when u is a `WindowEnvelope` profile, where the ₂F₁ parameter
    B + 2 = m + 2 − k·c = 2 − {k·c} lies in (1, 2], so the tail series has
    positive terms.  Every j lies in J, as in `_log_norms2`.
    """
    if _closed_form_density(K, nu) is not logistic_density:
        return None
    w = u.exact
    if singular and w != u.window:
        return None
    log_beta = -math.log(m + 1) - _log_binomials(m)[js]
    if not singular or (w.lo == 0 and w.hi == w.c):
        return log_beta        # the singular weight is then exactly 1
    c, lo, hi = w.c, w.lo, w.hi
    # A + 1 = j + 1 − k·lo and m − j + 1 − k·ν_∞: integer part, then fraction
    kl, kr = k * lo, k * (c - hi)
    a_left = (js - math.floor(kl)) + float(1 - (kl - math.floor(kl)))
    a_right = (m - js - math.floor(kr)) + float(1 - (kr - math.floor(kr)))
    b2 = Fraction(m + 2) - k * c
    # I_{x₁} − I_{x₀} of (j + 1, m − j + 1) at x = lo/c, hi/c: t = logit(x),
    # ∓∞ at x = 0, 1
    with np.errstate(divide="ignore"):
        ends = logit(np.asarray([float(lo / c), float(hi / c)]))
    pieces = [log_beta + _log_binomial_gap(ends, m + 1, js)[0]]
    for x, a1, s in ((lo / c, a_left, lo), ((c - hi) / c, a_right, hi)):
        if x > 0:
            tail = _log_tail(a1, float(b2), float(x))
            if tail is None:
                return None
            pieces.append(float(k) * fs_conjugate(s, c) + tail)
    return logsumexp_rows(np.column_stack(pieces))


def _binomial_steps(t: np.ndarray, n: int):
    """The rows of Bin(n, σ(t)): log P(i+1)/P(i) − t = log((n − i)/(i + 1))
    for i < n, and each point's mode ⌊(n + 1)·σ(t)⌋."""
    i = np.arange(n)
    return np.log((n - i) / (i + 1.0)), np.clip(np.floor((n + 1) * sigmoid(t)), 0, n)


def _log_rows(t: np.ndarray, log_ratio: np.ndarray, mode: np.ndarray,
              lo: int, hi: int) -> np.ndarray:
    """log P(i)/P(i₀) for i in [lo, hi], one row per point of the
    ascending t, each row's mode i₀ in [lo, hi].

    The cumulative sums of log_ratio + t outward from i₀, so no term of
    the size of log C(n, i) is rounded; on [lo, hi] they are those of the
    whole row 0..n, bit for bit.  Each fold runs only over its own side's
    span: the upward one from the smallest mode, the downward one to the
    largest, the first row's and the last's (modes are nondecreasing in
    t).  Before a fold's first term it would add only exact zeros.
    """
    up0, down1 = int(mode[0]), int(mode[-1])
    lw = np.zeros((t.size, hi - lo + 1))
    up = log_ratio[up0:hi] + t[:, None]
    up[np.arange(up0, hi) < mode[:, None]] = 0.0
    np.cumsum(up, axis=1, out=lw[:, up0 + 1 - lo:])
    down = log_ratio[lo:down1] + t[:, None]
    down[np.arange(lo, down1) >= mode[:, None]] = 0.0
    lw[:, :down1 - lo] -= np.cumsum(down[:, ::-1], axis=1)[:, ::-1]
    return lw


def _log_binomial_gap(ends: np.ndarray, n: int, js: np.ndarray):
    """`_log_gap` of the tails P(N ≤ j) and P(N > j) = I_x(j + 1, n − j)
    of N ~ Bin(n, σ(t)) at the two points t₀ ≤ t₁ of ends (∓∞ allowed),
    for j in js ⊂ [0, n): log(I_{x₁} − I_{x₀}) and whether it was taken
    on the upper side.

    Both rows are whole (`_log_rows`), and each tail is summed from its
    own end, so a small one keeps its relative accuracy.
    """
    log_ratio, mode = _binomial_steps(ends, n)
    tails = []
    for w in exp_normal(_log_rows(ends, log_ratio, mode, 0, n)):
        lower, upper = np.cumsum(w), np.cumsum(w[::-1])[::-1]
        log_total = math.log(lower[-1])
        tails += [log_positive(lower[js]) - log_total,
                  log_positive(upper[js + 1]) - log_total]
    return _log_gap(*tails)


def _row_windows(t: np.ndarray, n: int, log_ratio: np.ndarray, mode: np.ndarray):
    """(first row, last row, lo, hi) of each chunk of ROW_CHUNK rows of
    Bin(n, σ(t)), t ascending.

    [lo, hi] holds every entry of the chunk's rows above LOG_TINY relative
    to its mode.  The modes are nondecreasing in t and the rows
    log-concave, so both ends of a row's live window are nondecreasing in
    t: lo is the chunk's first row's lowest live index and hi its last
    row's highest.  Both come from the prefix sums of log_ratio at those
    two rows, less a unit margin for rounding (as in `_NormPlan._blocks`'
    prune).
    """
    first = np.arange(0, t.size, ROW_CHUNK)
    last = np.minimum(first + ROW_CHUNK, t.size) - 1
    ends = np.concatenate([first, last])
    g = np.concatenate([[0.0], np.cumsum(log_ratio)]) + np.arange(n + 1) * t[ends, None]
    g -= g[np.arange(ends.size), mode[ends].astype(np.intp)][:, None]
    live = g > LOG_TINY - 1.0
    lo = np.argmax(live[:first.size], axis=1)
    hi = n - np.argmax(live[first.size:, ::-1], axis=1)
    return zip(*(v.tolist() for v in (first, last, lo, hi)))


def _binomial_row_means(t: np.ndarray, n: int, weights: np.ndarray,
                        unit: float) -> np.ndarray:
    """unit·E[weights[N]] for N ~ Bin(n, σ(t)) at each point of the
    ascending array t: one column per column of weights, which has n + 1
    nonnegative rows.  Every closed-form β is this kernel against its own
    weights.

    Each row (`_log_rows`) is normalized by its own sum.  The rows are
    built and summed a chunk at a time over its window [lo, hi]
    (`_row_windows`), outside which `exp_normal` would write 0.0, so no
    sum leaves out a nonzero term.  A value that would not be a normal
    float is written as 0.0.
    """
    log_ratio, mode = _binomial_steps(t, n)
    num = np.empty((t.size, weights.shape[1]))
    den = np.empty((t.size, 1))
    for r0, r1, lo, hi in _row_windows(t, n, log_ratio, mode):
        sl = slice(r0, r1 + 1)
        lw = _log_rows(t[sl], log_ratio, mode[sl], lo, hi)
        w = exp_normal(lw, out=lw)
        num[sl] = w @ weights[lo:hi + 1]
        den[sl, 0] = np.sum(w, axis=1) / unit
    # 0.0 where num/den could leave the normal range; the bound is put on
    # num (≥ tiny where nonzero), so no subnormal is ever formed
    normal = num >= 2.0 * TINY * np.maximum(den, 1.0)
    return np.divide(num, den, out=np.zeros_like(num), where=normal)


def _fs_beta_cdfs(t: np.ndarray, m: int, j_min: int, n_J: int,
                  unit: float) -> np.ndarray:
    """Columns unit·G(x) and unit·(|J| − G(x)) at x = σ(t), t ascending,
    where G(x) = Σ_J I_x(j+1, m−j+1) over J = [j_min, j_max], n_J = |J| > 0.

    Under x = σ(t), z^j's normalized FS density is Beta(j+1, m−j+1), whose
    CDF is I_x(j+1, m−j+1) = P(N > j) with N ~ Bin(m + 1, x).  Summed over
    J, G(x) = E[clip(N − j_min, 0, |J|)] and |J| − G(x) =
    E[clip(j_max + 1 − N, 0, |J|)]: `_binomial_row_means` against the two
    clip vectors, each side summed from its own nonnegative terms.
    """
    lower = np.clip(np.arange(m + 2) - j_min, 0, n_J)
    weights = np.stack([lower, n_J - lower], axis=1).astype(float)
    return _binomial_row_means(t, m + 1, weights, unit)


def _fs_beta_cell_masses(bp: np.ndarray, m: int, j_min: int, n_J: int,
                         unit: float) -> np.ndarray:
    """unit·Σ_J of each z^j's normalized FS mass on the cells of bp, with
    the two tails beyond bp's ends in its first and last cell.

    A cell's mass is the difference of G, or of |J| − G, on whichever side
    both terms are small (as in `_log_gap`), so a small mass keeps its
    relative accuracy.  G(0) = 0 and |J| − G(1) = 0 stand at the outer
    ends, so the first cell's mass is G at bp[1] and the last one's is
    |J| − G at bp[−2], each with its tail.
    """
    cdfs = _fs_beta_cdfs(bp[1:-1], m, j_min, n_J, unit)
    total = unit * n_J
    g = np.concatenate([[0.0], cdfs[:, 0], [total]])
    h = np.concatenate([[total], cdfs[:, 1], [0.0]])
    return np.where(g[1:] <= h[:-1], g[1:] - g[:-1], h[:-1] - h[1:])


def _area_beta_cell_masses(bp: np.ndarray, m: int, J, unit: float) -> np.ndarray | None:
    """unit·Σ_J of each z^j's normalized mass on the cells of bp against the
    area density on [a, b] = [bp[0], bp[−1]], v = 0; None where the closed
    form does not apply.

    Under x = σ(t) z^j's density is ∝ x^j (1 − x)^{m−j−2} on [x_a, x_b].
    For j ≤ m − 2 that is Beta(j+1, m−j−1), with CDF I_x = P(N > j) for
    N ~ Bin(m − 1, x), so its normalized CDF is (I_x − I_{x_a})/Z_j with
    Z_j = I_{x_b} − I_{x_a}.  Each j is taken on the side where both of
    its end terms are small (`_log_gap`): the upper side sums
    P(N > j)/Z_j, which rises from x_a to x_b, the lower side
    P(N ≤ j)/Z_j, which falls.  Summed over each side these are
    `_binomial_row_means` against the cumulative weights Σ_{j<i} 1/Z_j and
    Σ_{j≥i} 1/Z_j, and a cell's mass is the rise of the first plus the
    fall of the second.  For j = m − 1 and m the second Beta parameter is
    0 or −1, and `_log_tail` gives log ∫₀^x s^j (1 − s)^{m−j−2} ds at
    every point.  Z_j's tails come from the rows at a and b, whose entries
    below LOG_TINY are 0.0, so a Z_j below 2⁵³·m·TINY (z^0's, on [−1, 1]
    from k ≈ 2200) returns None, as does a series that would pass
    SERIES_MAX_TERMS.
    """
    js = np.asarray(J, dtype=np.int64)
    x = sigmoid(bp)
    if m < 1 or not 0.0 < x[0] < x[-1] < 1.0:
        return None
    n = m - 1
    inv = np.zeros((n + 1, 2))       # 1/Z_j, upper side then lower, by j
    rows = js[js <= m - 2]
    if rows.size:
        log_z, upper = _log_binomial_gap(bp[[0, -1]], n, rows)
        if np.min(log_z) < LOG_TINY + math.log(m) + 53.0 * math.log(2.0):
            return None
        inv[rows, np.where(upper, 0, 1)] = np.exp(-log_z)
    weights = np.stack([np.concatenate([[0.0], np.cumsum(inv[:-1, 0])]),
                        np.cumsum(inv[::-1, 1])[::-1]], axis=1)
    rise, fall = _binomial_row_means(bp, n, weights, unit).T
    top = js[js > m - 2]
    if top.size:
        log_t = _log_tail((top + 1.0)[:, None], float(m), x)
        if log_t is None:
            return None
        log_z = log_t[:, -1] + _log1m_exp(log_t[:, 0] - log_t[:, -1])
        rise = rise + unit * np.sum(exp_normal(log_t - log_z[:, None]), axis=0)
    return np.diff(rise) - np.diff(fall)


def _log_norms2(k: int, m: int, J, u: ConvexProfile, K: WeightedSet,
                nu: RadialMeasure, singular: bool):
    """log N² of z^j for j in J: the closed form where one exists, else
    the quadrature plan.  Under the singular weight on a whole-line ν
    every j must lie in the admissible set, where the integrals converge."""
    js = np.asarray(J, dtype=np.int64)
    logs = _closed_form_log_norms2(k, m, js, u, K, nu, singular)
    if logs is not None:
        return logs
    return _NormPlan(k, m, u, K, nu, singular, _plan_cells(k, u, K, nu)).log_norms2(js)


def _check_index(j: int, m: int) -> None:
    if not 0 <= j <= m:
        raise InputError(f"index {j} outside [0, {m}]")


def log_norm2(j: int, k: int, u: ConvexProfile, K: WeightedSet,
              nu: RadialMeasure, singular_weight: bool = False) -> float:
    """log N² of z^j in the weighted L² norm against ν (closed-form where
    one exists, see `_log_norms2`).  Under the singular weight on a
    whole-line ν an index outside J diverges.  One-index API for tests
    and the tracer; no runner calls it."""
    basis = admissible_set(k, u)
    _check_index(j, basis.m)
    if singular_weight and j not in basis.J and _measure_is_whole_line(nu):
        raise DivergentIntegralError(f"norm integral of index {j} diverges at k={k}")
    return float(_log_norms2(k, basis.m, [j], u, K, nu, singular_weight)[0])


def log_sup2(j: int, k: int, u: ConvexProfile, K: WeightedSet,
             singular_weight: bool = False) -> float:
    """log of the max over a scan of K of the squared pointwise weight of
    z^j, a lower bound on its sup over K: the one-index case of
    `_log_sups2`, as API for tests and the tracer; no runner calls it."""
    m = admissible_set(k, u).m
    _check_index(j, m)
    return float(_log_sups2(k, m, u, K, [j], singular_weight)[0])


def section_basis(k: int, u: ConvexProfile, K: WeightedSet, nu: RadialMeasure,
                  singular_weight: bool = False) -> SectionBasisData:
    """Diagonal L² norm data over the admissible set, which is never empty
    (sup norms: `log_sup2`).

    The norms are closed-form where `_log_norms2` finds one, else from one
    quadrature plan shared by every index.
    """
    basis = admissible_set(k, u)
    logs = _log_norms2(k, basis.m, basis.J, u, K, nu, singular_weight)
    return SectionBasisData(k, basis.m, basis.J, logs)


def reference_basis(k: int, u: ConvexProfile) -> SectionBasisData:
    """The v = 0 Fubini–Study norms on the same filtered space.

    In closed form: log N_j² = log B(j+1, m−j+1) = −log(m+1) − log C(m, j),
    from the exact binomial integer.
    """
    return section_basis(k, u, WeightedSet.whole(), fs_measure())


# ---------------------------------------------------------------------------
# partial Bergman kernels and measures
# ---------------------------------------------------------------------------

def bergman(k: int, u: ConvexProfile, K: WeightedSet, nu: RadialMeasure) -> BergmanResult:
    """The partial Bergman measure β = B·ν/k over (K, v, ν), with its mass.

    β's cells are ν's breakpoints (with v's kinks) refined at 4k.  Where
    `_closed_form_density` finds a closed form, the cell masses are
    differences of binomial expectations: on the FS volume
    (`_fs_beta_cell_masses`) and against the area density on [a, b] with
    v ≡ 0 there (`_area_beta_cell_masses`, which may decline).  Then no
    norm plan or Gauss node is built, and the mass identity ∫β = h0/k
    checks their telescoping.  Elsewhere one pass of a norm plan on β's
    cells gives the norms and β (`_NormPlan.beta`): each index's Gauss
    cells, tails and atoms over their own total N_j².  There the identity
    holds by construction, and the quadrature's oracles are the closed
    forms, in tests/test_sections.py's cross-route tests
    `TestBergman::test_matches_the_quadrature_route`,
    `::test_random_windows_match_the_quadrature_route` and
    `TestAreaBeta::test_matches_the_quadrature_route`, and in the annulus
    mirror of tests/test_mirror.py (`test_annulus_*_mirror_plan*`).
    """
    if not abs(nu.total_mass() - 1.0) <= 1e-9:
        raise InputError("reference measure must be a probability measure")
    basis = admissible_set(k, u)
    m = basis.m
    breaks = _norm_breaks(K, nu)
    fine = np.empty(0) if breaks is None else refine_breakpoints(breaks, 4 * k)
    law = _closed_form_density(K, nu)
    masses, atoms = None, ()
    if law is logistic_density:
        masses = _fs_beta_cell_masses(fine, m, basis.J[0], len(basis.J), 1 / k)
    elif law is not None:
        masses = _area_beta_cell_masses(fine, m, basis.J, 1 / k)
    if masses is None:
        # no closed form applies: a plan on β's own cells gives the norms and β
        plan = _NormPlan(k, m, u, K, nu, False, None if breaks is None else fine)
        masses, atom_masses = plan.beta(np.asarray(basis.J), k)
        atoms = tuple((t, w) for (t, _), w in zip(nu.atoms, atom_masses))
    beta = RadialMeasure(fine, masses, atoms)
    return BergmanResult(k, beta, beta.total_mass(), len(basis.J))


# ---------------------------------------------------------------------------
# Donaldson functional and Bernstein–Markov diagnostics
# ---------------------------------------------------------------------------

def donaldson(k: int, A: SectionBasisData, B: SectionBasisData) -> float:
    """ℒ(A) − ℒ(B) = (log det G_B − log det G_A)/k² at n = 1.

    The monomials are orthogonal for radial weights, so log det G is
    Σ log N² (`log_det_gram`): the factor 2 between log N and log N² is
    absorbed here exactly once.
    """
    if A.J != B.J:
        raise InputError("bases live on different index sets")
    return (B.log_det_gram - A.log_det_gram) / float(k) ** 2


def donaldson_functional(k: int, u: ConvexProfile, A: SectionBasisData) -> float:
    """ℒ_{k,u}(A) against the v = 0 Fubini–Study reference norms."""
    return donaldson(k, A, reference_basis(k, u))


def bm_rate(k: int, K: WeightedSet, nu: RadialMeasure, c=Fraction(1)) -> float:
    """(2/k)·log max_j (sup norm / L² norm) over the full degree range
    j = 0..⌊k·c⌋ of L^k, each sup norm a max over `_log_sups2`'s scan.

    Decays to 0 along k exactly when ν satisfies the Bernstein–Markov
    comparison on (K, v).
    """
    u = base_profile(as_fraction(c))
    basis = admissible_set(k, u)
    m, js = basis.m, np.asarray(basis.J, dtype=np.int64)
    gaps = _log_sups2(k, m, u, K, js, False) - _log_norms2(k, m, js, u, K, nu, False)
    return float(np.max(gaps)) / float(k)


# ---------------------------------------------------------------------------
# Bergman approximants
# ---------------------------------------------------------------------------

def bergman_approximant(k: int, u: ConvexProfile) -> ConvexProfile:
    """Level-k log-section-density profile approximating u's envelope.

    F̃(t) = (1/k)·log Σ_{j∈J} e^{j·t}/N_j², with norms carrying the
    singular weight e^{-k·u} against the Fubini–Study volume; the tails
    are exactly (j_min/k, j_max/k), giving the 1/k Lelong sandwich.  For
    a `WindowEnvelope` profile (the fixtures') the norms are closed-form:
    Beta and incomplete-Beta values for the middle of the window and ₂F₁
    series for its tangent-line tails; other profiles use the plan.
    The returned profile evaluates F̃ exactly: the (point × index)
    exponents j·t − log N_j² go through `logsumexp_rows`, one row per
    point, and are divided by k.  Its grid is u's grid padded to the
    asymptotic range, so it contains u's, and its values are F̃ there, bit
    for bit what evaluating it gives.
    """
    if u.mass <= 0:
        raise NoSectionsError("approximant needs positive mass")
    basis = section_basis(k, u, WeightedSet.whole(), fs_measure(),
                          singular_weight=True)
    js = np.asarray(basis.J, dtype=float)
    logs = basis.log_norms2

    def F(t):
        t = np.asarray(t, dtype=float)
        ex = js * t.reshape(-1, 1) - logs
        return (logsumexp_rows(ex) / float(k)).reshape(t.shape)

    grid = _pad_to_asymptotes(u.grid)
    vals = F(grid)
    s_minus = Fraction(int(basis.J[0]), k)
    s_plus = Fraction(int(basis.J[-1]), k)
    return ConvexProfile(
        u.class_mass, grid, vals, s_minus, s_plus,
        float(vals[0]) - float(s_minus) * grid[0],
        float(vals[-1]) - float(s_plus) * grid[-1],
        exact=F,
    )


def approximant_lower_bound_constant(k: int, u: ConvexProfile,
                                     approx: ConvexProfile) -> float:
    """max(0, sup(F_u − F̃))·k/log(max(k, 2)): for k ≥ 2 the smallest
    C ≥ 0 with F̃ + C·log(k)/k ≥ F_u over the line; at k = 1, where
    log k = 0 and no such C exists unless F̃ ≥ F_u, the gap over log 2."""
    gap = sup_difference(u, approx)
    return max(0.0, float(gap) * k / np.log(max(2, k)))
