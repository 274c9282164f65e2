"""Filtered section spaces, weighted norms, and partial Bergman data.

Degree bookkeeping: twisting by (rank r, degree shift d) makes the level-k
section space the degree m = ⌊k·c⌋ + d monomials, filtered by the exact
integrability inequalities j + 1 > k·ν₀ and m − j + 1 > k·ν_∞ (boundary
indices diverge for exact linear tails and are excluded).

Norms follow the smooth-metric convention: the weight is m·f_FS + k·v and
the singular potential enters only through the admissible index filter.
`singular_weight=True` switches to the e^{-k·u}-weighted integrand (the
convention of the Bergman approximants' norm constraint), under which the
boundary-index integrals genuinely diverge.

L² norms come from one helper, `_log_norms2`, which every caller of a
norm goes through (`log_norm2`, `section_basis` and so `reference_basis`
and `bergman_approximant`, `bm_rate`; `bergman` holds the plan itself
off the FS volume, where no closed form applies).  It takes a closed form
where one exists: v ≡ 0 on K = X against the Fubini–Study volume, where
N_j² is the Beta value B(j+1, m−j+1) under the smooth-metric convention
and, under the singular weight of a `WindowEnvelope` profile, a Beta value
times a difference of regularized incomplete Beta functions plus two
positive ₂F₁ tail series, all summed in numpy.  Everywhere else (sampled
or nonzero weights, compact K, other measures, d ≤ −2 under the singular
weight, a window end very near 0 or c) the norms come from one quadrature
plan per (k, u, K, ν), on cells at the integrand's kinks refined at k.
It reduces all indices together, in blocks; each index's row is the
arithmetic a separate quadrature of it on those cells would do, so its
norms are the same to the last bit.

The partial Bergman measure β = B·ν/k (`bergman`) takes one of two
routes.  On the same FS volume with v ≡ 0 it is closed-form: z^j's
normalized mass has CDF I_x(j+1, m−j+1) at x = σ(t), whose sum over J is
an expectation of a clipped Bin(m + 1, x) variable, so every cell mass is
a difference of two such sums, and no norm, plan or kernel value is
computed.  Elsewhere the kernel (`_kernel`), from the plan's norms, is
evaluated only where β needs it: at the norms' 32-node Gauss rule over
cells refined at 4k and at ν's atoms.
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
from .errors import (
    ConditioningError,
    DivergentIntegralError,
    InputError,
    NoSectionsError,
)
from .measures import RadialMeasure, fs_measure
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
    gauss_cells,
    insert_interior,
    log_density,
    logsumexp_rows,
    refine_breakpoints,
)

# Kernel exponents (t × J) and the norm plan's exponents (J × node) are
# evaluated in blocks of about this many entries, so the working set stays
# bounded at large k.
KERNEL_BLOCK = 2 ** 16

__all__ = [
    "TwistData",
    "SectionBasisData",
    "BergmanResult",
    "admissible_indices",
    "admissible_set",
    "h0",
    "section_counts",
    "counting_bound_holds",
    "counting_window_holds",
    "limit_mass",
    "l2_norm",
    "sup_norm",
    "log_norm2",
    "log_sup2",
    "section_basis",
    "reference_basis",
    "bergman",
    "gram",
    "donaldson",
    "donaldson_functional",
    "bm_rate",
    "bergman_approximant",
    "approximant_lower_bound_constant",
]


@dataclass(frozen=True)
class TwistData:
    """Twist bundle reduced to (rank, degree shift)."""

    rank: int = 1
    degree_shift: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise InputError("twist rank must be at least 1")


@dataclass(frozen=True)
class SectionBasisData:
    """Admissible monomial indices plus L² norm data over them.

    Diagonal case: log_norms2[i] = log N²(z^{J[i]}).  General case: a
    Hermitian positive-definite Gram matrix over J.
    """

    k: int
    m: int
    J: tuple
    log_norms2: np.ndarray | None = None
    gram_matrix: np.ndarray | None = None

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
        """log det of the Hermitian Gram form (diagonal: Σ log N²)."""
        if self.gram_matrix is not None:
            sign, val = np.linalg.slogdet(self.gram_matrix)
            if sign <= 0:
                raise ConditioningError("Gram determinant not positive")
            return float(val)
        if self.log_norms2 is None:
            raise InputError("basis carries no norm data")
        return float(np.sum(self.log_norms2))


@dataclass(frozen=True)
class BergmanResult:
    """The partial Bergman measure β = B·ν/k at level k, its total mass,
    and the section count h0 = r·|J| (the mass identity is ∫β = h0/k)."""

    k: int
    beta: RadialMeasure
    total_mass: float
    h0: int


# ---------------------------------------------------------------------------
# admissible indices and section counts
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _index_windows(ks, c, nu0, nu_inf, tw: TwistData):
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
    d = tw.degree_shift
    q = nu0.denominator * nu_inf.denominator
    m = k_hi * abs(c.numerator) + abs(d)
    drop = k_hi * (abs(nu0.numerator) + abs(nu_inf.numerator))
    shift = k_hi * (abs(nu0.numerator) * nu_inf.denominator
                    + abs(nu_inf.numerator) * nu0.denominator)
    if max(tw.rank * (m + drop + 1), q * (m + 2) + shift) > _INT64_MAX:
        raise InputError(f"k = {k_hi} takes the section count past int64")
    k = np.asarray(ks, dtype=np.int64)
    m = k * c.numerator // c.denominator + d
    j_min = np.maximum(0, k * nu0.numerator // nu0.denominator)
    j_max = np.minimum(m, m - k * nu_inf.numerator // nu_inf.denominator)
    return k, m, j_min, j_max


def admissible_indices(k: int, c, nu0, nu_inf,
                       tw: TwistData = TwistData()) -> tuple[int, list[int]]:
    """(m, J): exact rational filter of degree-m monomials by (ν₀, ν_∞)."""
    _, m, j_min, j_max = (int(x[0]) for x in _index_windows((k,), c, nu0, nu_inf, tw))
    return m, list(range(j_min, j_max + 1))


def admissible_set(k: int, u: ConvexProfile, tw: TwistData = TwistData()) -> SectionBasisData:
    m, J = admissible_indices(k, u.class_mass, u.s_minus,
                              u.class_mass - u.s_plus, tw)
    return SectionBasisData(k, m, tuple(J))


def section_counts(ks, c, nu0, nu_inf, tw: TwistData = TwistData()) -> np.ndarray:
    """r·|J| at every k of an ascending sequence, as one int64 array.

    Each count is taken from the ends of its index window, in a few array
    operations for all k together; J itself is never built.
    """
    _, _, j_min, j_max = _index_windows(ks, c, nu0, nu_inf, tw)
    return tw.rank * np.maximum(j_max - j_min + 1, 0)


def h0(k: int, u: ConvexProfile, tw: TwistData = TwistData()) -> int:
    """Section count r·|J|; satisfies |h0/(r·k) − mass₊| < (|d| + 3)/k.

    The one-k case of `section_counts`: O(1) integer operations, with J
    never built.  See `counting_bound_holds` for the exact two-sided
    window behind the bound.
    """
    return int(section_counts((k,), u.class_mass, u.s_minus,
                              u.class_mass - u.s_plus, tw)[0])


def counting_window_holds(ks, counts, c, nu0, nu_inf,
                          tw: TwistData = TwistData()) -> np.ndarray:
    """Whether each int64 count r·|J| lies in its exact counting window, at
    every k of an ascending sequence; `counting_bound_holds` derives the
    window.

    With q = q₀·q_∞ the window length L is the integer q·L over q, and
    L − 1 ≤ n < L + 1 holds for an integer n exactly when
    ⌈L⌉ − 1 ≤ n ≤ ⌈L⌉, so each test compares counts with integers.
    """
    nu0, nu_inf = as_fraction(nu0), as_fraction(nu_inf)
    k, m, _, _ = _index_windows(ks, c, nu0, nu_inf, tw)
    q = nu0.denominator * nu_inf.denominator
    qL = q * (m + 2) - k * (nu0.numerator * nu_inf.denominator
                            + nu_inf.numerator * nu0.denominator)
    ceil_L = -(-qL // q)
    counts = np.asarray(counts, dtype=np.int64)
    n, rem = np.divmod(counts, tw.rank)
    return np.where(ceil_L <= -1, counts == 0,
                    (rem == 0) & (ceil_L - 1 <= n) & (n <= ceil_L))


def counting_bound_holds(k: int, count: int, c, nu0, nu_inf,
                         tw: TwistData = TwistData()) -> bool:
    """Whether a section count r·|J| lies in its exact counting window.

    J is the set of integers in the open interval (k·ν₀ − 1, m + 1 − k·ν_∞),
    of length L = m + 2 − k·(ν₀ + ν_∞) = k·mass + d + 2 − {k·c} with
    mass = c − ν₀ − ν_∞.  An open interval of length L > −1 holds at least
    L − 1 and fewer than L + 1 integers, so

        d + 1 − {k·c} ≤ count/r − k·mass < d + 3 − {k·c};

    for L ≤ −1 it holds none.  Either way |count/(r·k) − mass₊| < (|d| + 3)/k.
    The one-k case of `counting_window_holds`; a count past int64 raises
    InputError.
    """
    if abs(count) > _INT64_MAX:
        raise InputError(f"count {count} is past int64")
    return bool(counting_window_holds((k,), (count,), c, nu0, nu_inf, tw)[0])


def limit_mass(c, nu0, nu_inf) -> Fraction:
    """(c − ν₀ − ν_∞)₊, the k → ∞ limit of h0/(r·k)."""
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


def _norm_breaks(u: ConvexProfile, K: WeightedSet, nu: RadialMeasure):
    """β's cells in `bergman`, before refinement: ν's breakpoints with u's
    grid and K's sample nodes inserted."""
    base = np.asarray(nu.breakpoints, dtype=float)
    if base.size == 0:
        return None
    ts, _ = K.sample_points()
    return insert_interior(base, np.concatenate([u.grid, ts]))


def _plan_breaks(u: ConvexProfile, K: WeightedSet, nu: RadialMeasure):
    """The norm integrand's kinks on ν's support, ends included (None for
    atoms only): a density measure is its `density_fn` on [bp[0], bp[−1]],
    as every constructor in `measures` builds it; v kinks at K's component
    ends, and at its nodes where it is their nonzero piecewise-linear
    interpolant (no `v_fn`); u at the contact points where a
    `WindowEnvelope` switches to its tangent lines, else at its grid.
    Cells without a `density_fn` raise InputError: quadrature integrates
    the density, and their masses alone do not give it."""
    bp = nu.breakpoints
    if bp.size == 0:
        return None
    if nu.density_fn is None:
        raise InputError("a measure with cells needs a density_fn to integrate against")
    ts, vs = K.sample_points()
    kinks = [np.ravel([(a, b) for a, b, _, _ in K.components])]
    if K.v_fn is None and np.any(vs):
        kinks.append(ts)
    w = u.exact
    if isinstance(w, WindowEnvelope):
        kinks.append([float(logit(float(s) / float(w.c))) for s in (w.lo, w.hi)
                      if 0 < s < w.c])
    else:
        kinks.append(u.grid)
    return insert_interior(bp[[0, -1]], np.concatenate(kinks))


def _minus_fraction(n: np.ndarray, x: Fraction) -> np.ndarray:
    """n − x for int64 n, rounded once from the exact rational, as `float`
    rounds a Fraction: both division operands stay below 2⁵³."""
    num = n * x.denominator - x.numerator
    if max(np.max(np.abs(num)), x.denominator) >= 2 ** 53:
        raise InputError(f"tail rate {x} is not exact in floating point")
    return num / x.denominator


class _NormPlan:
    """log N² of every z^j against ν, from one quadrature plan.

    The cells are the integrand's kinks (`_plan_breaks`) refined at k, so
    no Gauss cell straddles a jump of u″ or v″.  The nodes, the index-free
    exponent terms, log ρ and log w are evaluated once.  `log_norms2`
    takes the indices as the rows of (index × node) blocks of at most
    KERNEL_BLOCK entries, each row the arithmetic of a separate quadrature
    of its index: j·t, less the index-free terms in order, plus log ρ and
    log w; then `logsumexp_rows`: the row max, exp and the sum over the
    whole row.
    Cells wholly more than −LOG_TINY below every row's peak are not
    evaluated: `exp_normal` writes their terms as 0.0.  The atoms and the
    closed-form tails beyond a whole-line measure's ends are arrays over
    the indices too.  A measure of atoms only has no cells: its quadrature
    piece is −∞.
    """

    def __init__(self, k: int, m: int, u: ConvexProfile, K: WeightedSet,
                 nu: RadialMeasure, singular: bool):
        breaks = _plan_breaks(u, K, nu)
        if breaks is None and not nu.atoms:
            raise InputError("measure carries neither cells nor atoms")
        self.k, self.m = k, m
        self.tail_shifts = _tail_shifts(k, u, singular)
        self.cells = self.body = self.edges = None
        if breaks is not None:
            self.cells = refine_breakpoints(breaks, k)
            ts, ws = gauss_cells(self.cells)
            self.log_ws = np.log(ws)
            self.body = _Exponent(ts, k, m, u, K, singular)
            self.log_dens = log_density(nu.density_fn, ts)
            # per cell: its first and last node, and the max of the index-free
            # part E_j − j·t + log ρ + log w over its nodes
            free = self.log_ws.copy()
            for x in self.body.terms:
                free -= x
            free += self.log_dens
            cells = (self.cells.size - 1, GL_NODES)
            self.cell_free = free.reshape(cells).max(axis=1)
            self.cell_t0, self.cell_t1 = ts.reshape(cells)[:, [0, -1]].T
            if _measure_is_whole_line(nu):
                self.edges = tuple(
                    (_Exponent(edge, k, m, u, K, singular),
                     float(np.log(nu.density_fn(edge))))
                    for edge in (breaks[0], breaks[-1])
                )
        self.atoms = tuple((_Exponent(np.asarray([t]), k, m, u, K, singular), np.log(w))
                           for t, w in nu.atoms)

    def _log_quadrature(self, jf: np.ndarray) -> np.ndarray:
        """The cells' piece of log N² for the float indices jf ≥ 0.

        Some node of a cell reaches j·t0 + free and none exceeds j·t1 + free;
        a block's cells whose bound lies more than −LOG_TINY below each row's
        best reach (less a unit margin for rounding) are left as 0.0.
        """
        n = self.body.t.size
        rows = max(1, KERNEL_BLOCK // n)
        block = np.empty((min(rows, jf.size), n))
        out = np.empty(jf.size)
        for lo in range(0, jf.size, rows):
            j = jf[lo:lo + rows, None]
            reach = np.max(j * self.cell_t0 + self.cell_free, axis=1)
            top = j * self.cell_t1 + self.cell_free
            live = np.flatnonzero(np.any(
                ~(top < reach[:, None] + (LOG_TINY - 1.0)), axis=0))
            span = slice(live[0] * GL_NODES, (live[-1] + 1) * GL_NODES)
            ex = block[:j.size]
            sub = self.body(j, out=ex[:, span], span=span)
            sub += self.log_dens[span]
            sub += self.log_ws[span]
            out[lo:lo + j.size] = logsumexp_rows(ex, span.start, span.stop)
        return out

    def tails(self, js: np.ndarray):
        """At each end of a whole-line measure's cells: E_j + log ρ there,
        and the rate at which it decays beyond, j + 1 − k·ν₀ at −∞ and
        m − j + 1 − k·ν_∞ at +∞ (ρ contributes e^{t} and e^{−t}); a rate
        ≤ 0 diverges."""
        s_lo, s_hi = self.tail_shifts
        rates = (_minus_fraction(js + 1, s_lo), _minus_fraction(self.m - js + 1, s_hi))
        bad = js[(rates[0] <= 0) | (rates[1] <= 0)]
        if bad.size:
            raise DivergentIntegralError(
                f"norm integral of index {bad[0]} diverges at k={self.k}")
        return [(E(js.astype(float)) + log_rho, rate)
                for (E, log_rho), rate in zip(self.edges, rates)]

    def log_norms2(self, js: np.ndarray) -> np.ndarray:
        """log N² of z^j for every j of the int64 array js."""
        tails = ([] if self.edges is None
                 else [lv - np.log(rate) for lv, rate in self.tails(js)])
        jf = js.astype(float)
        pieces = [np.full(js.size, -np.inf) if self.body is None
                  else self._log_quadrature(jf)]
        pieces.extend(E(jf) + log_w for E, log_w in self.atoms)
        return logsumexp_rows(np.column_stack(pieces + tails))


class _SupPlan:
    """log sup over K of E_j for every j, on one refined scan grid.

    Compact K: component grids refined against the weight scale.  Whole
    space: the padded grid reaches the asymptotic range, so once the
    exact tail slopes bound E_j the scan attains its sup.
    """

    def __init__(self, k: int, m: int, u: ConvexProfile, K: WeightedSet,
                 singular: bool):
        self.m, self.tail_shifts = m, _tail_shifts(k, u, singular)
        self.whole_space = K.whole_space
        ts, _ = K.sample_points()
        if K.whole_space:
            scan = refine_breakpoints(insert_interior(
                _pad_to_asymptotes(ts), np.concatenate([u.grid, ts])), k)
        else:
            scan = np.concatenate([
                np.asarray([a]) if a == b else refine_breakpoints(insert_interior(grid, u.grid), k)
                for a, b, grid, _ in K.components
            ])
        self.scan = _Exponent(scan, k, m, u, K, singular)
        self.buf = np.empty_like(scan)

    def log_sup2(self, j: int) -> float:
        if self.whole_space:
            s_lo, s_hi = self.tail_shifts
            if j < s_lo:
                raise DivergentIntegralError(f"sup of index {j} grows at t → -inf")
            if j - self.m + s_hi > 0:
                raise DivergentIntegralError(f"sup of index {j} grows at t → +inf")
        return float(np.max(self.scan(j, out=self.buf)))


# ---------------------------------------------------------------------------
# closed-form norms and β: v = 0, K = X, ν the Fubini–Study volume
# ---------------------------------------------------------------------------
#
# Under x = σ(t) the FS measure is dx, e^t = x/(1 − x) and e^{−f_FS} = 1 − x,
# so the integrand of z^j is x^j (1 − x)^{m−j}: N_j² = B(j+1, m−j+1).  Under
# the singular weight of a `WindowEnvelope(c, lo, hi)` profile the middle
# x ∈ [x₀, x₁] = [lo/c, hi/c] keeps that integrand, and each tangent-line
# tail is e^{k·g*}·x^A (1 − x)^{B−A} with A = j − k·lo (mirrored at x₁) and
# B = m − k·c.

# The tails' ₂F₁ series are summed to at most this many terms; a window end
# so near 0 or c that more are needed leaves the norms to the plan.
SERIES_MAX_TERMS = 256


def _log_positive(x: np.ndarray) -> np.ndarray:
    """log x, −∞ where x is 0."""
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0)


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


def _log_binomial_tails(n: int, x: Fraction, js: np.ndarray):
    """(log P(Bin(n, x) ≤ j), log P(Bin(n, x) > j)) for j in js ⊂ [0, n).

    Both tails are summed from their own end, so a small one keeps its
    relative accuracy.  P(Bin(n, x) > j) = I_x(j + 1, n − j).
    """
    if x == 0:
        return np.zeros(js.size), np.full(js.size, -np.inf)
    if x == 1:
        return np.full(js.size, -np.inf), np.zeros(js.size)
    xf = float(x)
    i = np.arange(n + 1)
    log_pmf = _log_binomials(n) + i * math.log(xf) + (n - i) * math.log1p(-xf)
    w = exp_normal(log_pmf - np.max(log_pmf))
    lower = np.cumsum(w)
    upper = np.cumsum(w[::-1])[::-1]
    log_total = math.log(lower[-1])
    return _log_positive(lower[js]) - log_total, _log_positive(upper[js + 1]) - log_total


def _log_middle(m: int, x0: Fraction, x1: Fraction, js: np.ndarray) -> np.ndarray:
    """log(I_{x₁} − I_{x₀}) of (j + 1, m − j + 1), on the side where both
    incomplete-Beta values (upper) or both complements (lower) are small."""
    if x0 == x1:
        return np.full(js.size, -np.inf)
    low0, up0 = _log_binomial_tails(m + 1, x0, js)
    low1, up1 = _log_binomial_tails(m + 1, x1, js)
    upper = up1 <= low0
    big = np.where(upper, up1, low0)
    small = np.where(upper, up0, low1)
    out = np.full(js.size, -np.inf)
    live = np.isfinite(big)
    out[live] = big[live] + _log1m_exp(small[live] - big[live])
    return out


def _log_tail(a1: np.ndarray, b2: float, x: float) -> np.ndarray | None:
    """log ∫₀^x s^{a1−1} (1 − s)^{b2−a1−1} ds for a1 > 0 and b2 > 0.

    Equals x^{a1}(1 − x)^{b2−a1}/a1 · ₂F₁(b2, 1; a1 + 1; x), whose series
    Σₙ (b2)ₙ/(a1 + 1)ₙ·xⁿ has positive terms.  The term count starts at
    log ε / log x and doubles until the bound t_{N+1}/(1 − q) on what the
    terms t_0..t_N leave out lies below 2⁻⁵³ of their sum; None once it
    would pass SERIES_MAX_TERMS.
    """
    log_x = math.log(x)
    n_terms = math.ceil(-60.0 * math.log(2.0) / log_x)
    while n_terms <= SERIES_MAX_TERMS:
        n = np.arange(n_terms + 1, dtype=float)[:, None]
        log_ratio = np.log((b2 + n) / (a1 + 1.0 + n)) + log_x
        log_terms = np.cumsum(log_ratio, axis=0)     # row i: log t_{i+1}
        total = 1.0 + np.sum(exp_normal(log_terms[:-1]), axis=0)   # t_0..t_N
        # the ratios t_{i+1}/t_i are monotone in i with limit x, so every
        # one past N is at most q = max(x, ratio_N)
        q = np.maximum(x, exp_normal(log_ratio[-1]))
        if np.all(q < 1.0):
            bound = log_terms[-1] - np.log1p(-q)
            if np.all(bound <= np.log(total) - 53.0 * math.log(2.0)):
                return (a1 * log_x + (b2 - a1) * math.log1p(-x) - np.log(a1)
                        + np.log(total))
        n_terms *= 2
    return None


def _is_fs_volume(K: WeightedSet, nu: RadialMeasure) -> bool:
    """Whether (K, ν) is v ≡ 0 on K = X against `fs_measure`'s law: the
    logistic density over the whole line, no atoms.  The closed forms of
    the norms and of β apply exactly there."""
    return (K.unweighted_whole_space and nu.density_fn is logistic_density
            and not nu.atoms and _measure_is_whole_line(nu))


def _closed_form_log_norms2(k: int, m: int, js: np.ndarray, u: ConvexProfile,
                            K: WeightedSet, nu: RadialMeasure,
                            singular: bool) -> np.ndarray | None:
    """log N_j² for j in js in closed form; None where none applies.

    It applies on the FS volume (`_is_fs_volume`): always under the
    smooth-metric convention, and under the singular weight when u is a
    `WindowEnvelope` profile and B + 2 = 2 + d − {k·c} > 0 (the tail series
    then has positive terms).  A boundary index raises
    DivergentIntegralError, as the plan does.
    """
    if not _is_fs_volume(K, nu):
        return None
    w = u.exact
    if singular and not (isinstance(w, WindowEnvelope)
                         and (w.c, w.lo, w.hi) == (u.class_mass, u.s_minus, u.s_plus)):
        return None
    log_beta = -math.log(m + 1) - _log_binomials(m)[js]
    if not singular or (w.lo == 0 and w.hi == w.c):
        return log_beta        # the singular weight is then exactly 1
    c, lo, hi = w.c, w.lo, w.hi
    # A + 1 = j + 1 − k·lo and m − j + 1 − k·ν_∞: integer part, then fraction
    kl, kr = k * lo, k * (c - hi)
    a_left = (js - math.floor(kl)) + float(1 - (kl - math.floor(kl)))
    a_right = (m - js - math.floor(kr)) + float(1 - (kr - math.floor(kr)))
    bad = js[(a_left <= 0) | (a_right <= 0)]
    if bad.size:
        raise DivergentIntegralError(
            f"norm integral of index {bad[0]} diverges at k={k}")
    b2 = Fraction(m + 2) - k * c
    if b2 <= 0:
        return None
    pieces = [log_beta + _log_middle(m, lo / c, hi / c, js)]
    for x, a1, s in ((lo / c, a_left, lo), ((c - hi) / c, a_right, hi)):
        if x > 0:
            tail = _log_tail(a1, float(b2), float(x))
            if tail is None:
                return None
            pieces.append(float(k) * fs_conjugate(s, c) + tail)
    return logsumexp_rows(np.column_stack(pieces))


def _fs_beta_cdfs(t: np.ndarray, m: int, j_min: int, n_J: int,
                  unit: float) -> np.ndarray:
    """Columns unit·G(x) and unit·(|J| − G(x)) at x = σ(t), where
    G(x) = Σ_J I_x(j+1, m−j+1) over J = [j_min, j_max], n_J = |J| > 0.

    Under x = σ(t), z^j's normalized FS density is Beta(j+1, m−j+1), whose
    CDF is I_x(j+1, m−j+1) = P(N > j) with N ~ Bin(m + 1, x).  Summed over
    J, G(x) = E[clip(N − j_min, 0, |J|)] and |J| − G(x) =
    E[clip(j_max + 1 − N, 0, |J|)]: one pmf row per point against a fixed
    clip vector, each side summed from its own nonnegative terms.

    A row's log pmf is taken relative to its mode i₀, as the cumulative
    sum of log P(i+1)/P(i) = log((m + 1 − i)/(i + 1)) + t outward from i₀,
    and the row is normalized by its own sum, so no term of the size of
    log C(m + 1, i) is rounded.  The rows are built in blocks of at most
    KERNEL_BLOCK entries, and a value that would not be a normal float is
    written as 0.0.
    """
    n = m + 1
    lower = np.clip(np.arange(n + 1) - j_min, 0, n_J)
    weights = np.stack([lower, n_J - lower], axis=1).astype(float)
    i = np.arange(n)
    log_ratio = np.log((n - i) / (i + 1.0))
    mode = np.clip(np.floor((n + 1) * sigmoid(t)), 0, n)
    out = np.empty((t.size, 2))
    rows = max(1, KERNEL_BLOCK // (n + 1))
    log_w = np.empty((min(rows, t.size), n + 1))
    for lo in range(0, t.size, rows):
        sl = slice(lo, lo + rows)
        steps = log_ratio + t[sl, None]
        above = i >= mode[sl, None]
        lw = log_w[:steps.shape[0]]
        lw[:, 0] = 0.0
        np.cumsum(np.where(above, steps, 0.0), axis=1, out=lw[:, 1:])
        lw[:, :-1] -= np.cumsum(np.where(above, 0.0, steps)[:, ::-1], axis=1)[:, ::-1]
        w = exp_normal(lw)
        num = w @ weights
        den = (np.sum(w, axis=1) / unit)[:, None]
        # 0.0 where num/den could leave the normal range; the bound is put on
        # num (≥ tiny where nonzero), so no subnormal is ever formed
        normal = num >= 2.0 * TINY * np.maximum(den, 1.0)
        out[sl] = np.divide(num, den, out=np.zeros_like(num), where=normal)
    return out


def _fs_beta_cell_masses(bp: np.ndarray, m: int, j_min: int, n_J: int,
                         unit: float) -> np.ndarray:
    """unit·Σ_J of each z^j's normalized FS mass on the cells of bp, with
    the two tails beyond bp's ends in its first and last cell.

    A cell's mass is the difference of G, or of |J| − G, on whichever side
    both terms are small (as in `_log_middle`), so a small mass keeps its
    relative accuracy.  G(0) = 0 and |J| − G(1) = 0 stand at the outer
    ends, so the first cell's mass is G at bp[1] and the last one's is
    |J| − G at bp[−2], each with its tail.
    """
    cdfs = _fs_beta_cdfs(bp[1:-1], m, j_min, n_J, unit)
    total = unit * n_J
    g = np.concatenate([[0.0], cdfs[:, 0], [total]])
    h = np.concatenate([[total], cdfs[:, 1], [0.0]])
    return np.where(g[1:] <= h[:-1], g[1:] - g[:-1], h[:-1] - h[1:])


def _log_norms2(k: int, m: int, J, u: ConvexProfile, K: WeightedSet,
                nu: RadialMeasure, singular: bool):
    """log N² of z^j for j in J: the closed form where one exists, else
    the quadrature plan."""
    js = np.asarray(J, dtype=np.int64)
    if js.size == 0:
        return np.empty(0)
    logs = _closed_form_log_norms2(k, m, js, u, K, nu, singular)
    if logs is not None:
        return logs
    return _NormPlan(k, m, u, K, nu, singular).log_norms2(js)


def _degree(k: int, u: ConvexProfile, tw: TwistData) -> int:
    return math.floor(k * u.class_mass) + tw.degree_shift


def _check_index(j: int, m: int) -> None:
    if not 0 <= j <= m:
        raise InputError(f"index {j} outside [0, {m}]")


def log_norm2(j: int, k: int, u: ConvexProfile, K: WeightedSet,
              nu: RadialMeasure, tw: TwistData = TwistData(),
              singular_weight: bool = False) -> float:
    """log N² of z^j in the weighted L² norm against ν (closed-form where
    one exists, see `_log_norms2`)."""
    m = _degree(k, u, tw)
    _check_index(j, m)
    return float(_log_norms2(k, m, [j], u, K, nu, singular_weight)[0])


def l2_norm(j: int, k: int, u: ConvexProfile, K: WeightedSet,
            nu: RadialMeasure, tw: TwistData = TwistData(),
            singular_weight: bool = False) -> float:
    return float(np.exp(0.5 * log_norm2(j, k, u, K, nu, tw, singular_weight)))


def log_sup2(j: int, k: int, u: ConvexProfile, K: WeightedSet,
             tw: TwistData = TwistData(), singular_weight: bool = False) -> float:
    """log sup over K of the squared pointwise weight of z^j."""
    m = _degree(k, u, tw)
    _check_index(j, m)
    return _SupPlan(k, m, u, K, singular_weight).log_sup2(j)


def sup_norm(j: int, k: int, u: ConvexProfile, K: WeightedSet,
             tw: TwistData = TwistData(), singular_weight: bool = False) -> float:
    return float(np.exp(0.5 * log_sup2(j, k, u, K, tw, singular_weight)))


def section_basis(k: int, u: ConvexProfile, K: WeightedSet, nu: RadialMeasure,
                  tw: TwistData = TwistData(),
                  singular_weight: bool = False) -> SectionBasisData:
    """Diagonal L² norm data over the admissible set (sup norms: `log_sup2`).

    The norms are closed-form where `_log_norms2` finds one, else from one
    quadrature plan shared by every index.
    """
    basis = admissible_set(k, u, tw)
    logs = []
    if basis.J:
        logs = _log_norms2(k, basis.m, basis.J, u, K, nu, singular_weight)
    return SectionBasisData(k, basis.m, basis.J, np.asarray(logs))


def reference_basis(k: int, u: ConvexProfile, tw: TwistData = TwistData()) -> SectionBasisData:
    """The v = 0 Fubini–Study norms on the same filtered space.

    In closed form: log N_j² = log B(j+1, m−j+1) = −log(m+1) − log C(m, j),
    from the exact binomial integer.
    """
    return section_basis(k, u, WeightedSet.whole(), fs_measure(), tw)


# ---------------------------------------------------------------------------
# partial Bergman kernels and measures
# ---------------------------------------------------------------------------

def _kernel(t, k: int, m: int, js: np.ndarray, logs: np.ndarray,
            K: WeightedSet, rank: int) -> np.ndarray:
    """B(t) = rank·Σ_J e^{E_j(t)}/N_j² at the points t, log N_j² = logs.

    (t × J) exponents in blocks of about KERNEL_BLOCK entries, through
    `exp_normal`: a term with exponent at or below LOG_TINY is 0.0, so
    each value is 0.0 or at least TINY.  In a block, an index whose bound
    j·max t + max base − log N_j² lies below LOG_TINY (less a unit margin
    for rounding) is 0.0 on every row, and is written as such; each row
    still sums all |J| entries.
    """
    t = np.asarray(t, dtype=float)
    base = -float(m) * softplus(t) - float(k) * K.weight_at(t)
    rows = max(1, KERNEL_BLOCK // js.size)
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
    return float(rank) * out


def bergman(k: int, u: ConvexProfile, K: WeightedSet, nu: RadialMeasure,
            tw: TwistData = TwistData()) -> BergmanResult:
    """The partial Bergman measure β = B·ν/k over (K, v, ν), with its mass.

    β's cells are ν's breakpoints (with u's and K's kinks) refined at 4k.
    On the FS volume (v ≡ 0 on K = X, `_is_fs_volume`) its cell masses are
    closed-form differences of binomial expectations
    (`_fs_beta_cell_masses`): no norm, plan or kernel is computed, and the
    mass identity ∫β = h0/k checks their exact telescoping.  Elsewhere the
    kernel, from the norms' quadrature plan, is integrated on the 32-node
    Gauss rule over each cell, with the norms' closed-form tails beyond a
    whole-line measure's ends and its value at each atom, and the mass
    identity is a genuine quadrature check.  With no admissible index β is
    0 and nothing is built.
    """
    if not abs(nu.total_mass() - 1.0) <= 1e-9:
        raise InputError("reference measure must be a probability measure")
    basis = admissible_set(k, u, tw)
    if not basis.J:
        zero = RadialMeasure(np.empty(0), np.empty(0), ())
        return BergmanResult(k, zero, 0.0, 0)
    m = basis.m
    n_sections = tw.rank * len(basis.J)
    breaks = _norm_breaks(u, K, nu)
    if _is_fs_volume(K, nu):
        fine = refine_breakpoints(breaks, 4 * k)
        masses = _fs_beta_cell_masses(fine, m, basis.J[0], len(basis.J),
                                      tw.rank / k)
        beta = RadialMeasure(fine, masses, ())
        return BergmanResult(k, beta, beta.total_mass(), n_sections)

    # off the FS volume no closed form applies: the norms are the plan's
    plan = _NormPlan(k, m, u, K, nu, False)
    J = np.asarray(basis.J)
    logs = plan.log_norms2(J)
    js = J.astype(float)
    atoms = [(t, float(_kernel([t], k, m, js, logs, K, tw.rank)[0]) * w / k)
             for t, w in nu.atoms]
    fine = np.empty(0)
    per_cell = np.empty(0)
    if breaks is not None:
        fine = refine_breakpoints(breaks, 4 * k)
        ts, ws = gauss_cells(fine)
        kernel = _kernel(ts, k, m, js, logs, K, tw.rank)
        # far out at large k a kernel value times ρ·w/k, or a tail term over
        # its rate, may be a subnormal: the correctly rounded value, so its
        # underflow flag is not an error
        with np.errstate(under="ignore"):
            vals = kernel * np.asarray(nu.density_fn(ts)) * ws / k
            per_cell = vals.reshape(fine.size - 1, -1).sum(axis=1)
            if plan.edges is not None:
                # closed-form tails beyond the cells' ends, the norms' own
                for i, (lv, rate) in zip((0, -1), plan.tails(J)):
                    per_cell[i] += tw.rank * np.sum(exp_normal(lv - logs) / rate) / k
    beta = RadialMeasure(fine, per_cell, tuple(atoms))
    return BergmanResult(k, beta, beta.total_mass(), n_sections)


# ---------------------------------------------------------------------------
# Gram matrices for angle-dependent weights
# ---------------------------------------------------------------------------

def gram(k: int, u: ConvexProfile, K: WeightedSet, v2d, nu: RadialMeasure,
         tw: TwistData = TwistData()) -> SectionBasisData:
    """Hermitian Gram matrix ⟨z^i, z^j⟩ for a weight v(t, angle).

    Tensor-product quadrature: the norm plan's cells in t (the kinks of
    `_plan_breaks` refined at k) times a uniform angular grid of
    max(64, 2m + 2) points (reduced through the FFT of e^{-k·v(t,·)}).
    Meant for moderate degrees; raises on a condition number above 1e12.
    """
    basis = admissible_set(k, u, tw)
    if not basis.J:
        raise NoSectionsError("no admissible indices")
    m = basis.m
    breaks = _plan_breaks(u, K, nu)
    if breaks is None:
        raise InputError("gram needs a reference measure with a density")
    M = max(64, 2 * m + 2)
    ts, ws = gauss_cells(refine_breakpoints(breaks, k))
    dens = np.asarray(nu.density_fn(ts))
    phis = 2.0 * np.pi * np.arange(M) / M
    W = np.exp(-float(k) * np.asarray(v2d(ts[:, None], phis[None, :])))
    fourier = np.fft.ifft(W, axis=1)  # fourier[:, Δ] = mean_φ W·e^{iΔφ}
    js = basis.J
    n = len(js)
    log_rad = -float(m) * softplus(ts)
    G = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(a, n):
            delta = js[a] - js[b]
            rad = np.exp(0.5 * (js[a] + js[b]) * ts + log_rad)
            val = np.sum(rad * fourier[:, delta % M] * dens * ws)
            G[a, b] = val
            G[b, a] = np.conj(val)
    G = 0.5 * (G + G.conj().T)
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(f"Gram condition number {cond:.3e} exceeds 1e12")
    return SectionBasisData(k, m, js, gram_matrix=G)


# ---------------------------------------------------------------------------
# Donaldson functional and Bernstein–Markov diagnostics
# ---------------------------------------------------------------------------

def donaldson(k: int, u: ConvexProfile, A: SectionBasisData,
              B: SectionBasisData) -> float:
    """ℒ(A) − ℒ(B) = (log det G_B − log det G_A)/k² at n = 1.

    Diagonal bases contribute Σ log N² directly: the factor 2 between
    log N and log N² is absorbed here exactly once.
    """
    if A.J != B.J:
        raise InputError("bases live on different index sets")
    return (B.log_det_gram - A.log_det_gram) / float(k) ** 2


def donaldson_functional(k: int, u: ConvexProfile, A: SectionBasisData,
                         tw: TwistData = TwistData()) -> float:
    """ℒ_{k,u}(A) against the v = 0 Fubini–Study reference norms."""
    return donaldson(k, u, A, reference_basis(k, u, tw))


def bm_rate(k: int, K: WeightedSet, nu: RadialMeasure, c=Fraction(1),
            tw: TwistData = TwistData()) -> float:
    """(2/k)·log max_j (sup norm / L² norm) over the full degree range.

    Decays to 0 along k exactly when ν satisfies the Bernstein–Markov
    comparison on (K, v).
    """
    u = base_profile(as_fraction(c))
    m = _degree(k, u, tw)
    sup = _SupPlan(k, m, u, K, False)
    l2 = _log_norms2(k, m, range(m + 1), u, K, nu, False)
    worst = -np.inf
    for j in range(m + 1):
        worst = max(worst, sup.log_sup2(j) - l2[j])
    return worst / float(k)


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
    if not basis.J:
        raise NoSectionsError(f"no admissible sections at k={k}")
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
    """Smallest C with F̃ + C·log(k)/k ≥ F_u over the line."""
    gap = sup_difference(u, approx)
    return max(0.0, float(gap) * k / np.log(max(2, k)))
