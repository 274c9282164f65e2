"""Torus-invariant piecewise-linear potentials on the projective plane.

A potential is a finite max of affine pieces with rational gradients in
the dilated simplex Δ_c; its singularity body is the convex hull of the
gradients, the non-pluripolar mass is twice the body's area, and section
counts reduce to exact lattice-point counting inside the body's interior.

Geometry is rational.  Counting is integer: each profile builds its body
once, and each body its edge table once, one integer inequality
P·α₁ + Q·α₂ > k·A − B per edge.  With the simplex α ≥ 0, α₁ + α₂ ≤ m,
where m = ⌊k·c⌋ + d for the twist d, a plain int as in `sections`, these
are lines bounding α₂ over α₁, and a count is a few Euclidean floor
sums per line (`floor_sum`): O(edges²) int64 operations per k, whatever
its size, done for every k of an ascending sequence at once after
checking against integer bounds at the largest k that no intermediate
leaves the int64 range; `h0_toric` is the one-k case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .basefun import as_fraction
from .errors import InputError
from .sections import _INT64_MAX

__all__ = [
    "TorusProfile2",
    "RationalPolygon",
    "h0_toric",
]

Vec = tuple[Fraction, Fraction]

# A k-sequence is counted in blocks of this many k, so each int64
# temporary is 64 KiB however long the sequence is.
K_BLOCK = 2 ** 13


def _cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: list[Vec]) -> list[Vec]:
    """Convex hull, CCW, collinear points dropped; handles 0/1/2-d hulls."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # all points collinear
        return [pts[0], pts[-1]]
    return hull


@dataclass(frozen=True)
class RationalPolygon:
    """Convex polygon with rational vertices, counterclockwise."""

    vertices: tuple

    def __post_init__(self):
        verts = [(as_fraction(x), as_fraction(y)) for x, y in self.vertices]
        if not verts:
            raise InputError("polygon needs at least one vertex")
        object.__setattr__(self, "vertices", tuple(_hull(verts)))

    @property
    def area(self) -> Fraction:
        v = self.vertices
        if len(v) < 3:
            return Fraction(0)
        s = Fraction(0)
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            s += x0 * y1 - x1 * y0
        return s / 2

    @property
    def perimeter_lower(self) -> Fraction:
        """Σ max(|dx|, |dy|) over edges: a rational lower bound on the
        Euclidean perimeter (degenerate polygons included)."""
        v = self.vertices
        if len(v) < 2:
            return Fraction(0)
        total = Fraction(0)
        rng = range(len(v)) if len(v) >= 3 else range(len(v) - 1)
        for i in rng:
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            total += max(abs(x1 - x0), abs(y1 - y0))
        return total

    def contains(self, pt: Vec, strict: bool = False) -> bool:
        v = self.vertices
        p = (as_fraction(pt[0]), as_fraction(pt[1]))
        if len(v) == 1:
            return (not strict) and p == v[0]
        if len(v) == 2:
            if strict:
                return False
            return (
                _cross(v[0], v[1], p) == 0
                and min(v[0][0], v[1][0]) <= p[0] <= max(v[0][0], v[1][0])
                and min(v[0][1], v[1][1]) <= p[1] <= max(v[0][1], v[1][1])
            )
        for i in range(len(v)):
            c = _cross(v[i], v[(i + 1) % len(v)], p)
            if strict and c <= 0:
                return False
            if not strict and c < 0:
                return False
        return True

    @cached_property
    def edge_table(self) -> tuple[tuple[int, int, int, int], ...]:
        """(P, Q, A, B) per CCW edge, in integers: at level k the lattice
        point α lies strictly inside the edge's half-plane, scaled by k,
        iff P·α₁ + Q·α₂ > k·A − B.

        For the edge v → w with e = w − v, cross(e, (α + 1)/k − v) > 0 reads
        −e_y·α₁ + e_x·α₂ > k·(e_x·v_y − e_y·v_x) − (e_x − e_y); one positive
        common denominator per edge makes the four coefficients integers.
        """
        v = self.vertices
        if len(v) < 3:
            return ()
        table = []
        for i in range(len(v)):
            vx, vy = v[i]
            wx, wy = v[(i + 1) % len(v)]
            ex, ey = wx - vx, wy - vy
            coeffs = (-ey, ex, ex * vy - ey * vx, ex - ey)
            den = math.lcm(*(x.denominator for x in coeffs))
            table.append(tuple(int(x * den) for x in coeffs))
        return tuple(table)


@dataclass(frozen=True)
class TorusProfile2:
    """max of affine pieces ⟨g, t⟩ + a with rational gradients in Δ_c, so
    ⟨g, t⟩ + a ≤ c·max(0, t₁, t₂) + cap ≤ c·log(1 + e^{t₁} + e^{t₂}) + cap
    with cap = max(0, every intercept a)."""

    class_mass: Fraction
    pieces: tuple

    def __post_init__(self):
        c = as_fraction(self.class_mass)
        object.__setattr__(self, "class_mass", c)
        if c <= 0:
            raise InputError("class mass must be positive")
        norm = []
        for (gx, gy), a in self.pieces:
            gx, gy, a = as_fraction(gx), as_fraction(gy), as_fraction(a)
            if gx < 0 or gy < 0 or gx + gy > c:
                raise InputError(
                    f"gradient ({gx}, {gy}) escapes the moment simplex of mass {c}"
                )
            norm.append(((gx, gy), a))
        if not norm:
            raise InputError("profile needs at least one affine piece")
        object.__setattr__(self, "pieces", tuple(norm))

    @cached_property
    def body(self) -> RationalPolygon:
        """Singularity body: convex hull of the piece gradients, exact."""
        return RationalPolygon(tuple(g for g, _ in self.pieces))


def floor_sum(n, m: int, a: int, b) -> np.ndarray:
    """Σ_{i=0}^{n−1} ⌊(a·i + b)/m⌋ at each entry of int64 arrays n ≥ 0 and b,
    for integers m > 0 and a of either sign.

    Euclid's reduction (ACL's floor_sum): a and b are split as q·m + r
    with 0 ≤ r < m, and what is left, Σ ⌊(a·i + b)/m⌋ with 0 ≤ a, b < m,
    counts the lattice points under a line, which read with the axes
    swapped is the sum (⌊y/m⌋, a, m, y mod m) with y = a·n + b.  The pair
    (a, m) steps as in Euclid's algorithm whatever n and b are, so every
    entry takes the same steps, and an entry whose n reaches 0 adds 0.
    """
    n = np.asarray(n, dtype=np.int64)
    qa, a = divmod(a, m)
    qb, b = np.divmod(np.asarray(b, dtype=np.int64), m)
    total = n * (n - 1) // 2 * qa + n * qb
    while a:
        n, b = np.divmod(a * n + b, m)
        m, a = a, m
        qa, a = divmod(a, m)
        qb, b = np.divmod(b, m)
        total += n * (n - 1) // 2 * qa + n * qb
    return total


def _cut(lo, hi, D: int, E) -> None:
    """Intersect [lo, hi] with {α₁ ∈ ℤ : D·α₁ > E}, in place; an empty
    D = 0 cut sets hi to −1, below every lo ≥ 0."""
    if D > 0:
        np.maximum(lo, E // D + 1, out=lo)
    elif D < 0:
        np.minimum(hi, -(E // -D) - 1, out=hi)
    else:
        np.putmask(hi, E >= 0, -1)


def _floor_max_sum(lines, lo, hi):
    """Σ_{α₁=lo}^{hi} ⌊max_l (C_l − P_l·α₁)/Q_l⌋ over lines (P, Q > 0, C).

    Each line takes the α₁ where it is the first maximizer, an integer
    interval cut out by one inequality per other line, and sums its own
    floors there in one `floor_sum`.
    """
    total = np.zeros_like(lo)
    for j, (P, Q, C) in enumerate(lines):
        s, e = lo.copy(), hi.copy()
        for i, (P2, Q2, C2) in enumerate(lines):
            if i != j:
                # line j above line i, strictly for i < j: (C − Pα₁)/Q vs
                # (C2 − P2α₁)/Q2 times Q·Q2 > 0
                _cut(s, e, Q * P2 - Q2 * P, Q * C2 - Q2 * C - (i > j))
        np.minimum(s, hi + 1, out=s)  # an empty piece keeps C − P·s in range
        total += floor_sum(np.maximum(e - s + 1, 0), Q, -P, C - P * s)
    return total


def _lattice_counts(k, m, table):
    """#{α ∈ ℤ² : α ≥ 0, α₁ + α₂ ≤ m, P·α₁ + Q·α₂ > k·A − B per edge}
    at each entry of the int64 arrays k and m.

    Every constraint is a half-plane P·α₁ + Q·α₂ > C.  A line with Q > 0
    bounds α₂ below by L = (C − P·α₁)/Q, one with Q < 0 bounds it above
    by U, and one with Q = 0 bounds α₁.  α₁ runs over the integers where
    L < U for every lower and upper pair, and there the column holds
    ⌈min U⌉ − ⌊max L⌋ − 1 points; with ⌈U⌉ = −⌊(C − P·α₁)/|Q|⌋ both
    families sum floors of a maximum.
    """
    lines = [(P, Q, k * A - B) for P, Q, A, B in table]
    lines += [(0, 1, np.full_like(k, -1)), (-1, -1, -m - 1)]  # α₂ ≥ 0, α₁ + α₂ ≤ m
    lower = [(P, Q, C) for P, Q, C in lines if Q > 0]
    upper = [(P, -Q, C) for P, Q, C in lines if Q < 0]
    # α₁ ≥ 0, and α₁ ≤ m + 1 from the last two lines
    lo, hi = np.zeros_like(k), m + 1
    for P, Q, C in lines:
        if Q == 0:
            _cut(lo, hi, P, C)
    for P, Q, C in lower:
        for P2, Q2, C2 in upper:
            # L < U: (C − Pα₁)/Q + (C2 − P2α₁)/Q2 < 0, times Q·Q2 > 0
            _cut(lo, hi, Q2 * P + Q * P2, Q2 * C + Q * C2)
    empty = hi < lo
    np.putmask(lo, empty, 0)
    np.putmask(hi, empty, -1)
    return -_floor_max_sum(upper, lo, hi) - _floor_max_sum(lower, lo, hi) - (hi - lo + 1)


def _h0_toric_counts(ks, f: TorusProfile2, d: int = 0) -> np.ndarray:
    """`h0_toric` at every k of a strictly ascending sequence, as one int64
    array.

    Each k's count is exact integer arithmetic on the edge table and the
    ambient simplex: O(edges²) int64 operations per k, independent of k's
    size, done for blocks of K_BLOCK k at once (`_lattice_counts`).
    Integer bounds at the largest k check, before any array is formed,
    that no line value, cut, floor sum or count leaves int64; past it the
    call raises InputError.
    """
    # Python ints: numpy ints would wrap in the bounds below
    k_lo, k_hi = int(ks[0]), int(ks[-1])
    if k_lo < 1:
        raise InputError("k must be a positive integer")
    c = f.class_mass
    m_hi = k_hi * c.numerator // c.denominator + d
    table = f.body.edge_table
    if m_hi < 0 or not table:
        return np.zeros(len(ks), dtype=np.int64)
    # α₁ and each floor sum's n lie in [0, n_hi), where |C − P·α₁| ≤ g_hi;
    # the terms and totals of the floor sums then stay within
    # n_hi·(2·g_hi + n_hi), and the cuts and Euclid's a·n + b within
    # 2·q_hi·(g_hi + n_hi)
    n_hi = m_hi + 3
    c_hi = max([m_hi + abs(d) + 1] + [k_hi * abs(A) + abs(B) for _, _, A, B in table])
    p_hi = max([1] + [abs(P) for P, _, _, _ in table])
    q_hi = max([1] + [abs(Q) for _, Q, _, _ in table])
    g_hi = c_hi + p_hi * n_hi
    if max(k_hi * c.numerator, n_hi * (2 * g_hi + n_hi),
           2 * q_hi * (g_hi + n_hi)) > _INT64_MAX:
        raise InputError(f"k = {k_hi} takes the toric lattice count past int64")
    counts = np.empty(len(ks), dtype=np.int64)
    for b0 in range(0, len(ks), K_BLOCK):
        k = np.asarray(ks[b0:b0 + K_BLOCK], dtype=np.int64)
        counts[b0:b0 + k.size] = _lattice_counts(
            k, k * c.numerator // c.denominator + d, table)
    return counts


def h0_toric(k: int, f: TorusProfile2, d: int = 0) -> int:
    """#{α ≥ 0 : α₁+α₂ ≤ m, (α+(1,1))/k ∈ int body}, exact integers.

    The one-k case of `_h0_toric_counts`: the body's integer edge table
    and the simplex α ≥ 0, α₁ + α₂ ≤ m give lower and upper lines for α₂
    over α₁, and the count sums ⌈min U⌉ − ⌊max L⌋ − 1 over α₁ with one
    Euclidean floor sum per line, in O(edges²) operations whatever k is.
    The int64 range is checked against integer bounds before any array
    is allocated; past it the call raises InputError.  One-k API for
    tests and the tracer; no runner calls it.
    """
    return int(_h0_toric_counts((k,), f, d)[0])


def h0_toric_bruteforce(k: int, f: TorusProfile2, d: int = 0) -> int:
    """Independent oracle: direct strict point-in-polygon over all α."""
    m = math.floor(k * f.class_mass) + d
    if m < 0:
        return 0
    body = f.body
    count = 0
    for a1 in range(0, m + 1):
        for a2 in range(0, m - a1 + 1):
            p = (Fraction(a1 + 1, k), Fraction(a2 + 1, k))
            if body.contains(p, strict=True):
                count += 1
    return count
