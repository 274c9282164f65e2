"""Torus-invariant piecewise-linear potentials on the projective plane.

A potential is a finite max of affine pieces with rational gradients in
the dilated simplex Δ_c; its singularity body is the convex hull of the
gradients, the non-pluripolar mass is twice the body's area, and section
counts reduce to exact lattice-point counting inside the body's interior.

Geometry is rational.  Counting is integer: each profile builds its body
once, and each body its edge table once, one integer inequality
P·α₁ + Q·α₂ > k·A − B per edge.  The rows (k, α₁) of a whole ascending
k-sequence are then reduced together in blocked int64 numpy passes,
O(edges·Σₖ m_k) work in C, after checking against integer bounds at the
largest k that no intermediate leaves the int64 range; `h0_toric` is the
one-k case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .basefun import as_fraction
from .errors import InputError

__all__ = [
    "TorusProfile2",
    "RationalPolygon",
    "singularity_body",
    "h0_toric",
]

Vec = tuple[Fraction, Fraction]

# Rows (k, α₁) are counted in blocks of this many, so each int64
# temporary is 64 KiB at any k and over any k-sequence.  Larger blocks
# run no faster and raise a sweep's peak RSS (by 5 MiB at 2¹⁶ rows).
ROW_BLOCK = 2 ** 13


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
    """max of affine pieces ⟨g, t⟩ + a with rational gradients in Δ_c."""

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
        self._probe_bound()

    def _probe_bound(self):
        # F ≤ c·log(1 + e^{t1} + e^{t2}) + max(intercepts, 0): automatic for
        # intercepts ≤ 0; the probe documents the bound in general
        cap = float(max(max(a for _, a in self.pieces), 0))
        cf = float(self.class_mass)
        probe = np.linspace(-30.0, 30.0, 13)
        t1, t2 = np.meshgrid(probe, probe)
        base = cf * np.log1p(np.exp(np.minimum(t1, 700)) + np.exp(np.minimum(t2, 700)))
        vals = self.evaluate(t1, t2)
        if np.any(vals > base + cap + 1e-6):
            raise InputError("profile escapes the class bound on the probe grid")

    @cached_property
    def body(self) -> RationalPolygon:
        """Singularity body: convex hull of the piece gradients, exact."""
        return RationalPolygon(tuple(g for g, _ in self.pieces))

    def evaluate(self, t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        out = np.full(np.broadcast(t1, t2).shape, -np.inf)
        for (gx, gy), a in self.pieces:
            out = np.maximum(out, float(gx) * t1 + float(gy) * t2 + float(a))
        return out


def singularity_body(f: TorusProfile2) -> RationalPolygon:
    """Convex hull of the piece gradients, exact; built once per profile."""
    return f.body


def _h0_toric_counts(ks, f: TorusProfile2, tw=None) -> np.ndarray:
    """`h0_toric` at every k of a strictly ascending sequence, as one int64
    array.

    The rows (k, α₁), α₁ = 0..m_k, of all k are laid end to end and
    reduced in blocks of at most ROW_BLOCK rows, each row by the edge
    table at its own k.  A k's count is the difference of the block's
    cumulative row lengths at the ends of its rows, summed over the
    blocks they touch.  Integer bounds at the largest k check, before the
    k array is formed, that no operand, row end, block sum, row index or
    count leaves int64; past it the call raises InputError.
    """
    from .sections import _INT64_MAX, TwistData

    tw = tw or TwistData()
    k_lo, k_hi = ks[0], ks[-1]
    if k_lo < 1:
        raise InputError("k must be a positive integer")
    c, d = f.class_mass, tw.degree_shift
    m_hi = k_hi * c.numerator // c.denominator + d
    table = singularity_body(f).edge_table
    if m_hi < 0 or not table:
        return np.zeros(len(ks), dtype=np.int64)
    # |rhs| and |Q| are at most span on every row, so each operand, row
    # end and row length stays within ±(2·span + 2)
    span = max(max(k_hi * abs(A), abs(k_lo * A - B), abs(k_hi * A - B))
               + abs(P) * (m_hi + 1) + abs(Q) for P, Q, A, B in table)
    rows_hi = m_hi + 1
    if max(2 * span + 2, k_hi * c.numerator, (k_hi - k_lo + 1) * rows_hi,
           ROW_BLOCK * rows_hi, tw.rank * rows_hi * (m_hi + 2) // 2) > _INT64_MAX:
        raise InputError(f"k = {k_hi} takes the toric row count past int64")
    k_all = np.asarray(ks, dtype=np.int64)
    m_all = k_all * c.numerator // c.denominator + d
    ends = np.cumsum(np.maximum(m_all + 1, 0))
    starts = np.concatenate(([0], ends[:-1]))
    counts = np.zeros(k_all.size, dtype=np.int64)
    total = int(ends[-1])
    for b0 in range(0, total, ROW_BLOCK):
        b1 = min(b0 + ROW_BLOCK, total)
        row = np.arange(b0, b1, dtype=np.int64)
        owner = np.searchsorted(ends, row, side="right")
        a1 = row - starts[owner]
        k = k_all[owner]
        lo = np.zeros_like(a1)
        hi = m_all[owner] - a1
        for P, Q, A, B in table:
            rhs = (k * A - B) - P * a1
            if Q > 0:
                np.maximum(lo, rhs // Q + 1, out=lo)
            elif Q < 0:
                np.minimum(hi, -(-rhs // Q) - 1, out=hi)
            else:
                hi[rhs >= 0] = -1
        cum = np.concatenate(([0], np.cumsum(np.maximum(hi - lo + 1, 0))))
        i0, i1 = owner[0], owner[-1] + 1
        counts[i0:i1] += (cum[np.minimum(ends[i0:i1], b1) - b0]
                          - cum[np.maximum(starts[i0:i1], b0) - b0])
    return tw.rank * counts


def h0_toric(k: int, f: TorusProfile2, tw=None) -> int:
    """r·#{α ≥ 0 : α₁+α₂ ≤ m, (α+(1,1))/k ∈ int body}, exact integers.

    Row reduction on the body's integer edge table: on row α₁ each edge
    with Q > 0 raises the lower end of the α₂ range to ⌊rhs/Q⌋ + 1, each
    edge with Q < 0 lowers the upper end to ⌈rhs/Q⌉ − 1, and an edge with
    Q = 0 empties the row when rhs = k·A − B − P·α₁ ≥ 0.  The rows are
    reduced in int64 numpy, whose `//` floors as Python's does; this is
    the one-k case of `_h0_toric_counts`, which reduces the rows of a
    whole k-sequence in one blocked pass.  The int64 range is checked
    against integer bounds before any array is allocated; past it the
    call raises InputError.
    """
    return int(_h0_toric_counts((k,), f, tw)[0])


def h0_toric_bruteforce(k: int, f: TorusProfile2, tw=None) -> int:
    """Independent oracle: direct strict point-in-polygon over all α."""
    from .sections import TwistData

    tw = tw or TwistData()
    m = math.floor(k * f.class_mass) + tw.degree_shift
    if m < 0:
        return 0
    body = singularity_body(f)
    count = 0
    for a1 in range(0, m + 1):
        for a2 in range(0, m - a1 + 1):
            p = (Fraction(a1 + 1, k), Fraction(a2 + 1, k))
            if body.contains(p, strict=True):
                count += 1
    return tw.rank * count
