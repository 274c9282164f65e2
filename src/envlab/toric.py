"""Torus-invariant piecewise-linear potentials on the projective plane.

A potential is a finite max of affine pieces with rational gradients in
the dilated simplex Δ_c; its singularity body is the convex hull of the
gradients, the non-pluripolar mass is twice the body's area, and section
counts reduce to exact lattice-point counting inside the body's interior.

Geometry is rational.  Counting is integer: each profile builds its body
once, and each body its edge table once, one integer inequality
P·α₁ + Q·α₂ > k·A − B per edge.  `h0_toric` then evaluates all rows α₁
at once in int64 numpy, O(edges·m) in C per k, after checking against
integer bounds that no intermediate leaves the int64 range.
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

# Rows α₁ are counted in blocks of this many, so the working set stays
# bounded at large k.
ROW_BLOCK = 2 ** 16

_INT64_MAX = int(np.iinfo(np.int64).max)


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


def h0_toric(k: int, f: TorusProfile2, tw=None) -> int:
    """r·#{α ≥ 0 : α₁+α₂ ≤ m, (α+(1,1))/k ∈ int body}, exact integers.

    Row reduction on the body's integer edge table: on row α₁ each edge
    with Q > 0 raises the lower end of the α₂ range to ⌊rhs/Q⌋ + 1, each
    edge with Q < 0 lowers the upper end to ⌈rhs/Q⌉ − 1, and an edge with
    Q = 0 empties the row when rhs = k·A − B − P·α₁ ≥ 0.  All rows are
    evaluated at once in int64 numpy, whose `//` floors as Python's does,
    so the count costs O(edges·m) in C per k.  The int64 range is checked
    against integer bounds before any array is allocated; past it the call
    raises InputError.
    """
    from .sections import TwistData

    tw = tw or TwistData()
    if k < 1:
        raise InputError("k must be a positive integer")
    m = math.floor(k * f.class_mass) + tw.degree_shift
    if m < 0:
        return 0
    table = singularity_body(f).edge_table
    if not table:
        return 0
    # |rhs| and |Q| are at most span on every row, so each operand, row
    # end, row length and block sum of lengths stays within these bounds
    span = max(abs(k * A - B) + abs(P) * m + abs(Q) for P, Q, A, B in table)
    if 2 * span + 2 > _INT64_MAX or ROW_BLOCK * (m + 1) > _INT64_MAX:
        raise InputError(f"k = {k} takes the toric row count past int64")
    count = 0
    for start in range(0, m + 1, ROW_BLOCK):
        a1 = np.arange(start, min(start + ROW_BLOCK, m + 1), dtype=np.int64)
        lo = np.zeros_like(a1)
        hi = m - a1
        for P, Q, A, B in table:
            rhs = (k * A - B) - P * a1
            if Q > 0:
                np.maximum(lo, rhs // Q + 1, out=lo)
            elif Q < 0:
                np.minimum(hi, -(-rhs // Q) - 1, out=hi)
            else:
                hi[rhs >= 0] = -1
        count += int(np.maximum(hi - lo + 1, 0).sum())
    return tw.rank * count


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
