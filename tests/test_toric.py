import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import toric
from envlab.errors import InputError
from envlab.experiments import ExperimentConfig, run_volume, toric_fixture
from envlab.toric import (
    TorusProfile2,
    _h0_toric_counts,
    floor_sum,
    h0_toric,
    h0_toric_bruteforce,
)


def loop_h0_toric(k, f, d=0):
    """Reference: Fraction edge inequalities per k, one Python loop per row."""
    m = math.floor(k * f.class_mass) + d
    verts = f.body.vertices
    if m < 0 or len(verts) < 3:
        return 0
    ineqs = []
    for i in range(len(verts)):
        vx, vy = verts[i]
        wx, wy = verts[(i + 1) % len(verts)]
        ex, ey = wx - vx, wy - vy
        R = ex * (k * vy - 1) - ey * (k * vx - 1)
        den = math.lcm(ey.denominator, ex.denominator, R.denominator)
        ineqs.append((int(-ey * den), int(ex * den), int(R * den)))
    count = 0
    for a1 in range(m + 1):
        lo, hi = 0, m - a1
        feasible = True
        for P, Q, R in ineqs:
            rhs = R - P * a1
            if Q > 0:
                lo = max(lo, rhs // Q + 1)
            elif Q < 0:
                hi = min(hi, -(-rhs // Q) - 1)
            elif rhs >= 0:
                feasible = False
                break
        if feasible and hi >= lo:
            count += hi - lo + 1
    return count


FIXTURES = ("simplex", "half-square", "point")

# gradients (a/q, b/q) in the unit simplex Δ₁ with q ≤ 6
gradient = st.integers(1, 6).flatmap(
    lambda q: st.tuples(st.integers(0, q), st.integers(0, q))
    .filter(lambda ab: ab[0] + ab[1] <= q)
    .map(lambda ab: (Fraction(ab[0], q), Fraction(ab[1], q))))
polygon_profile = st.lists(gradient, min_size=1, max_size=6).map(
    lambda gs: TorusProfile2(1, tuple((g, 0) for g in gs)))


def assert_matches_bruteforce(f, ks):
    for d in range(-2, 3):
        for k in ks:
            assert h0_toric(k, f, d) == h0_toric_bruteforce(k, f, d), (k, d)


class TestAgainstBruteforce:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        assert_matches_bruteforce(toric_fixture(name), range(1, 31))

    @settings(max_examples=15, deadline=None)
    @given(f=polygon_profile, ks=st.lists(st.integers(1, 30), min_size=1, max_size=2))
    def test_rational_polygons(self, f, ks):
        assert_matches_bruteforce(f, ks)


class TestAgainstRowLoop:
    KS = list(range(1, 60)) + list(range(61, 2001, 97)) + [2000]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_to_large_k(self, name):
        f = toric_fixture(name)
        for d in (-2, 0, 2):
            for k in self.KS:
                assert h0_toric(k, f, d) == loop_h0_toric(k, f, d), (k, d)

    @settings(max_examples=20, deadline=None)
    @given(f=polygon_profile, k=st.integers(1, 2000), d=st.integers(-2, 2))
    def test_rational_polygons_to_large_k(self, f, k, d):
        assert h0_toric(k, f, d) == loop_h0_toric(k, f, d)

    def test_body_and_edge_table_are_built_once(self):
        f = toric_fixture("half-square")
        assert f.body is f.body
        assert f.body.edge_table is f.body.edge_table
        # one inequality per edge, in integers
        assert len(f.body.edge_table) == 4
        assert all(isinstance(x, int) for row in f.body.edge_table for x in row)


@functools.cache
def loop_counts(name, d):
    """{k: loop_h0_toric} for k = 1..400, shared by the block sizes."""
    f = toric_fixture(name)
    return {k: loop_h0_toric(k, f, d) for k in range(1, 401)}


def closed_form_count(name, k):
    """h0_toric at d = 0: β = α + 1 strictly inside k·body."""
    if name == "simplex":
        return (k - 1) * (k - 2) // 2
    if name == "half-square":
        return (-(-k // 2) - 1) ** 2
    return 0  # a point has no interior


class TestBatchedCounts:
    # ascending k-sequences: a whole range, a schedule with gaps, one k;
    # blocks of 1 and 7 split each of the first two, 64 splits both
    KS = (range(1, 151), list(range(3, 401, 3)), [17])

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks_match_row_loop(self, name, block, monkeypatch):
        monkeypatch.setattr(toric, "K_BLOCK", block)
        f = toric_fixture(name)
        for d in (-6, -2, 0, 2):
            want = loop_counts(name, d)
            for ks in self.KS:
                assert len(ks) == 1 or len(ks) > block
                got = _h0_toric_counts(ks, f, d)
                assert got.dtype == np.int64
                assert got.tolist() == [want[k] for k in ks], (ks, d)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_default_blocks_match_closed_forms(self, name):
        # k = 1..2·K_BLOCK + 5 runs through three default blocks
        ks = range(1, 2 * toric.K_BLOCK + 6)
        got = _h0_toric_counts(ks, toric_fixture(name)).tolist()
        assert got == [closed_form_count(name, k) for k in ks]

    @settings(max_examples=60, deadline=None)
    @given(f=polygon_profile,
           ks=st.lists(st.integers(1, 300), min_size=1, max_size=9, unique=True).map(sorted),
           d=st.integers(-6, 4), block=st.sampled_from([1, 3, 2 ** 13]))
    def test_rational_polygons_match_row_loop(self, f, ks, d, block):
        with mock.patch.object(toric, "K_BLOCK", block):
            got = _h0_toric_counts(ks, f, d).tolist()
        assert got == [loop_h0_toric(k, f, d) for k in ks]


class TestLargeK:
    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("k", [10 ** 4, 10 ** 6])
    def test_closed_forms(self, name, k):
        f = toric_fixture(name)
        assert h0_toric(k, f) == closed_form_count(name, k)

    @pytest.mark.parametrize("name", FIXTURES[:2])
    def test_numpy_k_sequence_raises_past_int64(self, name):
        # the bounds are Python ints even when the k come as int64
        with pytest.raises(InputError, match="int64"):
            _h0_toric_counts(np.array([2 ** 40, 2 ** 47 + 1]), toric_fixture(name))


class TestFloorSum:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), a=st.integers(-90, 90),
           nb=st.lists(st.tuples(st.integers(0, 60), st.integers(-500, 500)),
                       min_size=1, max_size=6))
    def test_matches_python_loop(self, m, a, nb):
        n, b = zip(*nb)
        got = floor_sum(np.asarray(n), m, a, np.asarray(b))
        assert got.dtype == np.int64
        assert got.tolist() == [sum((a * i + bi) // m for i in range(ni))
                                for ni, bi in nb]


class TestInt64Guard:
    @pytest.mark.parametrize("k", [2 ** 47 + 1, 10 ** 19])
    def test_raises_before_allocating(self, k):
        f = toric_fixture("simplex")
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="int64"):
                h0_toric(k, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_large_coefficients_raise_at_small_k(self):
        # a denominator of 10¹⁹ scales the edge table past int64 at k = 1
        tiny = Fraction(1, 10 ** 19)
        f = TorusProfile2(1, (((0, 0), 0), ((1 - tiny, 0), 0), ((0, tiny), 0)))
        with pytest.raises(InputError, match="int64"):
            h0_toric(1, f)

    @pytest.mark.parametrize("sweep_max", [2 ** 62, 10 ** 19])
    def test_sweep_raises_before_allocating(self, sweep_max):
        cfg = ExperimentConfig("volume", "simplex", k=[10], sweep_max=sweep_max)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="int64"):
                run_volume(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def permuted(f, perm):
    """f with each piece's gradient g sent to perm(c, g): the action of a
    coordinate permutation of ℙ² on the moment simplex Δ_c."""
    c = f.class_mass
    return TorusProfile2(c, tuple((perm(c, g), a) for g, a in f.pieces))


def swap(c, g):
    return g[1], g[0]


def rotate(c, g):
    return c - g[0] - g[1], g[1]


class TestPermutations:
    """ℙ²'s coordinate permutations as an exact oracle.

    With c = 1, β = α + 1 runs over the lattice points strictly inside
    k·body, and β ↦ (β₂, β₁) and β ↦ (k − β₁ − β₂, β₂) are unimodular
    affine maps of ℤ² that carry k·body onto k·image; on α they are
    α ↦ (α₂, α₁) and α ↦ (m − |α|, α₂) at d = 0.  A body inside Δ₁ keeps
    β₁ + β₂ ≤ k − 1, i.e. |α| ≤ k − 3, so the simplex α₁ + α₂ ≤ m = k + d
    cuts nothing for d ≥ −3 and the counts agree exactly there."""

    KS = np.arange(1, 10 ** 4 + 1)

    @pytest.mark.parametrize("perm", [swap, rotate])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name, perm):
        f = toric_fixture(name)
        for d in range(-3, 3):
            assert np.array_equal(_h0_toric_counts(self.KS, permuted(f, perm), d),
                                  _h0_toric_counts(self.KS, f, d)), d

    def test_the_simplex_binds_below_d_minus_3(self):
        # the identity's range is sharp: at d = −4, α₁ + α₂ ≤ m cuts
        # half-square's points and its rotated image's differently
        f = toric_fixture("half-square")
        ks = np.arange(1, 41)
        d = -4
        assert not np.array_equal(_h0_toric_counts(ks, permuted(f, rotate), d),
                                  _h0_toric_counts(ks, f, d))

    @settings(max_examples=40, deadline=None)
    @given(f=polygon_profile, d=st.integers(-3, 2), perm=st.sampled_from([swap, rotate]))
    def test_rational_polygons(self, f, d, perm):
        ks = np.arange(1, 601)
        assert np.array_equal(_h0_toric_counts(ks, permuted(f, perm), d),
                              _h0_toric_counts(ks, f, d))
