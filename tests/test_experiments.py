import csv
import dataclasses
import glob
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import envlab
from envlab import experiments, sections
from envlab.envelopes import window_envelope
from envlab.errors import InputError
from envlab.experiments import ExperimentConfig, run_experiment
from envlab.report import CSV_HEADER

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def load(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return ExperimentConfig.from_json(str(path))


# an old config's twist ranks are refused by name, not dropped
UNKNOWN_RANKS = r"unknown config keys \['ranks'\]"


def bergman_config(**tolerances):
    return {"experiment": "bergman", "fixture": "vtheta-fs", "k": [25, 50],
            "tolerances": tolerances}


class TestFromJson:
    def test_committed_configs_load(self):
        paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
        assert paths
        for path in paths:
            ExperimentConfig.from_json(path)

    def test_unknown_top_level_key_is_named(self, tmp_path):
        payload = bergman_config(final_threshold=0.006)
        payload["sweepmax"] = 10
        with pytest.raises(InputError, match="'sweepmax'"):
            load(tmp_path, payload)

    def test_bergman_tolerance_typo_is_named(self, tmp_path):
        with pytest.raises(InputError, match="'final_treshold'"):
            load(tmp_path, bergman_config(trend_slack=1.1, final_treshold=0.006))

    def test_energy_tolerance_typo_is_named(self, tmp_path):
        payload = {"experiment": "energy", "fixture": "bump-fs", "k": [25],
                   "tolerances": {"gap_slack": 1.0, "fd_tol": 1e-3}}
        with pytest.raises(InputError, match="'fd_tol'"):
            load(tmp_path, payload)

    def test_tolerance_of_another_experiment_is_rejected(self, tmp_path):
        with pytest.raises(InputError, match="'gap_slack'"):
            load(tmp_path, bergman_config(gap_slack=1.0))

    def test_experiment_without_tolerances_rejects_any(self, tmp_path):
        payload = {"experiment": "volume", "fixture": "simplex", "k": [10],
                   "tolerances": {"leak_tol": 1e-6}}
        with pytest.raises(InputError, match="'leak_tol'"):
            load(tmp_path, payload)

    @pytest.mark.parametrize("experiment, fixture, tolerances, missing", [
        ("bergman", "vtheta-fs", {"trend_slack": 1.1, "leak_tol": 1e-6}, "'final_threshold'"),
        ("bergman", "vtheta-fs", {}, "'trend_slack'"),
        ("energy", "bump-fs", {"gap_slack": 1.0}, "'fd_rel'"),
    ], ids=["bergman-one", "bergman-all", "energy-one"])
    def test_missing_tolerance_is_named(self, tmp_path, experiment, fixture,
                                        tolerances, missing):
        payload = {"experiment": experiment, "fixture": fixture, "k": [25],
                   "tolerances": tolerances}
        with pytest.raises(InputError, match=f"missing: \\[.*{missing}"):
            load(tmp_path, payload)

    def test_missing_and_unread_tolerances_are_named_together(self, tmp_path):
        payload = bergman_config(trend_slack=1.1, leak_tol=1e-6, final_treshold=0.006)
        with pytest.raises(InputError) as exc:
            load(tmp_path, payload)
        assert "missing: ['final_threshold']" in str(exc.value)
        assert "unread: ['final_treshold']" in str(exc.value)

    @pytest.mark.parametrize("k", ["25", [10.7, 20.2], [True, 5], [], None, 25])
    def test_k_must_be_a_nonempty_list_of_ints(self, tmp_path, k):
        payload = {"experiment": "volume", "fixture": "simplex", "k": k}
        with pytest.raises(InputError, match="'k' must be a non-empty list of integers"):
            load(tmp_path, payload)

    def test_missing_k_is_named(self, tmp_path):
        with pytest.raises(InputError, match=r"missing \['k'\]"):
            load(tmp_path, {"experiment": "volume", "fixture": "simplex"})

    @pytest.mark.parametrize("sweep_max", [500.0, -3, True, "10"])
    def test_sweep_max_must_be_a_nonnegative_int(self, tmp_path, sweep_max):
        payload = {"experiment": "volume", "fixture": "simplex", "k": [10],
                   "sweep_max": sweep_max}
        with pytest.raises(InputError, match="'sweep_max' must be a non-negative integer"):
            load(tmp_path, payload)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       "1e-6", True, 0, -0.5, None, [0.1]])
    def test_tolerance_must_be_finite_positive(self, tmp_path, value):
        payload = bergman_config(trend_slack=1.1, final_threshold=value, leak_tol=1e-6)
        with pytest.raises(InputError, match="tolerance 'final_threshold' must be "
                                             "a finite positive number"):
            load(tmp_path, payload)

    def test_nonstandard_json_constants_are_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "bergman", "fixture": "annulus-area", '
                        '"k": [25, 50], "tolerances": {"trend_slack": Infinity, '
                        '"final_threshold": 0.3, "leak_tol": 1e-6}}')
        with pytest.raises(InputError, match="'trend_slack'"):
            ExperimentConfig.from_json(str(path))

    @pytest.mark.parametrize("name, value", [
        ("ranks", [True, 2]), ("ranks", [0.5]), ("ranks", []), ("ranks", "1"),
        ("shifts", [0.5]), ("shifts", [False]), ("shifts", []), ("shifts", 0),
    ])
    def test_ranks_and_shifts_must_be_nonempty_int_lists(self, tmp_path, name, value):
        # twists carry no rank: a 'ranks' key of any value is unknown
        payload = {"experiment": "volume", "fixture": "third-quarter", "k": [10],
                   name: value}
        message = (UNKNOWN_RANKS if name == "ranks"
                   else f"'{name}' must be a non-empty list of integers")
        with pytest.raises(InputError, match=message):
            load(tmp_path, payload)

    @pytest.mark.parametrize("ranks", [[0], [1, -2]])
    def test_ranks_must_be_positive(self, tmp_path, ranks):
        payload = {"experiment": "volume", "fixture": "third-quarter", "k": [10],
                   "ranks": ranks}
        with pytest.raises(InputError, match=UNKNOWN_RANKS):
            load(tmp_path, payload)

    @pytest.mark.parametrize("experiment, fixture", [
        ("bergman", "vtheta-fs"), ("energy", "bump-fs"),
        ("approx", "third-quarter"), ("envelope", "third-quarter")])
    def test_ranks_outside_volume_are_rejected(self, tmp_path, experiment, fixture):
        payload = {"experiment": experiment, "fixture": fixture, "k": [25], "tolerances": {
            name: 1.0 for name in experiments.TOLERANCE_NAMES.get(experiment, ())}}
        load(tmp_path, payload)
        # not even the old default is read
        with pytest.raises(InputError, match=UNKNOWN_RANKS):
            load(tmp_path, dict(payload, ranks=[1]))

    def test_shifts_outside_volume_are_rejected(self, tmp_path):
        payload = bergman_config(trend_slack=1.1, final_threshold=0.006, leak_tol=1e-6)
        load(tmp_path, dict(payload, shifts=[0]))
        with pytest.raises(InputError, match="never reads 'shifts'"):
            load(tmp_path, dict(payload, shifts=[-1, 0]))

    @pytest.mark.parametrize("experiment, fixture", [
        ("bergman", "vtheta-fs"), ("energy", "bump-fs"), ("envelope", "third-quarter")])
    def test_sweep_max_outside_volume_and_approx_is_rejected(self, tmp_path,
                                                             experiment, fixture):
        payload = {"experiment": experiment, "fixture": fixture, "k": [25], "sweep_max": 0,
                   "tolerances": {name: 1.0 for name in
                                  experiments.TOLERANCE_NAMES.get(experiment, ())}}
        load(tmp_path, payload)
        with pytest.raises(InputError, match="never reads 'sweep_max'"):
            load(tmp_path, dict(payload, sweep_max=10))

    def test_negative_shifts_are_accepted(self, tmp_path):
        payload = {"experiment": "volume", "fixture": "third-quarter", "k": [10],
                   "shifts": [-1, 0, 1]}
        assert load(tmp_path, payload).shifts == [-1, 0, 1]

    def test_unknown_experiment_is_rejected(self, tmp_path):
        for name in ("selftest", "volumes"):
            payload = {"experiment": name, "fixture": "simplex", "k": [10]}
            with pytest.raises(InputError, match=repr(name)):
                load(tmp_path, payload)


def off_at(counter, chosen, move):
    """A stand-in counter: the real counts, with `move(count, k, d)` in
    place of the count at each k in `chosen`."""
    def count(ks, *args):
        counts = counter(ks, *args).copy()
        d = args[-1]
        for i, k in enumerate(ks):
            if k in chosen:
                counts[i] = move(int(counts[i]), k, d)
        return counts
    return count


def broken_rows(rows):
    return [(r.experiment, r.k) for r in rows if not r.ok]


class TestRunVolume:
    def test_toric_shifts_are_rejected(self, tmp_path):
        cfg = ExperimentConfig("volume", "simplex", k=[10], shifts=[-1, 1])
        with pytest.raises(InputError, match="'shifts'"):
            run_experiment(cfg, str(tmp_path))
        assert not any(tmp_path.iterdir())

    def test_radial_window_fails_where_counts_are_off(self, tmp_path, monkeypatch):
        # the window is two wide, so a count 2 off leaves it
        monkeypatch.setattr(experiments, "section_counts", off_at(
            experiments.section_counts, (24, 37), lambda n, k, d: n + 2))
        cfg = ExperimentConfig("volume", "third-quarter", k=[12, 24, 48],
                               sweep_max=60, shifts=[0, 1])
        rows, failures = run_experiment(cfg, str(tmp_path))
        labels = [f"volume[third-quarter,d={d}]" for d in (0, 1)]
        assert failures == (
            [f"bound broken at k=24: {label}" for label in labels]
            + [f"sweep: bound broken at k={k}: {label}"
               for label in labels for k in (24, 37)])
        assert broken_rows(rows) == [(label, 24) for label in labels]
        assert len(rows) == 6

    def test_half_line_is_a_volume_fixture(self, tmp_path):
        # (c, ν₀, ν_∞) = (1, 1/2, 1/2) come from the fixture's profile: J is
        # {k/2} at even k and {(k−1)/2, (k+1)/2} at odd k, against the limit 0
        cfg = ExperimentConfig("volume", "half-line", k=[10, 11], sweep_max=40)
        rows, failures = run_experiment(cfg, str(tmp_path))
        assert failures == []
        assert [(r.k, r.value, r.reference) for r in rows] == [(10, 0.1, 0.0), (11, 2 / 11, 0.0)]

    def test_toric_bound_fails_where_counts_are_off(self, tmp_path, monkeypatch):
        # no count at all: |0 − area| = 1/2 exceeds 4·perimeter/k = 12/k for k > 24
        monkeypatch.setattr(experiments, "_h0_toric_counts", off_at(
            experiments._h0_toric_counts, (50, 110), lambda n, k, d: 0))
        cfg = ExperimentConfig("volume", "simplex", k=[10, 50, 100], sweep_max=120)
        rows, failures = run_experiment(cfg, str(tmp_path))
        label = "volume[toric:simplex]"
        assert failures == [f"bound broken at k=50: {label}"] + [
            f"sweep: bound broken at k={k}: {label}" for k in (50, 110)]
        assert broken_rows(rows) == [(label, 50)]

    @pytest.mark.parametrize("name", ["simplex", "half-square", "point"])
    def test_toric_bound_matches_fractions(self, name):
        # the gate |n/k² − area| ≤ 4·perimeter/k in Fractions, at counts
        # on each side of and exactly on both ends of the window
        body = experiments.toric_fixture(name).body
        area, perim = body.area, body.perimeter_lower
        ks = range(1, 61)
        ends = [[area * k * k + s * 4 * perim * k for s in (-1, 1)] for k in ks]
        for move in (-1, 0, 1):
            for side in (0, 1):
                counts = [math.floor(e[side]) + move for e in ends]
                want = [abs(Fraction(n, k * k) - area) <= 4 * perim / k
                        if perim > 0 else Fraction(n, k * k) == area
                        for k, n in zip(ks, counts)]
                got = experiments._toric_bound_holds(
                    ks, np.asarray(counts, dtype=np.int64), body)
                assert got.tolist() == want, (move, side)
        assert any(e[0].denominator == 1 for e in ends)

    def test_zero_area_bound_fails_on_one_count(self, tmp_path, monkeypatch):
        # a body with no perimeter asks for no section at all: one breaks it
        monkeypatch.setattr(experiments, "_h0_toric_counts", off_at(
            experiments._h0_toric_counts, (3, 7), lambda n, k, d: n + 1))
        cfg = ExperimentConfig("volume", "point", k=[3, 5], sweep_max=9)
        rows, failures = run_experiment(cfg, str(tmp_path))
        assert failures == [
            "bound broken at k=3: volume[toric:point]",
            "sweep: bound broken at k=3: volume[toric:point]",
            "sweep: bound broken at k=7: volume[toric:point]"]
        assert broken_rows(rows) == [("volume[toric:point]", 3)]


def committed(name):
    return ExperimentConfig.from_json(os.path.join(CONFIG_DIR, f"{name}.json"))


def nan(*args, **kwargs):
    return float("nan")


class TestRunBergman:
    def test_nan_distance_fails_trend_and_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "kolmogorov_distance", nan)
        cfg = committed("bergman_vtheta")
        rows, failures = run_experiment(cfg, str(tmp_path))
        assert [f for f in failures if f.startswith("kolmogorov trend")] != []
        assert any(f.startswith("final kolmogorov nan") for f in failures)
        final = [r for r in rows if r.experiment.endswith(":final-dist]")]
        assert len(final) == 1 and not final[0].ok

    # On the committed vtheta-fs config (k = 25, 50, 100, 200) the distance
    # is 1/k to rounding, the leak 0 of a total mass 1, and the mass identity
    # holds to 2.2e-16.  Each stand-in below breaks one gate at one k.

    @staticmethod
    def distance_scaled(monkeypatch, call, factor):
        """`kolmogorov_distance` times factor at its call-th call (from 0)."""
        real = experiments.kolmogorov_distance
        calls = []

        def scaled(m1, m2):
            calls.append(None)
            return real(m1, m2) * (factor if len(calls) == call + 1 else 1.0)

        monkeypatch.setattr(experiments, "kolmogorov_distance", scaled)

    def test_rising_distance_fails_the_trend(self, tmp_path, monkeypatch):
        # k = 100: 0.025 after 0.02, above the slack 1.1; the final 0.005 passes
        self.distance_scaled(monkeypatch, 2, 2.5)
        rows, failures = run_experiment(committed("bergman_vtheta"), str(tmp_path))
        assert failures == ["kolmogorov trend violated: 0.02 -> 0.025"]
        # the per-k distance rows hard-code a pass
        assert broken_rows(rows) == []

    def test_final_distance_above_the_threshold_fails(self, tmp_path, monkeypatch):
        # k = 200: 0.00625 > 0.006, yet below 1.1 times 0.01, so the trend holds
        self.distance_scaled(monkeypatch, 3, 1.25)
        rows, failures = run_experiment(committed("bergman_vtheta"), str(tmp_path))
        assert failures == ["final kolmogorov 0.00625 above threshold 0.006"]
        assert broken_rows(rows) == [("bergman[vtheta-fs:final-dist]", 200)]

    def test_leak_above_the_tolerance_fails(self, tmp_path, monkeypatch):
        # 1e-5 of the total mass 1 off the contact set, against leak_tol 1e-6
        real = experiments.contact_leakage
        monkeypatch.setattr(experiments, "contact_leakage",
                            lambda env, K: (1e-5, real(env, K)[1]))
        rows, failures = run_experiment(committed("bergman_vtheta"), str(tmp_path))
        assert failures == ["contact-set leakage 1e-05 above 1e-06"]
        assert broken_rows(rows) == [("bergman[vtheta-fs:leak]", 200)]

    def test_broken_mass_identity_fails(self, tmp_path, monkeypatch):
        # k = 50: ∫β moved by 2e-8 relative to h0/k = 1.02, past the 1e-8 bound
        real = experiments.bergman

        def heavier(k, u, K, nu):
            res = real(k, u, K, nu)
            if k != 50:
                return res
            return dataclasses.replace(res, total_mass=res.total_mass * (1 + 2e-8))

        monkeypatch.setattr(experiments, "bergman", heavier)
        rows, failures = run_experiment(committed("bergman_vtheta"), str(tmp_path))
        assert failures == ["mass identity broken at k=50"]
        assert broken_rows(rows) == [("bergman[vtheta-fs:mass]", 50)]

    def test_committed_fixtures_take_the_closed_form(self, tmp_path, monkeypatch):
        # every committed Bergman fixture has a closed-form β (the FS volume
        # or the area density on K, v = 0): a fall back to the quadrature
        # plan on any of them fails here
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature built for a closed-form β")

        monkeypatch.setattr(sections._NormPlan, "beta", refuse)
        for name in ("gauss_cells", "_NormPlan"):
            monkeypatch.setattr(sections, name, refuse)
        names = sorted(os.path.basename(p)[:-5] for p in CONFIGS
                       if os.path.basename(p).startswith("bergman_"))
        assert names == ["bergman_annulus", "bergman_third_quarter", "bergman_vtheta"]
        for name in names:
            rows, failures = run_experiment(committed(name), str(tmp_path))
            assert failures == [] and broken_rows(rows) == [], name


class TestRunEnergy:
    def test_nan_donaldson_fails_the_gap_gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "donaldson_functional", nan)
        cfg = committed("energy_bump")
        _, failures = run_experiment(cfg, str(tmp_path))
        assert [f for f in failures if f.startswith("donaldson gap")] == [
            "donaldson gap not decreasing: nan -> nan"] * (len(cfg.k) - 1)

    def test_rising_gaps_fail_the_gap_gate(self, tmp_path, monkeypatch):
        # ℒ_k = k: every gap |k − target| is larger than the one before
        monkeypatch.setattr(experiments, "donaldson_functional",
                            lambda k, u, basis: float(k))
        cfg = committed("energy_bump")
        u, K, _ = experiments.weighted_fixture(cfg.fixture)
        target = experiments.equilibrium_energy(u, K)
        gaps = [abs(k - target) for k in cfg.k]
        _, failures = run_experiment(cfg, str(tmp_path))
        assert failures == [f"donaldson gap not decreasing: {a:.4g} -> {b:.4g}"
                            for a, b in zip(gaps, gaps[1:])]

    @staticmethod
    def derivative_off(monkeypatch, direction, shift):
        """`energy_derivative_check` whose finite difference in `direction`
        (the bump, or not) is moved by shift(exact) from the true one."""
        check = experiments.energy_derivative_check

        def off(u, K, f, t, delta):
            fd, exact = check(u, K, f, t=t, delta=delta)
            if (f is experiments._bump) == (direction == "bump"):
                fd = exact + shift(exact)
            return fd, exact

        monkeypatch.setattr(experiments, "energy_derivative_check", off)

    def test_derivative_off_by_more_than_fd_rel_fails(self, tmp_path, monkeypatch):
        cfg = committed("energy_bump")
        fd_rel = cfg.tolerances["fd_rel"]
        self.derivative_off(monkeypatch, "bump",
                            lambda exact: 1.5 * fd_rel * (1.0 + abs(exact)))
        rows, failures = run_experiment(cfg, str(tmp_path))
        row, = [r for r in rows if r.experiment.endswith(":derivative]")]
        assert not row.ok and row.value == row.reference + 1.5 * fd_rel * (
            1.0 + abs(row.reference))
        assert failures == [f"derivative mismatch: fd={row.value:.8g} "
                            f"exact={row.reference:.8g}"]
        assert broken_rows(rows) == [(row.experiment, cfg.k[-1])]

    def test_constant_direction_off_the_mass_fails(self, tmp_path, monkeypatch):
        # the constant direction's derivative is the mass 5/12, to 1e-6
        self.derivative_off(monkeypatch, "constant", lambda exact: 2e-6)
        cfg = committed("energy_bump")
        rows, failures = run_experiment(cfg, str(tmp_path))
        assert failures == ["constant-direction derivative does not match the mass"]
        label = "energy[bump-fs:constant-direction]"
        assert broken_rows(rows) == [(label, cfg.k[-1])]


class TestRunApprox:
    # The Lelong and mass gates read J = [j_min, j_max] at each k through
    # `_index_windows`, so a stand-in J there moves them and nothing else;
    # the divergence reads the approximant itself.  On the committed
    # third-quarter config (window [1/3, 3/4], mass 5/12, k = 25 … 400,
    # sweep 1..500) the real J at k is [⌊k/3⌋, k − ⌊k/4⌋].

    @staticmethod
    def stand_in(monkeypatch, ends):
        """Replace J's ends (j_min, j_max) at each k by ends(k, j_min, j_max)."""
        real = experiments._index_windows

        def index_windows(ks, c, nu0, nu_inf, d):
            k, m, j_min, j_max = real(ks, c, nu0, nu_inf, d)
            lo, hi = zip(*map(ends, k.tolist(), j_min.tolist(), j_max.tolist()))
            return k, m, np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)

        monkeypatch.setattr(experiments, "_index_windows", index_windows)

    @staticmethod
    def row(rows, gate, k):
        row, = [r for r in rows if r.experiment == f"approx[third-quarter:{gate}]" and r.k == k]
        return row

    def test_sweep_gates_the_mass_gap(self, tmp_path, monkeypatch):
        # J one index shorter at its low end: s₋ moves up by 1/k, so the
        # Lelong gap stays ≤ 1/k (allowed) and the mass gap is below 0 at
        # k = 3, 4, 5; at k = 1, 2 the stand-in J is empty and the sweep
        # skips k
        self.stand_in(monkeypatch, lambda k, lo, hi: (lo + 1, hi if k >= 3 else lo))
        cfg = ExperimentConfig("approx", "third-quarter", k=[12], sweep_max=5)
        _, failures = run_experiment(cfg, str(tmp_path))
        assert [f for f in failures if f.startswith("sweep:")] == [
            f"sweep: mass bound broken at k={k}" for k in (3, 4, 5)]

    def test_lelong_gap_past_one_over_k_fails(self, tmp_path, monkeypatch):
        # J = [10, 21] for [8, 19] at k = 25: both ends move by 2/25, so at
        # an unchanged mass the Lelong gaps are 2/5 − 1/3 = 1/15 at s₋ and
        # 21/25 − 3/4 = 9/100 at s₊, both past 1/25
        self.stand_in(monkeypatch,
                      lambda k, lo, hi: (lo + 2, hi + 2) if k == 25 else (lo, hi))
        rows, failures = run_experiment(committed("approx_third_quarter"), str(tmp_path))
        assert failures == ["Lelong sandwich broken at k=25",
                            "sweep: Lelong bound broken at k=25"]
        assert broken_rows(rows) == [("approx[third-quarter:lelong-gap]", 25)]
        assert self.row(rows, "lelong-gap", 25).value == 0.09

    def test_mass_below_the_envelope_fails(self, tmp_path, monkeypatch):
        # J = [134, 300] for [133, 300] at k = 400: mass gap 166/400 − 5/12
        # = −1/600 at Lelong gap 134/400 − 1/3 = 1/600, from s₋ alone
        self.stand_in(monkeypatch,
                      lambda k, lo, hi: (lo + 1, hi) if k == 400 else (lo, hi))
        rows, failures = run_experiment(committed("approx_third_quarter"), str(tmp_path))
        assert failures == ["mass bound broken at k=400",
                            "sweep: mass bound broken at k=400"]
        assert broken_rows(rows) == [("approx[third-quarter:mass]", 400)]
        mass = self.row(rows, "mass", 400)
        assert (mass.value, mass.reference, mass.abs_err) == (
            float(Fraction(166, 400)), float(Fraction(5, 12)), float(Fraction(1, 600)))
        assert self.row(rows, "lelong-gap", 400).value == float(Fraction(1, 600))

    def test_builds_one_approximant_per_scheduled_k(self, tmp_path, monkeypatch):
        # the sweep's gates read J's ends alone: no approximant past the schedule
        real, built = experiments.bergman_approximant, []

        def approximant(k, u):
            built.append(k)
            return real(k, u)

        monkeypatch.setattr(experiments, "bergman_approximant", approximant)
        cfg = committed("approx_third_quarter")
        assert cfg.sweep_max == 500
        run_experiment(cfg, str(tmp_path))
        assert built == cfg.k

    def test_rising_divergence_fails(self, tmp_path, monkeypatch):
        # the approximant at k = 200 replaced by the window [1/3 − 1/200,
        # 3/4 + 1/200], whose divergence from the envelope is 2/200; the
        # gates read the real J and pass, but the divergence rises from
        # 1/300 at k = 100 (J = [33, 75]) to 0.01; the divergence rows
        # claim a pass regardless
        real = experiments.bergman_approximant

        def approximant(k, u):
            if k != 200:
                return real(k, u)
            return window_envelope(1, u.s_minus - Fraction(1, 200),
                                   1 - u.s_plus - Fraction(1, 200))

        monkeypatch.setattr(experiments, "bergman_approximant", approximant)
        rows, failures = run_experiment(committed("approx_third_quarter"), str(tmp_path))
        assert failures == ["divergence not monotone: 0.003333 -> 0.01"]
        assert broken_rows(rows) == []
        div, = [r.value for r in rows
                if r.experiment.endswith(":divergence]") and r.k == 200]
        assert div == 0.01


CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def run_all(out):
    for path in CONFIGS:
        rows, failures = run_experiment(ExperimentConfig.from_json(path), str(out))
        assert rows, path
        assert failures == [], path
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("first"))


class TestCommittedConfigs:
    def test_run_clean_and_deterministic(self, tmp_path, first_run):
        assert len(CONFIGS) == 11
        csvs = [name for name in first_run if name.endswith(".csv")]
        assert len(csvs) == len(CONFIGS)
        for name in csvs:
            assert first_run[name].startswith((CSV_HEADER + "\n").encode()), name
        assert run_all(tmp_path / "second") == first_run

    def test_runs_without_numpy_ma(self, tmp_path):
        # np.unique and np.union1d import numpy.ma on their first call, a
        # cost each fresh process would pay; grid merges go through union.
        # numpy.polynomial would come with leggauss; the Gauss rules are
        # tabulated instead
        src = os.path.dirname(os.path.dirname(envlab.__file__))
        code = (
            "import sys\n"
            "from envlab.experiments import ExperimentConfig, run_experiment\n"
            f"for path in {CONFIGS!r}:\n"
            f"    run_experiment(ExperimentConfig.from_json(path), {str(tmp_path)!r})\n"
            "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src},
                             timeout=300, check=True)
        assert out.stdout.strip() == "False False"
        assert len(list(tmp_path.glob("*.csv"))) == len(CONFIGS)

    def test_csvs_parse_to_six_fields(self, first_run):
        header = CSV_HEADER.split(",")
        for name, data in first_run.items():
            if name.endswith(".csv"):
                rows = list(csv.reader(io.StringIO(data.decode())))
                assert rows[0] == header, name
                assert len(rows) > 1, name
                assert all(len(row) == len(header) for row in rows), name
