"""Named fixtures and deterministic experiment runners.

Each runner consumes an ExperimentConfig, returns (rows, artifacts,
failures) with one ReportRow per measurement, and computes each gate's
verdict once, as observed ≤ bound so that NaN fails, for its row's pass
bit and its failure.  The kolmogorov, donaldson, divergence,
lower-bound-C (clamped at 0) and envelope mass rows hard-code pass=1
(ROADMAP item 9).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction

import numpy as np

from .envelopes import (
    contact_leakage,
    divergence,
    i_model_envelope,
    weighted_envelope,
    window_envelope,
)
from .energy import energy_derivative_check, equilibrium_energy
from .errors import InputError
from .measures import (
    annulus_area_measure,
    circle_atom,
    fs_measure,
    kolmogorov_distance,
    ma_measure,
)
from .profiles import ConvexProfile, WeightedSet, base_profile
from .report import ReportRow, svg_plot, write_csv
from .sections import (
    _INT64_MAX,
    _index_windows,
    approximant_lower_bound_constant,
    bergman,
    bergman_approximant,
    counting_window_holds,
    donaldson_functional,
    limit_mass,
    section_basis,
    section_counts,
)
from .toric import RationalPolygon, TorusProfile2, _h0_toric_counts


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _bump(t):
    t = np.asarray(t, dtype=float)
    # far out, exp's correctly rounded subnormals (and 0.0) are the values
    with np.errstate(under="ignore"):
        return 0.3 * np.exp(-np.square(t))


def radial_fixture(name: str) -> ConvexProfile:
    if name == "vtheta":
        return base_profile(1)
    if name == "third-quarter":
        return window_envelope(1, Fraction(1, 3), Fraction(1, 4))
    if name == "half-line":
        return window_envelope(1, Fraction(1, 2), Fraction(1, 2))
    if name == "sqrt2":
        return base_profile(Fraction(141421356, 10 ** 8))
    raise InputError(f"unknown radial fixture {name!r}")


def weighted_fixture(name: str):
    """(profile, K, reference measure) for Bergman-type experiments."""
    if name == "vtheta-fs":
        return base_profile(1), WeightedSet.whole(), fs_measure()
    if name == "third-quarter-fs":
        return radial_fixture("third-quarter"), WeightedSet.whole(), fs_measure()
    if name == "annulus-area":
        return base_profile(1), WeightedSet.interval(-1.0, 1.0), annulus_area_measure()
    if name == "annulus-atom":
        # Bernstein–Markov counterexample: point evaluation on a fat set
        return base_profile(1), WeightedSet.interval(-1.0, 1.0), circle_atom(0.0)
    if name == "bump-fs":
        return (
            radial_fixture("third-quarter"),
            WeightedSet.whole(v=_bump),
            fs_measure(),
        )
    raise InputError(f"unknown weighted fixture {name!r}")


def toric_fixture(name: str) -> TorusProfile2:
    h = Fraction(1, 2)
    if name == "simplex":
        return TorusProfile2(1, (((0, 0), 0), ((1, 0), 0), ((0, 1), 0)))
    if name == "half-square":
        return TorusProfile2(1, (((0, 0), 0), ((h, 0), 0), ((0, h), 0), ((h, h), 0)))
    if name == "point":
        return TorusProfile2(1, (((Fraction(1, 3), Fraction(1, 3)), 0),))
    raise InputError(f"unknown toric fixture {name!r}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# The exact set of tolerance names each runner reads: a config carries
# every one (no gate has a fallback bound) and no other (a typo).
TOLERANCE_NAMES = {
    "bergman": {"trend_slack", "final_threshold", "leak_tol"},
    "energy": {"gap_slack", "fd_rel"},
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int_list(name: str, value) -> None:
    if not (isinstance(value, list) and value and all(map(_is_int, value))):
        raise InputError(f"'{name}' must be a non-empty list of integers, got {value!r}")


def _is_finite_positive(x) -> bool:
    """A real number in (0, ∞); bools, strings and NaN are not."""
    if _is_int(x):
        return x > 0
    return isinstance(x, float) and math.isfinite(x) and x > 0


@dataclass
class ExperimentConfig:
    experiment: str
    fixture: str
    k: list[int]
    out: str = "out"
    tolerances: dict = field(default_factory=dict)
    sweep_max: int = 0
    shifts: list[int] = field(default_factory=lambda: [0])
    provenance: str = ""

    def __post_init__(self):
        if self.experiment not in RUNNERS:
            raise InputError(f"unknown experiment {self.experiment!r}")
        _check_int_list("k", self.k)
        if any(k < 1 for k in self.k):
            raise InputError("k-schedule entries must be positive")
        if any(b <= a for a, b in zip(self.k, self.k[1:])):
            raise InputError("k-schedule must be strictly increasing")
        if not (isinstance(self.out, str) and self.out):
            raise InputError(f"'out' must be a non-empty path, got {self.out!r}")
        if not (_is_int(self.sweep_max) and self.sweep_max >= 0):
            raise InputError(
                f"'sweep_max' must be a non-negative integer, got {self.sweep_max!r}")
        _check_int_list("shifts", self.shifts)
        for name, default, readers in (("shifts", [0], {"volume"}),
                                       ("sweep_max", 0, {"volume", "approx"})):
            value = getattr(self, name)
            if self.experiment not in readers and value != default:
                raise InputError(f"the {self.experiment} experiment never reads {name!r}; "
                                 f"it must stay {default!r}, got {value!r}")
        names = TOLERANCE_NAMES.get(self.experiment, set())
        missing = sorted(names - set(self.tolerances))
        unread = sorted(set(self.tolerances) - names)
        if missing or unread:
            raise InputError(
                f"the {self.experiment} experiment reads exactly the tolerances "
                f"{sorted(names)}; missing: {missing}, unread: {unread}")
        for name, value in sorted(self.tolerances.items()):
            if not _is_finite_positive(value):
                raise InputError(
                    f"tolerance {name!r} must be a finite positive number, got {value!r}")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        missing = sorted(required - set(data))
        if unknown or missing:
            raise InputError(
                f"{path}: unknown config keys {unknown}, missing {missing}")
        return cls(**data)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _toric_bound_holds(ks, counts: np.ndarray, body: RationalPolygon) -> np.ndarray:
    """|n/k² − area| ≤ 4·perimeter/k at every k of an ascending sequence,
    in int64 integers.

    With area = A_n/A_d and perimeter = P_n/P_d, multiplying through by
    k²·A_d·P_d > 0 gives |n·A_d − A_n·k²|·P_d ≤ 4·P_n·k·A_d; a zero
    perimeter asks n·A_d = A_n·k².  Integer bounds at the largest k and
    count check first that no operand leaves int64.
    """
    area, perim = body.area, body.perimeter_lower
    a_n, a_d, p_n, p_d = area.numerator, area.denominator, perim.numerator, perim.denominator
    k_hi = ks[-1]
    n_hi = max(int(counts.max()), -int(counts.min()))
    if max((n_hi * a_d + a_n * k_hi * k_hi) * p_d, 4 * p_n * k_hi * a_d) > _INT64_MAX:
        raise InputError(f"k = {k_hi} takes the toric volume bound past int64")
    k = np.asarray(ks, dtype=np.int64)
    excess = counts * a_d - a_n * k * k
    if p_n == 0:
        return excess == 0
    return np.abs(excess) * p_d <= 4 * p_n * k * a_d


def run_volume(cfg: ExperimentConfig):
    """h0/k^n against its limit, gated by the fixture's counting bound.

    Each fixture supplies a count and a bound check that take a whole
    ascending k-sequence in int64 arrays, and its twists with their row
    labels and series names; the schedule and the sweep over
    k = 1..sweep_max run every twist, each in one pass over all its k.
    """
    try:
        u = radial_fixture(cfg.fixture)
    except InputError:      # a toric fixture, or an unknown one
        u = None
    if u is not None:
        c, nu0, nu_inf = u.class_mass, u.s_minus, u.class_mass - u.s_plus
        limit, dim = limit_mass(c, nu0, nu_inf), 1

        def count(ks, d):
            return section_counts(ks, c, nu0, nu_inf, d)

        def holds(ks, n, d):
            return counting_window_holds(ks, n, c, nu0, nu_inf, d)

        twists = [(d, f"volume[{cfg.fixture},d={d}]", f"d={d}")
                  for d in cfg.shifts]
    else:
        if cfg.shifts != [0]:
            raise InputError(
                f"'shifts' must be [0] on toric fixture {cfg.fixture!r}, got "
                f"{cfg.shifts}: no toric counting bound is derived for d ≠ 0")
        f = toric_fixture(cfg.fixture)
        body = f.body
        limit, dim = body.area, 2

        def count(ks, d):
            return _h0_toric_counts(ks, f, d)

        def holds(ks, n, d):
            return _toric_bound_holds(ks, n, body)

        twists = [(0, f"volume[toric:{cfg.fixture}]", "toric")]
    rows, failures, series = [], [], []
    for d, label, series_name in twists:
        counts = count(cfg.k, d)
        errs = []
        for k, n, ok in zip(cfg.k, counts.tolist(), holds(cfg.k, counts, d).tolist()):
            val = Fraction(n, k ** dim)
            err = abs(val - limit)
            rows.append(ReportRow(label, k, float(val), float(limit), float(err), ok))
            errs.append(max(float(err), 1e-18))
            if not ok:
                failures.append(f"bound broken at k={k}: {label}")
        series.append((series_name, cfg.k, errs))
    if cfg.sweep_max:
        ks = range(1, cfg.sweep_max + 1)
        for d, label, _ in twists:
            broken = np.flatnonzero(~holds(ks, count(ks, d), d)) + 1
            failures += [f"sweep: bound broken at k={k}: {label}" for k in broken.tolist()]
    artifacts = {"volume_convergence.svg": lambda path: svg_plot(
        path, series, title=f"volume convergence: {cfg.fixture}",
        xlabel="k", ylabel="abs err", logy=True)}
    return rows, artifacts, failures


def run_bergman(cfg: ExperimentConfig):
    u, K, nu = weighted_fixture(cfg.fixture)
    env = weighted_envelope(u, K)
    target = ma_measure(env)
    slack = float(cfg.tolerances["trend_slack"])
    threshold = float(cfg.tolerances["final_threshold"])
    leak_tol = float(cfg.tolerances["leak_tol"])
    rows, failures = [], []
    dists = []
    for k in cfg.k:
        res = bergman(k, u, K, nu)
        dist = kolmogorov_distance(res.beta, target)
        dists.append(dist)
        mass_err = abs(res.total_mass - res.h0 / k) / max(res.h0 / k, 1e-300)
        ok_mass = mass_err <= 1e-8
        rows.append(ReportRow(
            f"bergman[{cfg.fixture}:mass]", k, res.total_mass, res.h0 / k,
            mass_err, bool(ok_mass)))
        if not ok_mass:
            failures.append(f"mass identity broken at k={k}")
        rows.append(ReportRow(
            f"bergman[{cfg.fixture}:kolmogorov]", k, dist, 0.0, dist, True))
    pts = np.linspace(-6, 6, 601)
    cdf_series = [
        ("beta^k", pts, res.beta.cdf(pts)),
        ("equilibrium", pts, target.cdf(pts)),
    ]
    for a, b in zip(dists, dists[1:]):
        if not b <= slack * a:
            failures.append(f"kolmogorov trend violated: {a:.4g} -> {b:.4g}")
    ok_final = dists[-1] <= threshold
    if not ok_final:
        failures.append(
            f"final kolmogorov {dists[-1]:.4g} above threshold {threshold:.4g}")
    rows.append(ReportRow(
        f"bergman[{cfg.fixture}:final-dist]", cfg.k[-1], dists[-1], threshold,
        dists[-1], bool(ok_final)))
    leak, total = contact_leakage(env, K)
    ok_leak = leak <= leak_tol * max(total, 1e-300)
    rows.append(ReportRow(
        f"bergman[{cfg.fixture}:leak]", cfg.k[-1], leak, 0.0, leak, bool(ok_leak)))
    if not ok_leak:
        failures.append(f"contact-set leakage {leak:.3g} above {leak_tol:.1g}")
    artifacts = {
        "bergman_cdf.svg": lambda path: svg_plot(
            path, cdf_series, title=f"CDF overlay at k={cfg.k[-1]}: {cfg.fixture}",
            xlabel="t", ylabel="CDF"),
        "bergman_distance.svg": lambda path: svg_plot(
            path, [("kolmogorov", cfg.k, dists)],
            title=f"weak convergence: {cfg.fixture}", xlabel="k",
            ylabel="distance", logy=True),
    }
    return rows, artifacts, failures


def run_energy(cfg: ExperimentConfig):
    u, K, nu = weighted_fixture(cfg.fixture)
    rows, failures = [], []
    target = equilibrium_energy(u, K)
    gaps = []
    for k in cfg.k:
        basis = section_basis(k, u, K, nu)
        val = donaldson_functional(k, u, basis)
        gap = abs(val - target)
        gaps.append(gap)
        rows.append(ReportRow(
            f"energy[{cfg.fixture}:donaldson]", k, val, target, gap, True))
    for a, b in zip(gaps, gaps[1:]):
        if not b <= a * float(cfg.tolerances["gap_slack"]) + 1e-12:
            failures.append(f"donaldson gap not decreasing: {a:.4g} -> {b:.4g}")
    fd_tol = float(cfg.tolerances["fd_rel"])
    fd, exact = energy_derivative_check(u, K, _bump, t=0.0, delta=1e-3)
    err = abs(fd - exact) / (1.0 + abs(exact))
    ok = err <= fd_tol
    rows.append(ReportRow(
        f"energy[{cfg.fixture}:derivative]", cfg.k[-1], fd, exact, err, bool(ok)))
    if not ok:
        failures.append(f"derivative mismatch: fd={fd:.8g} exact={exact:.8g}")
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    fd1, exact1 = energy_derivative_check(u, K, one, t=0.0, delta=1e-3)
    err1 = abs(fd1 - float(u.mass))
    ok1 = err1 <= 1e-6
    rows.append(ReportRow(
        f"energy[{cfg.fixture}:constant-direction]", cfg.k[-1], fd1,
        float(u.mass), err1, bool(ok1)))
    if not ok1:
        failures.append("constant-direction derivative does not match the mass")
    artifacts = {"energy_gap.svg": lambda path: svg_plot(
        path, [("|L_k - I|", cfg.k, [max(g, 1e-18) for g in gaps])],
        title=f"Donaldson gap: {cfg.fixture}", xlabel="k", ylabel="gap",
        logy=True)}
    return rows, artifacts, failures


def _window_gaps(ks, u: ConvexProfile, env: ConvexProfile):
    """(k, Lelong gap, gap ≤ 1/k, mass gap, 0 ≤ gap ≤ 2/k) with exact gaps,
    at each k of an ascending sequence with a nonempty J, from F̃_k's tail
    slopes s₋ = j_min/k and s₊ = j_max/k."""
    _, _, j_min, j_max = _index_windows(ks, u.class_mass, u.s_minus,
                                        u.class_mass - u.s_plus, 0)
    for k, lo, hi in zip(ks, j_min.tolist(), j_max.tolist()):
        if lo <= hi:
            s_minus, s_plus = Fraction(lo, k), Fraction(hi, k)
            lelong = max(abs(s_minus - u.s_minus), abs(s_plus - u.s_plus))
            mass = s_plus - s_minus - env.mass
            yield k, lelong, lelong <= Fraction(1, k), mass, 0 <= mass <= Fraction(2, k)


def run_approx(cfg: ExperimentConfig):
    """The Lelong and mass gates read J's ends (`_window_gaps`) at the
    schedule and over the sweep k = 1..sweep_max; F̃_k itself is built only
    at the scheduled k, for the divergence and lower-bound-C rows."""
    u = radial_fixture(cfg.fixture)
    env = i_model_envelope(u)
    rows, failures, divs = [], [], []
    gates = {k: g for k, *g in _window_gaps(cfg.k, u, env)}
    for k in cfg.k:
        ap = bergman_approximant(k, u)  # raises NoSectionsError on an empty J
        lelong_gap, ok_lelong, mass_gap, ok_mass = gates[k]
        div = divergence(ap, env)
        divs.append(float(div))
        const = approximant_lower_bound_constant(k, u, ap)
        rows.append(ReportRow(
            f"approx[{cfg.fixture}:mass]", k, float(env.mass + mass_gap),
            float(env.mass), float(abs(mass_gap)), bool(ok_mass)))
        rows.append(ReportRow(
            f"approx[{cfg.fixture}:lelong-gap]", k, float(lelong_gap), 0.0,
            float(lelong_gap), bool(ok_lelong)))
        rows.append(ReportRow(
            f"approx[{cfg.fixture}:divergence]", k, float(div), 0.0,
            float(div), True))
        rows.append(ReportRow(
            f"approx[{cfg.fixture}:lower-bound-C]", k, const, 0.0, 0.0, True))
        if not ok_lelong:
            failures.append(f"Lelong sandwich broken at k={k}")
        if not ok_mass:
            failures.append(f"mass bound broken at k={k}")
    for a, b in zip(divs, divs[1:]):
        if b > a + 1e-15:
            failures.append(f"divergence not monotone: {a:.4g} -> {b:.4g}")
    if cfg.sweep_max:
        for k, _, ok_lelong, _, ok_mass in _window_gaps(range(1, cfg.sweep_max + 1), u, env):
            if not ok_lelong:
                failures.append(f"sweep: Lelong bound broken at k={k}")
            if not ok_mass:
                failures.append(f"sweep: mass bound broken at k={k}")
    artifacts = {"approx_divergence.svg": lambda path: svg_plot(
        path, [("divergence", cfg.k, [max(d, 1e-18) for d in divs])],
        title=f"approximant divergence: {cfg.fixture}", xlabel="k",
        ylabel="divergence", logy=True)}
    return rows, artifacts, failures


def run_envelope(cfg: ExperimentConfig):
    u = radial_fixture(cfg.fixture)
    env = i_model_envelope(u)
    mu = ma_measure(env)
    rows = [ReportRow(
        f"envelope[{cfg.fixture}:mass]", 0, mu.total_mass(), float(env.mass),
        abs(mu.total_mass() - float(env.mass)), True)]
    ts = np.linspace(-8, 8, 481)
    artifacts = {
        "envelope.svg": lambda path: svg_plot(
            path, [
                ("base c*f_FS", ts, float(env.class_mass) * np.log1p(np.exp(ts))),
                ("envelope", ts, env(ts)),
            ], title=f"I-model envelope: {cfg.fixture}", xlabel="t",
            ylabel="full potential"),
        "envelope.json": lambda path: _write_json(path, env.to_dict()),
    }
    return rows, artifacts, []


def _write_json(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


RUNNERS = {
    "volume": run_volume,
    "bergman": run_bergman,
    "energy": run_energy,
    "approx": run_approx,
    "envelope": run_envelope,
}


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Execute a config; write CSV + SVG artifacts; return failures."""
    runner = RUNNERS[cfg.experiment]
    rows, artifacts, failures = runner(cfg)
    out = out_dir or cfg.out
    write_csv(os.path.join(out, f"{cfg.experiment}_{cfg.fixture}.csv"), rows)
    for name, writer in artifacts.items():
        writer(os.path.join(out, f"{cfg.experiment}_{cfg.fixture}_{name}"))
    return rows, failures
