"""Command-line experiment runner.

One subcommand per experiment runner: volume, bergman, energy, approx,
envelope.  Experiments read a JSON config (--config; committed copies
live under configs/), with --fixture, --k and --out overriding it; the
overridden config passes the same checks as a loaded one.  Reports are
CSV (fixed header) plus self-contained SVG; exit status 1 on any bound
violation, with the offending rows printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import RUNNERS, ExperimentConfig, run_experiment
from .report import CSV_HEADER

DEFAULT_FIXTURES = {
    "volume": "third-quarter",
    "bergman": "third-quarter-fs",
    "energy": "bump-fs",
    "approx": "third-quarter",
    "envelope": "third-quarter",
}

DEFAULT_SCHEDULES = {
    "volume": [12, 24, 48, 96, 192, 384, 768, 960],
    "bergman": [25, 50, 100, 200],
    "energy": [25, 50, 100, 200],
    "approx": [25, 50, 100, 200, 400],
    "envelope": [1],
}

# committed fallbacks matching configs/*.json (single source for no-config runs)
DEFAULT_TOLERANCES = {
    ("bergman", "vtheta-fs"): {"trend_slack": 1.1, "final_threshold": 0.006, "leak_tol": 1e-6},
    ("bergman", "third-quarter-fs"): {"trend_slack": 1.1, "final_threshold": 0.025, "leak_tol": 1e-6},
    ("bergman", "annulus-area"): {"trend_slack": 1.1, "final_threshold": 0.30, "leak_tol": 1e-6},
    ("energy", "bump-fs"): {"gap_slack": 1.0, "fd_rel": 1e-3},
}


def _build_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
        if cfg.experiment != args.command:
            raise SystemExit(
                f"config is for experiment {cfg.experiment!r}, not {args.command!r}"
            )
    else:
        fixture = args.fixture or DEFAULT_FIXTURES[args.command]
        cfg = ExperimentConfig(
            experiment=args.command,
            fixture=fixture,
            k=DEFAULT_SCHEDULES[args.command],
            tolerances=DEFAULT_TOLERANCES.get((args.command, fixture), {}),
        )
    overrides = {}
    if args.fixture:
        overrides["fixture"] = args.fixture
    if args.k:
        overrides["k"] = sorted(int(x) for x in args.k.split(","))
    if args.out:
        overrides["out"] = args.out
    # replace() runs __post_init__ again, so the overrides are checked too
    return dataclasses.replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="envlab",
        description="envelope / Bergman / energy laboratory on radial and toric models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--fixture", help="fixture id override")
        p.add_argument("--k", help="comma-separated k schedule override")
        p.add_argument("--out", help="output directory (default: config's)")
    args = parser.parse_args(argv)

    rows, failures = run_experiment(_build_config(args))
    print(CSV_HEADER)
    for row in rows:
        print(row.line())
    if failures:
        print("FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
