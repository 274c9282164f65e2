"""Command-line experiment runner.

One subcommand per experiment runner: volume, bergman, energy, approx,
envelope.  Each run reads its settings from the required JSON config
(--config; committed copies live under configs/), with --k and --out
overriding the schedule and output directory; the overridden config
passes the same checks as a loaded one.  Reports are CSV (fixed header)
plus self-contained SVG; exit status 1 on any bound violation, with the
offending rows printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import InputError
from .experiments import RUNNERS, ExperimentConfig, run_experiment
from .report import CSV_HEADER


def _k_schedule(text: str) -> list[int]:
    """The sorted integers of a comma-separated --k value."""
    ks = []
    for entry in text.split(","):
        try:
            ks.append(int(entry))
        except ValueError:
            raise InputError(f"--k entry {entry!r} is not an integer") from None
    return sorted(ks)


def _build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if cfg.experiment != args.command:
        raise SystemExit(
            f"config is for experiment {cfg.experiment!r}, not {args.command!r}"
        )
    overrides = {}
    if args.k is not None:
        overrides["k"] = _k_schedule(args.k)
    if args.out is not None:
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
        p.add_argument("--config", required=True, help="JSON experiment config")
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
