"""Golden outputs: every committed config writes the files under tests/golden.

On the host recorded in golden/manifest.json (Python, numpy, machine) each
CSV and the envelope JSON must match byte for byte, and each SVG its SHA-256
digest.  On any other host a different libm may round a last digit, so the
CSVs are compared cell by cell (label, k and the pass bit exactly, numbers
within CELL_TOL·max(1, |golden|)), the JSON number by number with the same
bound, and the SVGs by name only.

A change that moves digits rewrites the golden files in the same commit,
with `PYTHONPATH=src python tests/test_golden.py`, and names the cells that
moved.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import io
import json
import math
import os
import platform
import shutil
import sys
import tempfile

import numpy as np

from envlab.experiments import ExperimentConfig, run_experiment

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
CONFIG_DIR = os.path.join(HERE, os.pardir, "configs")
CELL_TOL = 1e-9


def host() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def run_configs(out: str) -> list[str]:
    """Run every committed config into out; the names of the files written."""
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        _, failures = run_experiment(ExperimentConfig.from_json(path), out)
        assert not failures, (path, failures)
    return sorted(os.listdir(out))


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def load_manifest() -> dict:
    with open(os.path.join(GOLDEN_DIR, "manifest.json")) as fh:
        return json.load(fh)


def numbers_agree(golden: float, new: float) -> bool:
    if not (math.isfinite(golden) and math.isfinite(new)):
        return golden == new or (math.isnan(golden) and math.isnan(new))
    return abs(new - golden) <= CELL_TOL * max(1.0, abs(golden))


def csv_mismatches(golden: str, new: str) -> list[str]:
    """The cells of new that differ from golden beyond the cell rule."""
    old_rows = list(csv.reader(io.StringIO(golden)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if len(old_rows) != len(new_rows) or old_rows[0] != new_rows[0]:
        return [f"shape or header: {len(old_rows)} rows, now {len(new_rows)}"]
    out = []
    for i, (old, row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        exact = (old[0], old[1], old[5]) == (row[0], row[1], row[5])
        if not exact or not all(numbers_agree(float(a), float(b))
                                for a, b in zip(old[2:5], row[2:5])):
            out.append(f"row {i}: {old} -> {row}")
    return out


def json_agrees(golden, new) -> bool:
    """Equal structure and strings; floats within the cell rule."""
    if isinstance(golden, dict):
        return (isinstance(new, dict) and golden.keys() == new.keys()
                and all(json_agrees(golden[key], new[key]) for key in golden))
    if isinstance(golden, list):
        return (isinstance(new, list) and len(golden) == len(new)
                and all(json_agrees(a, b) for a, b in zip(golden, new)))
    if isinstance(golden, float) and isinstance(new, float):
        return numbers_agree(golden, new)
    return type(golden) is type(new) and golden == new


def test_committed_configs_reproduce_golden(tmp_path):
    manifest = load_manifest()
    svgs = manifest["svg_sha256"]
    kept = sorted(set(os.listdir(GOLDEN_DIR)) - {"manifest.json"})
    written = run_configs(str(tmp_path))
    assert written == sorted(kept + list(svgs))
    if host() == manifest["host"]:
        for name in kept:
            assert read(tmp_path / name) == read(os.path.join(GOLDEN_DIR, name)), name
        assert {name: sha256(tmp_path / name) for name in svgs} == svgs
        return
    for name in kept:
        golden, new = read(os.path.join(GOLDEN_DIR, name)), read(tmp_path / name)
        if name.endswith(".csv"):
            assert csv_mismatches(golden, new) == [], name
        else:
            assert json_agrees(json.loads(golden), json.loads(new)), name


def test_cell_rule_tolerates_rounding_and_nothing_else():
    golden = read(os.path.join(GOLDEN_DIR, "bergman_annulus-area.csv"))
    lines = golden.splitlines(keepends=True)
    label, k, value, ref, err, ok = lines[1].rstrip("\n").split(",")
    assert value != "0"

    def with_row(*cells):
        return "".join([lines[0], ",".join(cells) + "\n"] + lines[2:])

    rounded = repr(float(value) * (1 + 1e-13))
    assert csv_mismatches(golden, with_row(label, k, rounded, ref, err, ok)) == []
    moved = repr(float(value) * (1 + 1e-6))
    assert len(csv_mismatches(golden, with_row(label, k, moved, ref, err, ok))) == 1
    flipped = "0" if ok == "1" else "1"
    assert len(csv_mismatches(golden, with_row(label, k, value, ref, err, flipped))) == 1
    assert csv_mismatches(golden, golden + lines[1]) != []

    env = json.loads(read(os.path.join(GOLDEN_DIR, "envelope_third-quarter_envelope.json")))
    near = json.loads(json.dumps(env))
    near["grid"][0] *= 1 + 1e-13
    assert json_agrees(env, near)
    near["grid"][0] *= 1 + 1e-6
    assert not json_agrees(env, near)


def write_golden() -> None:
    """Rewrite tests/golden from a fresh run of every committed config."""
    with tempfile.TemporaryDirectory() as out:
        svgs = {}
        for name in run_configs(out):
            if name.endswith(".svg"):
                svgs[name] = sha256(os.path.join(out, name))
            else:
                shutil.copyfile(os.path.join(out, name), os.path.join(GOLDEN_DIR, name))
    with open(os.path.join(GOLDEN_DIR, "manifest.json"), "w") as fh:
        json.dump({"host": host(), "svg_sha256": svgs}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(write_golden())
