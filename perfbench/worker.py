"""One measured operation of a workload, in a fresh process.

run.py starts this script once per sample and reads the JSON object it
prints as its last line.  The process imports envlab from the checkout's
`src/` and parses the operation's config; that span is `setup_s`, counted
from the parent's clock reading just before the process was started.
It then runs the config through `envlab.experiments.run_experiment`,
writing under --out, or for a sampled sweep k the check that
`run_approx`'s sweep makes at that k.

Beside the operation the worker times slices of a fixed reference
computation (see END_SLICES and SpeedProbe).  Other tenants of a shared
host change its speed by tens of percent over seconds to minutes;
run.py scales each time by the speed the reference measured.

Usage: python3 perfbench/worker.py --root DIR --workload NAME --op OP
       --out DIR --t0 MONOTONIC [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

from tracing import Tracer, install, summarize
from workloads import SEEDED, WORKLOADS, split_operation


# The reference is a slice of fixed work, timed END_SLICES times in a row
# just before and just after the operation, and once per PROBE_INTERVAL_S
# of wall time while an untraced operation runs (from a SIGALRM handler,
# between two bytecodes of the operation).  Probe time is taken out of the
# operation's time.  Traced operations are not probed, so that no probe
# falls inside a span.
END_SLICES = 10
PROBE_INTERVAL_S = 0.25


def _reference_slice():
    """A fixed mix of the work envlab's layers do: numpy ufuncs over a small
    array, a pure-Python float loop, exact rational sums and dict updates."""
    x = np.linspace(-4.0, 4.0, 4096)
    s = 0.0
    for _ in range(60):
        s += float(np.sum(np.log1p(np.exp(-np.abs(x)))))
    for i in range(20000):
        s += i * 0.5
    q = Fraction(0)
    for i in range(1, 400):
        q += Fraction(1, i)
    counts = {}
    for i in range(10000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return s, q, len(counts)


def _time_slices(n):
    """(wall, cpu) seconds per slice over n reference slices."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(n):
        _reference_slice()
    return (time.perf_counter() - wall0) / n, (time.process_time() - cpu0) / n


class SpeedProbe:
    """Times one reference slice every PROBE_INTERVAL_S while active."""

    def __init__(self):
        self.wall, self.cpu = [], []

    def _probe(self, signum, frame):
        wall, cpu = _time_slices(1)
        self.wall.append(wall)
        self.cpu.append(cpu)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _load(root, workload, op):
    """Import envlab from root/src and parse the operation's config."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    experiments = importlib.import_module("envlab.experiments")
    if not os.path.abspath(experiments.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"envlab imported from {experiments.__file__}, not {src}")
    name, k = split_operation(op)
    if name not in WORKLOADS[workload]:
        raise ValueError(f"{op!r} is not an operation of {workload}")
    cfg = experiments.ExperimentConfig.from_json(
        os.path.join(root, "configs", f"{name}.json"))
    if workload in SEEDED:
        cfg.sweep_max = 0   # run.py samples the sweep as separate operations
    return experiments, cfg, k


def _sweep_step(experiments, cfg, k):
    """run_approx's sweep body at one k: (failures, digest of the approximant)."""
    sections = importlib.import_module("envlab.sections")
    u = experiments.radial_fixture(cfg.fixture)
    ap = sections.bergman_approximant(k, u)
    failures = int(abs(ap.s_minus - u.s_minus) > Fraction(1, k))
    h = hashlib.sha256(f"{k},{ap.s_minus},{ap.s_plus}".encode())
    h.update(ap.grid.tobytes())
    h.update(ap.values.tobytes())
    return failures, {"approximant": h.hexdigest()}


def _csv_digests(out, header):
    """({file: sha256} of the CSVs under out, problem or None)."""
    digests, problem = {}, None
    for fname in sorted(os.listdir(out)):
        if fname.endswith(".csv"):
            with open(os.path.join(out, fname), "rb") as fh:
                data = fh.read()
            if not data.startswith((header + "\n").encode()):
                problem = f"{fname} does not start with the CSV header"
            digests[fname] = hashlib.sha256(data).hexdigest()
    return digests, problem or (None if digests else "no CSV written")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--op", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    experiments, cfg, k = _load(args.root, args.workload, args.op)
    result = {"setup_s": time.monotonic() - args.t0}
    before = _time_slices(END_SLICES)
    if args.setup_only:
        result["ref_wall_s"], result["ref_cpu_s"] = [before[0]], [before[1]]
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.request = args.op
        _, result["missing_spans"] = install(tracer)
    result.update(error=None, failures=0, digests={}, invalid=None)
    probe = SpeedProbe()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with probe if tracer is None else contextlib.nullcontext():
            if k is None:
                _, failures = experiments.run_experiment(cfg, args.out)
                result["failures"] = len(failures)
            else:
                result["failures"], result["digests"] = _sweep_step(experiments, cfg, k)
    except Exception as exc:
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - wall0 - sum(probe.wall)
    result["cpu_s"] = time.process_time() - cpu0 - sum(probe.cpu)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = _time_slices(END_SLICES)
    result["ref_wall_s"] = [before[0], *probe.wall, after[0]]
    result["ref_cpu_s"] = [before[1], *probe.cpu, after[1]]

    if k is None and result["error"] is None:
        header = importlib.import_module("envlab.report").CSV_HEADER
        result["digests"], result["invalid"] = _csv_digests(args.out, header)
    if tracer is not None:
        result["layers"] = summarize(tracer.spans)
        result["counts"] = tracer.counts
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
