"""envlab benchmark: run a workload, check its outputs, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--record FILE]

Every operation of the workload (a config run, or a sampled sweep k)
runs in a fresh, single-threaded worker process with BLAS threads pinned
to 1, as one `envlab <exp> --config` call would.  Workers run one after
another with no warm-up.  The first round runs every operation once;
later rounds repeat, shortest first, each operation whose typical time
still fits in --seconds.

Other tenants of a shared host change its speed by tens of percent over
seconds to minutes.  Each worker therefore times slices of a fixed
reference computation before, during and after its operation
(worker._reference_slice), and every time below is scaled to the
reference speed: multiplied by the worker's mean speed over those
timings, where a slice taking REFERENCE_NOMINAL_S is speed 1.  The raw
times are printed on standard error too.

--trace 0 prints the end-to-end metrics:
  setup_s      median over all workers of process start to configs parsed;
  wall_s       sum over operations of the median sample's wall time;
  cpu_s        the same for user plus system CPU time;
  peak_rss_mb  largest over operations of the median ru_maxrss.

--trace 1 runs a traced worker beside each untraced one and prints the
per-layer metrics of BENCHMARK.json from the traced ones, summed over
operations, plus the tracing overhead (traced minus untraced wall_s).
A traced function the program no longer defines is left out, so its
metrics show as missing rather than as zero.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a readable summary goes to
standard error.  An operation that raises counts as failed and the run
goes on.  The outputs are correct when every sample of an operation
wrote the same CSV digests (traced and untraced alike), the digests
equal those in baseline.json whenever src/ is the code recorded there
and the host is alike (host_key), every CSV starts with the report
header, and no config reports more gate failures than at the seed
commit (workloads.KNOWN_GATE_FAILURES).

--workload all runs every workload; --record FILE also runs the traced
variant of each and writes both, with the machine, versions and a
digest of src/, to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    KNOWN_GATE_FAILURES, SEEDED, WORKLOADS, operations, split_operation)

WORKER = os.path.join(HERE, "worker.py")
BASELINE = os.path.join(HERE, "baseline.json")
# seconds of one worker._reference_slice() at the usual speed of the
# two-core host the baseline was recorded on; only ratios of scaled
# times matter
REFERENCE_NOMINAL_S = 0.008
# every run must end within 180 s; leave room for the summary
DEADLINE_S = 170.0
# setup_s is the median of at least this many workers; a run that has
# fewer after its operations tops up with set-up-only workers (about
# 0.5 s each)
MIN_SETUP_SAMPLES = 10
THREAD_PINS = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class WorkerError(Exception):
    """A worker that ended without a result."""


def _spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _check_checkout(root):
    for rel in ("src/envlab/__init__.py", "configs", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, rel)):
            raise SystemExit(f"perfbench: {rel} not found under {root}; "
                             "run from the root of an envlab checkout")


def _run_worker(root, workload, op, tmp, flags, timeout):
    out = os.path.join(tmp, "out")
    os.makedirs(out)
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--root", root, "--workload", workload,
           "--op", op, "--out", out, "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, TMPDIR=tmp, **THREAD_PINS),
                              cwd=root, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{op}: worker timed out after {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{op}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(root, workload, seed, seconds, trace):
    """Sample the workload's operations for about `seconds`.

    Returns (result line, details).
    """
    start = time.monotonic()
    ops = operations(root, workload, seed)
    kinds = ("plain", "traced") if trace else ("plain",)
    samples = {(op, kind): [] for op in ops for kind in kinds}
    durations = {key: [] for key in samples}
    setup, problems, lost = [], [], 0
    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        todo = list(samples)
        while todo:
            ran = []
            for key in todo:
                elapsed = time.monotonic() - start
                if durations[key] and elapsed + statistics.median(durations[key]) > seconds:
                    continue
                op, kind = key
                flags = ("--trace",) if kind == "traced" else ()
                t = time.monotonic()
                try:
                    res = _run_worker(root, workload, op, tmp, flags, DEADLINE_S - elapsed)
                except WorkerError as exc:
                    problems.append(str(exc))
                    lost += 1
                    continue
                durations[key].append(time.monotonic() - t)
                samples[key].append(res)
                setup.append(res)
                ran.append(key)
            todo = sorted(ran, key=lambda key: statistics.median(durations[key]))
        while len(setup) < MIN_SETUP_SAMPLES and not problems:
            op = ops[len(setup) % len(ops)]
            elapsed = time.monotonic() - start
            try:
                res = _run_worker(root, workload, op, tmp, ("--setup-only",),
                                  DEADLINE_S - elapsed)
            except WorkerError as exc:
                problems.append(str(exc))
                break
            setup.append(res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    return _evaluate(root, workload, ops, samples, setup, problems, lost, trace)


def _speed(r, clock="wall"):
    """A worker's mean speed over its reference timings, relative to nominal."""
    times = r["ref_cpu_s"] if clock == "cpu" else r["ref_wall_s"]
    return statistics.fmean(REFERENCE_NOMINAL_S / t for t in times)


def _scaled(r, field):
    """A worker's time `field` in seconds at the reference speed."""
    return r[field] * _speed(r, "cpu" if field == "cpu_s" else "wall")


def _quartiles(values):
    """(q1, median, q3, n) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, len(values)


def src_digest(root):
    """sha256 over the paths and contents of the .py files under root/src."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()


def host_key():
    """What floating-point results may depend on besides src/: Python, numpy,
    the machine and its CPU flags (numpy picks SIMD kernels by them)."""
    import numpy

    flags = ""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((line for line in fh if line.startswith("flags")), "")
    except OSError:
        pass
    key = (platform.python_version(), numpy.__version__, platform.machine(), flags)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _recorded_digests(root, workload):
    """{operation: CSV digests} from baseline.json, if it was recorded from
    this src/ on a like host."""
    try:
        with open(BASELINE) as fh:
            base = json.load(fh)
    except (OSError, ValueError):
        return {}
    env = base.get("environment", {})
    if (env.get("src_sha256"), env.get("host_key")) != (src_digest(root), host_key()):
        return {}
    ops = base["workloads"].get(workload, {}).get("plain", {}).get("details", {})
    return {op: st["plain"]["digests"] for op, st in ops.get("operations", {}).items()
            if st["plain"]["digests"]}


def _evaluate(root, workload, ops, samples, setup, problems, lost, trace):
    every = [r for results in samples.values() for r in results]
    attempted = len(every) + lost
    failed = sum(r["error"] is not None for r in every) + lost
    good = {key: [r for r in results if r["error"] is None]
            for key, results in samples.items()}
    recorded = _recorded_digests(root, workload)

    for op in ops:
        allowed = KNOWN_GATE_FAILURES.get(split_operation(op)[0], 0)
        results = [r for (o, _), rs in good.items() if o == op for r in rs]
        if not good[(op, "plain")]:
            problems.append(f"{op}: no untraced sample completed")
        for r in results:
            if r["invalid"]:
                problems.append(f"{op}: {r['invalid']}")
            if r["digests"] != results[0]["digests"]:
                problems.append(f"{op}: outputs differ between samples")
            if r["failures"] > allowed:
                problems.append(f"{op}: {r['failures']} gate failures, at most {allowed} expected")
        if results and op in recorded and results[0]["digests"] != recorded[op]:
            problems.append(f"{op}: outputs differ from baseline.json, recorded at this src/")

    def typical(field):
        return [statistics.median(_scaled(r, field) if field.endswith("_s") else r[field]
                                  for r in good[(op, "plain")]) for op in ops]

    values = {}
    if setup:
        values["setup_s"] = statistics.median(_scaled(r, "setup_s") for r in setup)
    if all(good[(op, "plain")] for op in ops):
        values["wall_s"] = sum(typical("wall_s"))
        values["cpu_s"] = sum(typical("cpu_s"))
        values["peak_rss_mb"] = max(typical("peak_rss_mb"))

    spec = _spec(root)
    missing = sorted({name for r in every for name in r.get("missing_spans", [])})
    if trace:
        metrics = _layer_metrics(spec["per_layer"], ops, good, samples, missing)
        if not metrics:
            problems.append("no sample of every operation, traced and untraced")
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"] if m["name"] in values}
        if len(metrics) < len(spec["end_to_end"]):
            problems.append("an end-to-end metric has no samples")

    per_op = {}
    for (op, kind), rs in good.items():
        per_op.setdefault(op, {})[kind] = {
            "wall_s": _quartiles([_scaled(r, "wall_s") for r in rs]) if rs else None,
            "raw_wall_s": _quartiles([r["wall_s"] for r in rs]) if rs else None,
            "gate_failures": rs[0]["failures"] if rs else None,
            "digests": rs[0]["digests"] if rs else None,
        }
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    details = {"workload": workload, "operations": per_op, "values": values,
               "setup_s": _quartiles([_scaled(r, "setup_s") for r in setup]) if setup else None,
               "raw_setup_s": _quartiles([r["setup_s"] for r in setup]) if setup else None,
               "digests_checked_against_baseline": sorted(set(recorded) & set(ops)),
               "missing_spans": missing, "problems": problems}
    return line, details


def _layer_metrics(per_layer, ops, good, samples, missing=()):
    """Per-layer metrics summed over operations, each at its median traced sample.

    Times are scaled to the reference speed.  experiments.failed_ratio is
    the share of operations any of whose samples raised or reported a
    gate failure.  Metrics of spans in `missing` are left out.
    """
    if not all(good[(op, kind)] for op in ops for kind in ("plain", "traced")):
        return {}
    chosen = [statistics.median_low(
        [(_scaled(r, "wall_s"), i) for i, r in enumerate(good[(op, "traced")])])
        for op in ops]
    best = [good[(op, "traced")][i] for op, (_, i) in zip(ops, chosen)]
    scale = [_speed(r) for r in best]
    plain_wall = sum(statistics.median(_scaled(r, "wall_s") for r in good[(op, "plain")])
                     for op in ops)

    def layer(span, field):
        return sum(r["layers"].get(span, {}).get(field, 0) * (f if field != "calls" else 1)
                   for r, f in zip(best, scale))

    def count(name):
        return sum(r["counts"].get(name, 0) for r in best)

    special = {
        "experiments.failed_gates": lambda: sum(r["failures"] for r in best),
        "experiments.failed_ratio": lambda: sum(
            any(r["error"] is not None or r["failures"] > 0
                for kind in ("plain", "traced") for r in samples[(op, kind)])
            for op in ops) / len(ops),
        "trace.overhead_s": lambda: sum(w for w, _ in chosen) - plain_wall,
        "trace.spans": lambda: sum(r["spans"] for r in best),
        "quadrature.refine_breakpoints.repeat_ratio": lambda: (
            count("quadrature.refine_breakpoints.repeats")
            / max(1, layer("quadrature.refine_breakpoints", "calls"))),
    }
    out = {}
    for m in per_layer:
        name = m["name"]
        span, field = name.rsplit(".", 1)
        if span in missing:
            continue
        if name in special:
            value = special[name]()
        elif field in ("self_s", "total_s", "calls"):
            value = layer(span, field)
        else:
            value = count(name)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def _summary(line, details, file=sys.stderr):
    print(f"== {details['workload']}: attempted {line['attempted']}, "
          f"failed {line['failed']}, correct {line['correct']}", file=file)
    for op, kinds in details["operations"].items():
        for kind, st in kinds.items():
            if st["wall_s"] is None:
                print(f"   {op:<36} {kind:<6} no sample", file=file)
                continue
            q1, med, q3, n = st["wall_s"]
            print(f"   {op:<36} {kind:<6} wall median {med:8.4f} s q1 {q1:8.4f} q3 {q3:8.4f}"
                  f" (raw median {st['raw_wall_s'][1]:8.4f}) n={n}; "
                  f"gate failures {st['gate_failures']}", file=file)
    if details["setup_s"]:
        q1, med, q3, n = details["setup_s"]
        print(f"   setup: median {med:.4f} s q1 {q1:.4f} q3 {q3:.4f} "
              f"(raw median {details['raw_setup_s'][1]:.4f}) n={n}", file=file)
    for name, m in line["metrics"].items():
        if m["value"]:
            print(f"   {name:<48} {m['value']:14.6g} {m['unit']}", file=file)
    if details["missing_spans"]:
        print(f"   not in this envlab, left out: {details['missing_spans']}", file=file)
    for problem in details["problems"]:
        print(f"   PROBLEM: {problem}", file=file)


def _environment(root):
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_revision": rev, "src_sha256": src_digest(root),
            "host_key": host_key(),
            "thread_pins": THREAD_PINS, "reference_nominal_s": REFERENCE_NOMINAL_S}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="with --workload all: write plain and traced results here")
    args = ap.parse_args(argv)
    root = os.getcwd()
    _check_checkout(root)
    seconds = args.seconds if args.seconds is not None else _spec(root)["run_seconds"]

    if args.workload != "all":
        line, details = measure(root, args.workload, args.seed, seconds, bool(args.trace))
        _summary(line, details)
        print(json.dumps(line))
        return 0

    traces = (False, True) if args.record else (bool(args.trace),)
    record = {"environment": _environment(root), "seed": args.seed,
              "seconds": seconds, "seeded_workloads": list(SEEDED), "workloads": {}}
    for workload in WORKLOADS:
        for trace in traces:
            line, details = measure(root, workload, args.seed, seconds, trace)
            _summary(line, details)
            record["workloads"].setdefault(workload, {})[
                "traced" if trace else "plain"] = {"result": line, "details": details}
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({w: {k: v["result"] for k, v in r.items()}
                      for w, r in record["workloads"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
