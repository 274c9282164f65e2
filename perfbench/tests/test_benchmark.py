import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
import run
from run import REFERENCE_NOMINAL_S, _layer_metrics, host_key, src_digest
from tracing import COUNTER_NAMES, SPAN_NAMES
from workloads import (SWEEP_BINS, WORKLOADS, operations, split_operation,
                       stratified_sample)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_stratified_sample_is_reproducible():
    assert stratified_sample(7, 500) == stratified_sample(7, 500)
    assert stratified_sample(7, 500) != stratified_sample(8, 500)


def test_stratified_sample_takes_one_k_per_bin_with_equal_total():
    width = 500 // SWEEP_BINS
    totals = set()
    for seed in range(50):
        ks = stratified_sample(seed, 500)
        assert len(ks) == SWEEP_BINS
        for i, k in enumerate(ks):
            assert 1 + i * width <= k <= (i + 1) * width
        totals.add(sum(ks))
    assert len(totals) == 1


def test_only_the_seeded_workload_depends_on_the_seed():
    for workload in WORKLOADS:
        a, b = operations(ROOT, workload, 1), operations(ROOT, workload, 2)
        assert [split_operation(op)[0] for op in a][:len(WORKLOADS[workload])] == \
            list(WORKLOADS[workload])
        assert (a != b) == (workload == "approx-sweep")
    ops = operations(ROOT, "approx-sweep", 3)
    ks = [split_operation(op)[1] for op in ops if split_operation(op)[1] is not None]
    assert ks == stratified_sample(3, 500)


def test_workloads_match_the_spec_and_the_configs():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for configs in WORKLOADS.values():
        for name in configs:
            assert os.path.isfile(os.path.join(ROOT, "configs", f"{name}.json"))


def _sample(**fields):
    sample = {"layers": {}, "counts": dict.fromkeys(COUNTER_NAMES, 0), "spans": 0,
              "wall_s": 1.0, "ref_wall_s": [REFERENCE_NOMINAL_S], "error": None,
              "failures": 0}
    sample.update(fields)
    return sample


def test_every_span_is_reported_and_every_layer_metric_resolves():
    per_layer = _spec()["per_layer"]
    names = {m["name"] for m in per_layer}
    for span in SPAN_NAMES:
        assert {f"{span}.self_s", f"{span}.calls"} <= names
    good = {("op", "plain"): [_sample()], ("op", "traced"): [_sample()]}
    metrics = _layer_metrics(per_layer, ["op"], good, good)
    assert set(metrics) == names
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_layer_times_are_scaled_to_the_reference_speed():
    per_layer = [{"name": "m.f.self_s", "unit": "s"}, {"name": "m.f.calls", "unit": "count"}]
    slow = _sample(layers={"m.f": {"self_s": 3.0, "total_s": 3.0, "calls": 5}},
                   ref_wall_s=[2 * REFERENCE_NOMINAL_S])
    good = {("op", "plain"): [_sample()], ("op", "traced"): [slow]}
    metrics = _layer_metrics(per_layer, ["op"], good, good)
    assert metrics["m.f.self_s"]["value"] == pytest.approx(1.5)
    assert metrics["m.f.calls"]["value"] == 5


def test_failed_ratio_counts_operations_not_samples():
    per_layer = [{"name": "experiments.failed_ratio", "unit": "ratio"}]
    ops = ["a", "b", "c", "d"]
    samples = {(op, kind): [_sample() for _ in range(3)]
               for op in ops for kind in ("plain", "traced")}
    samples[("a", "plain")][1]["failures"] = 500
    samples[("b", "traced")].append(_sample(error="ValueError: boom"))
    good = {key: [r for r in rs if r["error"] is None] for key, rs in samples.items()}
    metrics = _layer_metrics(per_layer, ops, good, samples)
    assert metrics["experiments.failed_ratio"]["value"] == 2 / 4


def test_metrics_of_missing_spans_are_left_out():
    per_layer = _spec()["per_layer"]
    good = {("op", "plain"): [_sample()], ("op", "traced"): [_sample()]}
    metrics = _layer_metrics(per_layer, ["op"], good, good,
                             missing=["quadrature.refine_breakpoints"])
    assert not any(name.startswith("quadrature.refine_breakpoints.") for name in metrics)
    assert "quadrature.gauss_cells.self_s" in metrics


def test_src_digest_follows_the_code(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n")
    first = src_digest(str(tmp_path))
    assert src_digest(str(tmp_path)) == first
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 2\n")
    assert src_digest(str(tmp_path)) != first


def test_baseline_digests_apply_only_to_the_recorded_code_and_host(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    ops = {"cfg": {"plain": {"digests": {"cfg.csv": "abc"}}}}
    baseline = tmp_path / "baseline.json"
    monkeypatch.setattr(run, "BASELINE", str(baseline))

    def record(src_sha, host):
        baseline.write_text(json.dumps({
            "environment": {"src_sha256": src_sha, "host_key": host},
            "workloads": {"w": {"plain": {"details": {"operations": ops}}}}}))
        return run._recorded_digests(str(tmp_path), "w")

    assert record(src_digest(str(tmp_path)), host_key()) == {"cfg": {"cfg.csv": "abc"}}
    assert record("other", host_key()) == {}
    assert record(src_digest(str(tmp_path)), "other") == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-counts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
