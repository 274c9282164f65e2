import glob
import json
import os

import pytest

from envlab.errors import InputError
from envlab.experiments import ExperimentConfig, run_experiment
from envlab.report import CSV_HEADER

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def load(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return ExperimentConfig.from_json(str(path))


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

    def test_missing_tolerances_keep_their_defaults(self, tmp_path):
        cfg = load(tmp_path, bergman_config())
        assert cfg.tolerances == {}

    def test_unknown_experiment_is_rejected(self, tmp_path):
        for name in ("selftest", "volumes"):
            payload = {"experiment": name, "fixture": "simplex", "k": [10]}
            with pytest.raises(InputError, match=repr(name)):
                load(tmp_path, payload)


class TestRunVolume:
    def test_toric_shifts_are_rejected(self, tmp_path):
        cfg = ExperimentConfig("volume", "simplex", k=[10], shifts=[-1, 1])
        with pytest.raises(InputError, match="'shifts'"):
            run_experiment(cfg, str(tmp_path))
        assert not any(tmp_path.iterdir())


# approx_third_quarter is left out: its 1..500 sweep of quadrature norms
# alone takes about 20 s, until closed-form norms replace the quadrature
FAST_CONFIGS = sorted(
    path for path in glob.glob(os.path.join(CONFIG_DIR, "*.json"))
    if os.path.basename(path) != "approx_third_quarter.json")


def run_all(out):
    for path in FAST_CONFIGS:
        rows, failures = run_experiment(ExperimentConfig.from_json(path), str(out))
        assert rows, path
        assert failures == [], path
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestCommittedConfigs:
    def test_run_clean_and_deterministic(self, tmp_path):
        assert len(FAST_CONFIGS) == 10
        first = run_all(tmp_path / "first")
        csvs = [name for name in first if name.endswith(".csv")]
        assert len(csvs) == len(FAST_CONFIGS)
        for name in csvs:
            assert first[name].startswith((CSV_HEADER + "\n").encode()), name
        assert run_all(tmp_path / "second") == first
