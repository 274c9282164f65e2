import glob
import json
import os

import pytest

from envlab.errors import InputError
from envlab.experiments import ExperimentConfig

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
