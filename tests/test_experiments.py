import csv
import glob
import io
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


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("first"))


class TestCommittedConfigs:
    def test_run_clean_and_deterministic(self, tmp_path, first_run):
        assert len(FAST_CONFIGS) == 10
        csvs = [name for name in first_run if name.endswith(".csv")]
        assert len(csvs) == len(FAST_CONFIGS)
        for name in csvs:
            assert first_run[name].startswith((CSV_HEADER + "\n").encode()), name
        assert run_all(tmp_path / "second") == first_run

    def test_csvs_parse_to_six_fields(self, first_run):
        header = CSV_HEADER.split(",")
        for name, data in first_run.items():
            if name.endswith(".csv"):
                rows = list(csv.reader(io.StringIO(data.decode())))
                assert rows[0] == header, name
                assert len(rows) > 1, name
                assert all(len(row) == len(header) for row in rows), name
