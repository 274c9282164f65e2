import csv
import os

import pytest

from envlab.cli import main
from envlab.errors import InputError
from envlab.experiments import RUNNERS

SIMPLEX = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "volume_simplex.json")


def volume(tmp_path, *args):
    return main(["volume", "--config", SIMPLEX, "--out", str(tmp_path), *args])


def test_k_override_is_run(tmp_path, capsys):
    assert volume(tmp_path, "--k", "25,10") == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert [row[1] for row in rows] == ["10", "25"]


@pytest.mark.parametrize("ks, message", [
    ("25,10,10", "strictly increasing"),
    ("10,10,0", "must be positive"),
    ("10,1.5", "'1.5' is not an integer"),
    ("", "'' is not an integer"),
])
def test_k_override_is_checked(tmp_path, ks, message):
    with pytest.raises(InputError, match=message):
        volume(tmp_path, "--k", ks)
    assert not any(tmp_path.iterdir())


def test_one_subcommand_per_runner(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    assert "{" + ",".join(RUNNERS) + "}" in usage
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2


def test_empty_out_is_refused(tmp_path, monkeypatch):
    # an unset shell variable in --out "$DIR" must not write into ./out
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InputError, match="'out' must be a non-empty path"):
        main(["volume", "--config", SIMPLEX, "--out", ""])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [[], ["--k", "10"]])
def test_config_is_required(tmp_path, args):
    with pytest.raises(SystemExit) as exc:
        main(["volume", *args, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_fixture_override_is_gone(tmp_path):
    # a fixture's bounds live in its own config; none is swapped under another's
    with pytest.raises(SystemExit) as exc:
        volume(tmp_path, "--fixture", "half-square")
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())
