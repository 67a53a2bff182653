"""The example scripts run each stage through `ncsynth.cli.main`, so a
failing stage ends them with the `ncsynth` exit code and message."""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from ncsynth import cli

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _out_of_memory(cfg, out_dir):
    raise MemoryError


@pytest.mark.parametrize("script", ["run_robot.py", "run_two_robots.py"])
def test_out_of_memory_exits_6(script, tmp_path, monkeypatch, capsys):
    temp = tmp_path / "temp"
    temp.mkdir()
    out = tmp_path / "out"
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(cli, "cmd_abstract", _out_of_memory)
    monkeypatch.setattr(sys, "argv", [script, "--out", str(out)])
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends src
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 6
    err = capsys.readouterr().err
    assert err.startswith("error: abstract stage: out of memory")
    assert "Traceback" not in err
    assert list(temp.iterdir()) == []
    if script == "run_two_robots.py":
        assert (out / "config.json").exists()
