"""Run every narrative script under demos/ as a user would: each must exit 0
without a traceback."""

import pathlib
import subprocess
import sys

import pytest

from cli_runner import child_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
