"""Smoke tests: the example scripts run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_protocol_demo():
    result = run_script("protocol_demo.py")
    assert result.returncode == 0, result.stderr
    assert "audit passed" in result.stdout


def test_capacity_gap_survey():
    result = run_script("capacity_gap_survey.py", "--models", "5",
                        "--terminals", "4")
    assert result.returncode == 0, result.stderr
    assert "case" in result.stdout.splitlines()[0]
