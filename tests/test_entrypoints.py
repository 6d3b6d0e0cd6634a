import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def checkout_env():
    """The environment with this checkout's src first on PYTHONPATH, so the
    child interpreter imports z4rm without an install (pytest's own
    pythonpath setting does not reach child processes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "z4rm", "verify", "1", "2"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert "result=pass" in proc.stdout


def test_usage_exit_code_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "z4rm", "no-such-command"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
