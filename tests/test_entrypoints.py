import os
import subprocess
import sys
from pathlib import Path

import pytest

from z4rm.cli import main
from z4rm.codes import lrm, rm_binary
from z4rm.fileformat import render_code

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


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("command", ["enumerate", "rm", "build"])
def test_closed_output_pipe_exits_141_without_a_traceback(tmp_path, command, buffered):
    # each output outgrows a pipe buffer, so the reader's leaving after one
    # line breaks the pipe under a later write: LRM(2,5)'s 1.1 MB of text
    # comes in blocks, RM(1,14)'s 246 kB and LRM(9,10)'s 263 kB code file in
    # one write each, which an unbuffered stdout's file takes only in part
    path = tmp_path / "lrm25.z4code"
    path.write_text(render_code(lrm(2, 5)), newline="")
    argv, first_line = {
        "enumerate": (["enumerate", str(path)], "0" * 16),
        "rm": (["rm", "1", "14"], rm_binary(1, 14)[0].digits()),
        "build": (["build", "9", "10"], render_code(lrm(9, 10)).split("\n", 1)[0]),
    }[command]
    env = checkout_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "z4rm", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), first, err) == (141, first_line.encode() + b"\n", b"")


def test_pipe_closed_before_the_last_flush_exits_141(monkeypatch):
    # a short output waits in stdout's buffer: main flushes it, meets the
    # closed pipe, and points the descriptor at os.devnull, so that the
    # flush at exit, which finds the same bytes still buffered, passes.
    # The descriptor it opened on os.devnull is closed again: the lowest
    # free one before the call is still free after it.
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="ascii") as out:
        monkeypatch.setattr(sys, "stdout", out)
        free = os.open(os.devnull, os.O_RDONLY)
        os.close(free)
        assert main(["rm", "1", "3"]) == 141
        out.flush()
        probe = os.open(os.devnull, os.O_RDONLY)
        os.close(probe)
        assert probe == free
