"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs each workload at a tiny size through the same setup, pass loop and
   checks as run.py, and requires no misses.
2. Makes one expected value wrong on purpose (the claimed minimum distance
   of one order, off by one) and requires each workload to count misses.
3. Runs run.py in a directory holding only BENCHMARK.json and bench/, and
   requires a non-zero exit without a result line.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import ref
import run

WRONG_D_ORDER = {"family": (1, 3), "sweep": (2, 4), "cli-mix": (1, 3)}


def run_tiny(name, seed=7):
    session = run.Session(name, seed, str(run.OUT / f"selftest-{os.getpid()}"), tiny=True)
    try:
        run.run_passes(session, 0, min_ops=0)
    finally:
        session.cleanup()
    return session.tally


def with_wrong_d(order, fn):
    """Run fn while the reference claims d + 1 for `order`."""
    true_params = ref.theorem_params

    def wrong(r, m):
        n, k, d = true_params(r, m)
        return (n, k, d + 1) if (r, m) == order else (n, k, d)

    ref.theorem_params = wrong
    try:
        return fn()
    finally:
        ref.theorem_params = true_params


def bare_checkout_fails():
    bare = run.OUT / f"selftest-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "family", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main():
    run.OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    ok = True
    for name in run.WORKLOADS:
        tally = run_tiny(name)
        good = tally.failed == 0 and tally.attempted > 0
        print(f"{name}: tiny run attempted={tally.attempted} failed={tally.failed} "
              f"{'ok' if good else 'FAIL ' + '; '.join(tally.misses)}")
        wrong = with_wrong_d(WRONG_D_ORDER[name], lambda: run_tiny(name))
        caught = wrong.failed > 0
        print(f"{name}: wrong claimed d at {WRONG_D_ORDER[name]} -> failed={wrong.failed} "
              f"{'ok' if caught else 'FAIL (miss not counted)'}")
        ok = ok and good and caught
    bare = bare_checkout_fails()
    print(f"bare checkout without src/: {'ok (non-zero exit)' if bare else 'FAIL'}")
    ok = ok and bare
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
