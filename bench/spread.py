"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py [--workloads W ...] [--runs 10] [--first-seed 1] [--trace 0]

Runs bench/run.py once per seed, one run at a time, for each workload, and
prints for every metric the median over the runs and the spread: the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median.  For end-to-end metrics the spread is set beside
the bound in BENCHMARK.json.  Results also go to .bench_out/spread-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"args": vars(args), "workloads": {}}
    ok = True
    for wl in args.workloads:
        values = {}
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed.append(time.perf_counter() - t0)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode or not result.get("correct"):
                ok = False
                print(f"{wl} seed={seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"== {wl}: {args.runs} runs, {min(elapsed):.1f}-{max(elapsed):.1f} s each")
        for name, vals in values.items():
            s = quartile_spread(vals) if len(vals) >= 2 else float("nan")
            bound = bounds.get(name) if not args.trace else None
            rows[name] = {"median": statistics.median(vals), "spread": s, "bound": bound,
                          "values": vals}
            note = "" if bound is None else f"  bound {bound:.2f}  {'ok' if s <= bound / 3 else 'WIDE'}"
            print(f"  {name:32s} median {statistics.median(vals):12.6g}  spread {s:7.4f}{note}")
        report["workloads"][wl] = {"elapsed_s": elapsed, "metrics": rows}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-t{args.trace}-{int(time.time())}.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
