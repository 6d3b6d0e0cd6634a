"""Benchmark driver for z4rm.

    python3 bench/run.py --workload {family,sweep,cli-mix} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; z4rm is imported from ./src, so no
install step is needed.  One process runs one workload closed-loop, one op at
a time, checking every answer against bench/ref.py.  Before every pass over
the op list it sets up afresh (import, inputs, warm-up), so set-up and op
times are both sampled across the whole run, and scaled to one CPU speed
by a probe timed between the ops (see Clock).  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(a separate traced run that also states its tracing overhead).  A full
record (environment, raw op times, probes, setup rounds, misses) is written to
.bench_out/.  The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100  # so that the p90 latency has at least ten samples above it
WORKLOADS = ("family", "sweep", "cli-mix")
Z4RM_MODULES = ("z4rm", "z4rm.cli", "z4rm._engine", "z4rm.fileformat", "z4rm.reports")
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 0.3
# A fixed reference close to the probe's best time (1.2-1.4 ms) on the 2-vCPU
# Xeon KVM guest of bench/STEADINESS.md in its fast state; scaled times read as
# seconds on a CPU where the probe takes this long.
PROBE_REF_S = 1.5e-3


def nproc():
    return len(os.sched_getaffinity(0))


def import_z4rm():
    """Fresh import of z4rm from ./src (earlier imports are dropped first)."""
    for name in [n for n in sys.modules if n == "z4rm" or n.startswith("z4rm.")]:
        del sys.modules[name]
    for name in Z4RM_MODULES:
        importlib.import_module(name)
    lib = sys.modules["z4rm"]
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"z4rm was imported from {lib.__file__}, not from {SRC}")
    return lib


def build(lib, name, seed, workdir, tiny=False):
    # imported late, so that the first set-up round's import of z4rm is cold
    # and pays for numpy too
    import workloads

    if name == "family":
        return workloads.family(lib, seed, tiny)
    if name == "sweep":
        return workloads.sweep(lib, seed, nproc(), workdir, tiny)
    return workloads.cli_mix(lib, seed, workdir, tiny)


class Tally:
    """Attempted ops and misses, with the first few miss messages kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def check(self, op, out, err):
        from workloads import SKIPPED

        self.attempted += 1
        try:
            verdict = err or op.check(out)
        except Exception as e:  # a malformed answer is a miss, not a crash
            verdict = f"check raised {type(e).__name__}: {e}"
        if verdict is None or verdict == SKIPPED:
            return verdict
        self.failed += 1
        if len(self.misses) < 20:
            self.misses.append(f"{op.kind}: {verdict}")
        return verdict


def run_op(op):
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as e:
        out, err = None, f"raised {type(e).__name__}: {e}"
    return time.perf_counter() - t0, out, err


class Clock:
    """A short pure-Python probe, timed between ops at least every
    PROBE_EVERY_S.  On a shared virtual machine the CPU can run the same code
    at speeds that differ by up to 1.8 times, switching every few seconds
    and drifting over minutes, in every process at once.  Each sample is
    scaled by the probe's speed around it, so that a run reports the
    program's cost at one fixed CPU speed, whatever mix of states it met."""

    def __init__(self):
        self.times, self.probes = [], []  # when each probe ended; its best time

    def tick(self):
        if self.times and time.perf_counter() - self.times[-1] < PROBE_EVERY_S:
            return
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            s = 0
            for i in range(20000):
                s += i * i % 7
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.probes.append(best)

    def scaled(self, start, seconds):
        """`seconds` from `start`, at the speed where the probe takes
        PROBE_REF_S: scaled by the median probe within PROBE_WINDOW_S of the
        interval, or by the nearest probe if none is that close."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + PROBE_WINDOW_S)
        near = self.probes[lo:hi] or [self.probes[min(lo, len(self.probes) - 1)]]
        return seconds * PROBE_REF_S / statistics.median(near)


class Session:
    """One workload in one process: its set-up rounds and the tally of checks."""

    def __init__(self, name, seed, workdir, tiny=False):
        self.name, self.seed, self.workdir, self.tiny = name, seed, workdir, tiny
        self.tally = Tally()
        self.setup_starts, self.setup_times, self.import_times = [], [], []
        self.clock = Clock()
        self.wl = self.lib = None

    def setup_round(self):
        """Import z4rm afresh, generate the inputs and warm up, timed as one."""
        self.clock.tick()
        t0 = time.perf_counter()
        self.setup_starts.append(t0)
        lib = import_z4rm()
        self.import_times.append(time.perf_counter() - t0)
        wl = build(lib, self.name, self.seed, self.workdir, self.tiny)
        results = [(op, *run_op(op)[1:]) for op in wl.warmup]
        self.setup_times.append(time.perf_counter() - t0)
        for op, out, err in results:
            self.tally.check(op, out, err)
        self.wl, self.lib = wl, lib
        return wl

    def cleanup(self):
        if self.wl is not None:
            self.wl.cleanup()


def run_passes(session, seconds, tracer=None, min_ops=MIN_OPS):
    """Set up, run the op list, and again, for `seconds` (at least one pass
    and at least min_ops ops).  A set-up round before every pass spreads the
    set-up samples over the run like the op samples.  Returns each op's times
    (one per pass), each pass's total time, the orders passed per pass and
    each op's start times."""
    op_times, op_starts, pass_times, orders_passed = None, None, [], []
    deadline = time.perf_counter() + seconds
    while True:
        wl = session.setup_round()
        op_times = op_times or [[] for _ in wl.ops]
        op_starts = op_starts or [[] for _ in wl.ops]
        order_ok = {}
        for i, op in enumerate(wl.ops):
            session.clock.tick()
            op_starts[i].append(time.perf_counter())
            if tracer is None:
                dt, out, err = run_op(op)
            else:
                tracer.op_id = f"{len(pass_times)}:{i}"
                with tracer.span(f"op.{op.kind}") as s:
                    dt, out, err = run_op(op)
                s["words"] = op.words
            op_times[i].append(dt)
            verdict = session.tally.check(op, out, err)
            if op.order is not None:
                order_ok[op.order] = order_ok.get(op.order, True) and verdict is None
        pass_times.append(sum(ts[-1] for ts in op_times))
        orders_passed.append(sum(order_ok.values()))
        if time.perf_counter() >= deadline and len(pass_times) * len(wl.ops) >= min_ops:
            return op_times, pass_times, orders_passed, op_starts


def environment(lib):
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    block_log2 = getattr(lib._engine, "DEFAULT_BLOCK_LOG2", None)
    block = None if block_log2 is None else (1 << block_log2) * 8
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # one (words, limbs) uint64 block array; each combine and weight pass
        # allocates a few arrays of this size, compared with the caches above
        "engine_block_log2": block_log2,
        "engine_block_bytes_per_limb": block,
    }


def end_to_end(session, op_times, op_starts, orders_passed):
    """Medians of scaled times (see Clock): each op's median over the passes
    stands for its cost, and the median set-up round for the set-up time."""
    clock, wl = session.clock, session.wl
    med = [statistics.median(clock.scaled(s, t) for s, t in zip(ss, ts))
           for ss, ts in zip(op_starts, op_times)]
    setup = statistics.median(clock.scaled(s, t)
                              for s, t in zip(session.setup_starts, session.setup_times))
    wall = sum(med)
    deciles = statistics.quantiles(med, n=10, method="inclusive")
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "words_per_s": (sum(op.words for op in wl.ops) / wall, "words/s"),
        "op_p50_ms": (statistics.median(med) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "orders_passed": (min(orders_passed), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def by_kind(wl, op_times):
    kinds = {}
    for op, ts in zip(wl.ops, op_times):
        kinds.setdefault(op.kind, []).append(statistics.median(ts))
    return {k: {"ops": len(v), "unscaled_ms_median": statistics.median(v) * 1e3}
            for k, v in kinds.items()}


PER_LAYER_UNITS = {
    "codes.lrm_ms": "ms",
    "linalg.standard_form_ms": "ms",
    "linalg.membership_us": "us",
    "linalg.enumerate_us_per_word": "us/word",
    "z4core.gray_us_per_word": "us/word",
    "engine.pack_us": "us",
    "engine.low_table_ms": "ms",
    "engine.combine_ns_per_word": "ns/word",
    "engine.lee_weights_ns_per_word": "ns/word",
    "engine.bit_weights_ns_per_word": "ns/word",
    "engine.argmin_ns_per_word": "ns/word",
    "engine.bincount_ns_per_word": "ns/word",
    "engine.minflt_per_mword": "faults/Mword",
    "engine.serial_words_per_s": "words/s",
    "engine.scaling_eff": "ratio",
    "engine.cpu_util": "ratio",
    "engine.words_swept": "count",
    "engine.blocks": "count",
    "analysis.self_ms": "ms",
    "analysis.image_is_linear_ms": "ms",
    "analysis.brute_oracle_ms": "ms",
    "fileformat.parse_us": "us",
    "fileformat.render_us": "us",
    "reports.render_us": "us",
    "cli.overhead_ms": "ms",
    "setup.import_s": "s",
    "trace.overhead_pct": "%",
}


def traced(session, seconds):
    """Untraced and traced passes in turn for `seconds`, so that both see the
    same host phases, then the per-layer replay."""
    plain = run_passes(session, 0, min_ops=0)[0]
    from layers import Tracer, replay  # after the first, cold set-up round

    tracer = Tracer()
    traced_ops = run_passes(session, 0, tracer, min_ops=0)[0]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for times, tr in ((plain, None), (traced_ops, tracer)):
            for ts, (t,) in zip(times, run_passes(session, 0, tr, min_ops=0)[0]):
                ts.append(t)
    op_spans = [s for s in tracer.spans if s["name"].startswith("op.")]
    words = sum(s["words"] for s in op_spans)
    faults = sum(s["minflt"] for s in op_spans)
    tracer.op_id = "replay"
    values = replay(session.lib, tracer, session.wl.layers(), nproc())
    values["engine.minflt_per_mword"] = faults / (words / 1e6) if words else 0.0
    values["setup.import_s"] = session.import_times[0]
    untraced = sum(min(ts) for ts in plain)
    values["trace.overhead_pct"] = (sum(min(ts) for ts in traced_ops) - untraced) / untraced * 100
    extra = {"untraced_best_s": untraced, "spans": len(tracer.spans)}
    return {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}, tracer, extra


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "z4rm" / "__init__.py").is_file():
        print(f"error: no z4rm sources under {SRC}; run from a z4rm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    session = Session(args.workload, args.seed, str(workdir))
    try:
        if args.trace:
            metrics, tracer, extra = traced(session, args.seconds)
            tracer.dump(OUT / f"trace-{tag}.jsonl")
            record = extra
        else:
            op_times, pass_times, orders, op_starts = run_passes(session, args.seconds)
            metrics = end_to_end(session, op_times, op_starts, orders)
            record = {"passes": pass_times, "orders_passed_per_pass": orders,
                      "kinds": by_kind(session.wl, op_times),
                      "unscaled_wall_s": sum(statistics.median(ts) for ts in op_times),
                      "op_times": op_times, "op_starts": op_starts,
                      "setup_starts": session.setup_starts,
                      "probe_times": session.clock.times, "probes": session.clock.probes}
    finally:
        session.cleanup()
    tally = session.tally
    record.update(args=vars(args), env=environment(session.lib),
                  setup_rounds=session.setup_times, import_rounds=session.import_times,
                  attempted=tally.attempted, failed=tally.failed, misses=tally.misses,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["env"]))
    for miss in tally.misses:
        print(f"MISS {miss}")
    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {u}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": record["metrics"]}
    print(json.dumps(result, allow_nan=False))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
