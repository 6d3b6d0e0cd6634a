"""Spans and the per-layer replay of the traced run.

The traced run records a span around every call the benchmark makes into a
z4rm module: name, start, end, parent span, op id, and the minor-fault and
CPU-time deltas from getrusage(RUSAGE_SELF).  Spans stay in memory and are
written out when the run ends.  The program itself is not instrumented:
per-block engine figures come from the benchmark replaying the sweep loop
through the public _engine functions on the workload's own inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name):
        rec = {"name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            rec["minflt"] = ru1.ru_minflt - ru0.ru_minflt
            rec["cpu"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self):
        """Duration of each span minus the part its children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name):
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self, path):
        own = self.self_times()
        with open(path, "w", encoding="ascii") as f:
            for s, t in zip(self.spans, own):
                f.write(json.dumps(dict(s, self=t)) + "\n")


def _per(total, count, scale):
    return total * scale / count if count else float("nan")


def replay(lib, tracer, inputs, nproc):
    """Per-layer metrics from replaying each layer's calls on `inputs`."""
    engine = lib._engine
    tr = tracer
    out = {}

    # construction and linear algebra
    for r, m, ov in inputs.orders:
        tr.call("codes.lrm", lib.lrm, r, m, ov)
    out["codes.lrm_ms"] = _per(tr.total("codes.lrm"), tr.count("codes.lrm"), 1e3)
    for code in inputs.codes:
        tr.call("linalg.standard_form", lib.standard_form, code.generators)
    out["linalg.standard_form_ms"] = _per(tr.total("linalg.standard_form"),
                                          tr.count("linalg.standard_form"), 1e3)
    for _ in range(20):
        for code, word, _ in inputs.words:
            tr.call("linalg.membership", code.contains, word)
    out["linalg.membership_us"] = _per(tr.total("linalg.membership"),
                                       tr.count("linalg.membership"), 1e6)
    enum_words = 0
    for code in inputs.codes:
        if code.log2_size <= 12:
            with tr.span("linalg.enumerate"):
                enum_words += sum(1 for _ in lib.enumerate_codewords(code.standard_form))
    out["linalg.enumerate_us_per_word"] = _per(tr.total("linalg.enumerate"), enum_words, 1e6)
    for _ in range(50):
        for _, word, _ in inputs.words:
            tr.call("z4core.gray", lib.gray, word)
    out["z4core.gray_us_per_word"] = _per(tr.total("z4core.gray"), tr.count("z4core.gray"), 1e6)

    # file format and reports
    texts = [tr.call("fileformat.render", lib.render_code, c) for c in inputs.codes]
    for t in texts:
        tr.call("fileformat.parse", lib.parse_code, t)
    out["fileformat.render_us"] = _per(tr.total("fileformat.render"),
                                       tr.count("fileformat.render"), 1e6)
    out["fileformat.parse_us"] = _per(tr.total("fileformat.parse"),
                                      tr.count("fileformat.parse"), 1e6)
    reps = inputs.reports()
    for _ in range(20):
        for rep in reps:
            with tr.span("reports.render"):
                lib.reports.report_lines(rep)
                lib.reports.verify_all_line(rep)
    out["reports.render_us"] = _per(tr.total("reports.render"), tr.count("reports.render"), 1e6)

    # Gray-image linearity: generator test and brute-force oracle
    for code in inputs.codes:
        tr.call("analysis.image_is_linear", lib.image_is_linear, code)
        if code.log2_size <= 14:
            tr.call("analysis.brute_oracle", lib.image_is_linear_bruteforce, code)
    out["analysis.image_is_linear_ms"] = _per(tr.total("analysis.image_is_linear"),
                                              tr.count("analysis.image_is_linear"), 1e3)
    out["analysis.brute_oracle_ms"] = _per(tr.total("analysis.brute_oracle"),
                                           tr.count("analysis.brute_oracle"), 1e3)

    # the engine's sweep loop, replayed block by block (serial)
    words = blocks = 0
    for code, _ in inputs.sweeps:
        sf = code.standard_form
        basis = tr.call("engine.pack", engine.z4_basis_from_standard_form, sf)
        k = sf.log2_size
        sw = tr.call("engine.low_table", engine.Sweep, basis, k, engine.z4_add)
        for h in range(sw.block_count):
            block = tr.call("engine.combine", sw.block, h)
            w = tr.call("engine.lee_weights", engine.lee_weights, block)
            tr.call("engine.argmin", np.argmin, w)
            tr.call("engine.bincount", np.bincount, w, minlength=2 * code.n + 1)
        words += 1 << k
        blocks += sw.block_count
    out["engine.pack_us"] = _per(tr.total("engine.pack"), tr.count("engine.pack"), 1e6)
    out["engine.low_table_ms"] = _per(tr.total("engine.low_table"), tr.count("engine.low_table"), 1e3)
    for name in ("combine", "lee_weights", "argmin", "bincount"):
        out[f"engine.{name}_ns_per_word"] = _per(tr.total(f"engine.{name}"), words, 1e9)
    out["engine.words_swept"] = words
    out["engine.blocks"] = blocks

    bit_words = 0
    for rows in inputs.binary:
        rows = list(rows)
        basis = engine.xor_basis_from_rows(rows, rows[0].n)
        sw = engine.Sweep(basis, len(rows), engine.xor_add)
        for h in range(sw.block_count):
            tr.call("engine.bit_weights", engine.bit_weights, sw.block(h))
        bit_words += 1 << len(rows)
    out["engine.bit_weights_ns_per_word"] = _per(tr.total("engine.bit_weights"), bit_words, 1e9)

    # analysis self time: the analysis call minus the engine call on the same
    # input, each the best of two alternating tries
    spent = engine_time = 0.0
    for call, code, workers, kind in inputs.analysis_pairs:
        sf = code.standard_form
        basis = engine.z4_basis_from_standard_form(sf)
        k = sf.log2_size
        a_best = e_best = float("inf")
        for _ in range(2):
            with tr.span("analysis.call") as a:
                call()
            with tr.span("engine.sweep") as e:
                if kind == "min":
                    engine.min_weight_sweep(basis, k, engine.z4_add, engine.lee_weights,
                                            workers=workers)
                else:
                    engine.weight_histogram(basis, k, engine.z4_add, engine.lee_weights,
                                            max_weight=2 * code.n, workers=workers)
            a_best = min(a_best, a["end"] - a["start"])
            e_best = min(e_best, e["end"] - e["start"])
        spent += a_best
        engine_time += e_best
    out["analysis.self_ms"] = _per(spent - engine_time, len(inputs.analysis_pairs), 1e3)

    # thread scaling on the largest swept code: 1 worker, then nproc
    code = max((c for c, _ in inputs.sweeps), key=lambda c: c.log2_size)
    sf = code.standard_form
    basis = engine.z4_basis_from_standard_form(sf)
    k = sf.log2_size
    rates = {}
    reps = max(1, (1 << 22) >> k)
    for workers in (1, nproc):
        with tr.span(f"engine.scaling[{workers}]") as s:
            for _ in range(reps):
                engine.min_weight_sweep(basis, k, engine.z4_add, engine.lee_weights,
                                        workers=workers)
        wall = s["end"] - s["start"]
        rates[workers] = reps * (1 << k) / wall
        if workers == nproc:
            out["engine.cpu_util"] = s["cpu"] / (wall * nproc)
    out["engine.serial_words_per_s"] = rates[1]
    out["engine.scaling_eff"] = rates[nproc] / (nproc * rates[1])

    # CLI overhead: cli.main minus the library call on the same input
    overhead = []
    for argv, lib_call in inputs.cli_pairs:
        with tr.span("cli.main") as c, contextlib.redirect_stdout(io.StringIO()):
            lib.cli.main(argv)
        with tr.span("cli.library") as lb:
            lib_call()
        overhead.append((c["end"] - c["start"]) - (lb["end"] - lb["start"]))
    out["cli.overhead_ms"] = _per(sum(overhead), len(overhead), 1e3)
    return out
