"""The three benchmark workloads: seeded inputs, op lists and answer checks.

A workload is a fixed list of ops run closed-loop, one at a time, from one
process.  The seed chooses only the content of the inputs (monomial copies,
override copies, member and non-member words, stream order); the sizes and
the mix of ops are the same for every seed, so runs with different seeds
measure the same amount of work.

Each op's check compares the program's answer with bench/ref.py and returns
None (correct), SKIPPED (correct, but the claim was not computed) or a
message describing the miss.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import ref

BUDGET = 28  # the library's default enumeration budget (log2 of codewords)
SKIPPED = "skipped"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    words: int = 0  # codewords the op must cover, from its inputs
    order: tuple | None = None  # LRM order whose claims a correct answer confirms


@dataclass
class LayerInputs:
    """What the traced run replays, layer by layer, on this workload's inputs."""

    orders: list  # (r, m, overrides) for codes.lrm
    codes: list  # Z4Code objects
    words: list  # (Z4Code, Z4Word, is_member)
    sweeps: list  # (Z4Code, workers) replayed block by block
    analysis_pairs: list  # (analysis call, code, workers, "min" | "hist")
    binary: list  # lists of BitWord rows for the XOR path
    cli_pairs: list  # (argv, library call on the same, already parsed input)
    reports: Callable[[], list]  # VerificationReport objects to render


@dataclass
class Workload:
    ops: list
    warmup: list
    layers: Callable[[], LayerInputs]
    cleanup: Callable[[], None] = field(default=lambda: None)


def digits(word):
    return "".join(str(s) for s in word)


def z4code(lib, rows, label=""):
    return lib.Z4Code(lib.GeneratorMatrix([lib.Z4Word(r) for r in rows]), label=label)


def code_file_text(rows, label):
    lines = [f"Z4CODE v1 n={len(rows[0])} rows={len(rows)} label={label}"]
    lines += [digits(r) for r in rows]
    return "\n".join(lines) + "\n"


def parse_code_text(text):
    """Generator rows and label from Z4CODE text, parsed without the library."""
    lines = text.rstrip("\n").split("\n")
    head = lines[0].split(" ")
    if head[:2] != ["Z4CODE", "v1"]:
        raise ValueError(f"bad header {lines[0]!r}")
    fields = dict(tok.split("=", 1) for tok in head[2:])
    rows = [tuple(int(c) for c in line) for line in lines[1:]]
    if len(rows) != int(fields["rows"]) or any(len(r) != int(fields["n"]) for r in rows):
        raise ValueError("row count or length disagrees with the header")
    return rows, fields.get("label", "")


def remove_dir(workdir):
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    os.rmdir(workdir)


def member_word(rng, rows):
    return ref.combine(rows, [rng.randrange(4) for _ in rows])


def non_member_word(rng, rows):
    """A Lee-weight-1 perturbation of a member: not a member when d >= 2."""
    w = list(member_word(rng, rows))
    i = rng.randrange(len(w))
    w[i] = (w[i] + rng.choice((1, 3))) % 4
    return tuple(w)


def shipped_base_rows(lib):
    return [tuple(w) for w in lib.shipped_nonlinear_base().generators]


@functools.cache
def _span_of(rows):
    return ref.Z4Span(rows)


def span(rows):
    return _span_of(tuple(rows))


@functools.cache
def rm_distribution(r, m):
    return ref.rm_distribution(r, m)


@functools.cache
def _linear_of(rows):
    return ref.image_is_linear(span(rows))


def image_linear(rows):
    return _linear_of(tuple(rows))


def check_witness(rows, d, got):
    """got = (distance, witness Z4Word) for the code spanned by rows."""
    dist, witness = got
    w = tuple(witness)
    if dist != d:
        return f"min Lee distance {dist}, expected {d}"
    if not span(rows).contains(w):
        return f"witness {digits(w)} is not a codeword"
    if ref.lee_weight(w) != d or ref.gray_bits(w).count("1") != d:
        return f"witness {digits(w)} has Lee/Gray weight != {d}"
    return None


def check_distribution(expected, counts):
    counts = tuple(counts)
    if sum(counts) != sum(expected):
        return f"distribution sums to {sum(counts)}, expected {sum(expected)}"
    if counts != expected:
        return "Lee weight distribution differs from the reference"
    return None


# ---------------------------------------------------------------- family


def family(lib, seed, tiny=False):
    """verify_theorem1 for every order with m <= 6 (m <= 3 when tiny), at the
    library's default budget and worker count, as `z4rm verify-all 6` does."""
    rng = random.Random(seed)
    # always the same kind of override, so that the seed does not choose the
    # cost: the (2,4) node sits under every order with r >= 2, and the
    # nonlinear base changes what their standard forms and linearity tests cost
    rows = ref.monomial(ref.lrm_rows(2, 4), *ref.random_monomial(rng, 8))
    overrides = {(2, 4): z4code(lib, rows, "bench-copy")}
    mmax = 3 if tiny else 6

    def check(r, m, rep):
        n, k, d = ref.theorem_params(r, m)
        claimed = (rep.claimed.n, rep.claimed.k, rep.claimed.d)
        if claimed != (n, k, d):
            return f"claimed {claimed}, theorem gives {(n, k, d)}"
        if (rep.computed_n, rep.computed_k) != (n, k):
            return f"computed n,k {(rep.computed_n, rep.computed_k)}, expected {(n, k)}"
        if rep.computed_d is None:
            return f"skipped although 2^{k} fits the budget" if k <= BUDGET else SKIPPED
        if rep.computed_d != d or rep.witness_hamming != d:
            return f"d={rep.computed_d} witness weight={rep.witness_hamming}, expected {d}"
        if not rep.passed:
            return "report does not pass although every claim matched"
        return None

    ops = []
    for m in range(1, mmax + 1):
        for r in range(m + 1):
            k = ref.theorem_params(r, m)[1]
            ops.append(Op(
                f"verify({r},{m})",
                lambda r=r, m=m: lib.verify_theorem1(r, m, overrides),
                lambda rep, r=r, m=m: check(r, m, rep),
                words=1 << k if k <= BUDGET else 0,
                order=(r, m),
            ))
    warmup = [op for op in ops if op.words <= 1 << 16]

    def layers():
        orders = [(r, m, overrides) for m in range(1, mmax + 1) for r in range(m + 1)]
        codes = [lib.lrm(r, m, ov) for r, m, ov in orders]
        wrng = random.Random(seed + 1)
        words = []
        for code in codes:
            rows = [tuple(g) for g in code.generators]
            words.append((code, lib.Z4Word(member_word(wrng, rows)), True))
            if code.standard_form.log2_size < 2 * code.n:  # not the full space
                words.append((code, lib.Z4Word(non_member_word(wrng, rows)), False))
        fitting = [c for c in codes if c.log2_size <= BUDGET]
        return LayerInputs(
            orders=orders,
            codes=codes,
            words=words,
            sweeps=[(c, 1) for c in fitting],
            analysis_pairs=[
                (lambda r=r, m=m, ov=ov: lib.verify_theorem1(r, m, ov), c, 1, "min")
                for (r, m, ov), c in zip(orders, codes) if c.log2_size <= BUDGET
            ],
            binary=[lib.rm_binary(1, 4) if tiny else lib.rm_binary(2, 6)],
            cli_pairs=[
                (["verify", str(r), str(m)], lambda r=r, m=m: lib.verify_theorem1(r, m))
                for r, m, _ in orders if ref.theorem_params(r, m)[1] <= 16
            ],
            # every report line kind, without repeating the two long sweeps
            reports=lambda: [lib.verify_theorem1(r, m, ov) for r, m, ov in orders
                             if not 16 < ref.theorem_params(r, m)[1] <= BUDGET],
        )

    return Workload(ops, warmup, layers)


# ---------------------------------------------------------------- sweep


def sweep(lib, seed, workers, workdir, tiny=False):
    """Direct min-weight and weight-distribution sweeps of large codes, at
    workers = nproc, plus one binary (XOR path) minimum-distance sweep."""
    rng = random.Random(seed)
    base = ref.monomial(shipped_base_rows(lib), *ref.random_monomial(rng, 8))
    if tiny:
        top, big, rep_m, binary_order = (2, 4), (1, 5), (2, 4), (1, 5)
    else:
        top, big, rep_m, binary_order = (3, 5), (2, 6), (2, 6), (2, 6)
    r_top, m_top = top
    plain = ref.lrm_rows(*top)
    canon = [
        ("lrm", plain, ref.theorem_params(*top)[2], rm_distribution(*top), top),
        # an extended-perfect override keeps the extended-perfect distribution
        ("lrm+override", ref.lrm_rows(r_top, m_top, {(2, 4): base}),
         ref.theorem_params(*top)[2], rm_distribution(*top), top),
        ("lrm", ref.lrm_rows(*big), ref.theorem_params(*big)[2], rm_distribution(*big), big),
        ("plotkin-rep", ref.plotkin_rows(ref.lrm_rows(*rep_m), ref.lrm_rows(0, rep_m[1])),
         2 * ref.theorem_params(*rep_m)[2],
         ref.doubled_with_repetition(rm_distribution(*rep_m)), None),
    ]
    ops = []
    inputs = []
    for label, rows, d, dist, order in canon:
        rows = ref.monomial(rows, *ref.random_monomial(rng, len(rows[0])))
        code = z4code(lib, rows, f"bench-{label}")
        k = span(rows).log2_size
        inputs.append((code, rows))
        ops.append(Op(
            f"min_lee_weight_witness[{label},k={k}]",
            lambda code=code: lib.min_lee_weight_witness(code, workers=workers),
            lambda got, rows=rows, d=d: check_witness(rows, d, got),
            words=1 << k, order=order,
        ))
        ops.append(Op(
            f"lee_weight_distribution[{label},k={k}]",
            lambda code=code: lib.lee_weight_distribution(code, workers=workers),
            lambda got, dist=dist: check_distribution(dist, got.counts),
            words=1 << k, order=order,
        ))
    bn, bk, bd = 1 << binary_order[1], *ref.theorem_params(*binary_order)[1:]
    perm = list(range(bn))
    rng.shuffle(perm)
    bit_rows = [lib.BitWord([row[perm[i]] for i in range(bn)])
                for row in ref.rm_rows(*binary_order)]

    def check_binary(p):
        got = (p.n, p.k, p.d)
        return None if got == (bn, bk, bd) else f"binary params {got}, expected {(bn, bk, bd)}"

    ops.append(Op(
        f"binary_code_params[RM{binary_order},k={bk}]",
        lambda: lib.binary_code_params(bit_rows, workers=workers),
        check_binary, words=1 << bk,
    ))
    small = z4code(lib, base, "bench-base")
    os.makedirs(workdir, exist_ok=True)
    base_path = os.path.join(workdir, "base.z4code")
    with open(base_path, "w", encoding="ascii", newline="") as f:
        f.write(code_file_text(base, "bench-base"))
    warmup = [
        Op("warmup-min", lambda: lib.min_lee_weight_witness(small, workers=workers),
           lambda got: check_witness(base, 4, got), words=1 << 11),
        Op("warmup-hist", lambda: lib.lee_weight_distribution(small, workers=workers),
           lambda got: check_distribution(rm_distribution(2, 4), got.counts), words=1 << 11),
    ]

    def layers():
        wrng = random.Random(seed + 1)
        words = []
        for code, rows in inputs + [(small, base)]:
            words.append((code, lib.Z4Word(member_word(wrng, rows)), True))
            words.append((code, lib.Z4Word(non_member_word(wrng, rows)), False))
        over = {(2, 4): small}
        pairs = []
        for code, _ in inputs:
            pairs.append((lambda c=code: lib.min_lee_weight_witness(c, workers=workers),
                          code, workers, "min"))
            pairs.append((lambda c=code: lib.lee_weight_distribution(c, workers=workers),
                          code, workers, "hist"))

        def reports():
            out = []
            for (r, m), (code, _) in ((top, inputs[0]), (top, inputs[1]), (big, inputs[2])):
                d, witness = lib.min_lee_weight_witness(code, workers=workers)
                out.append(lib.VerificationReport(
                    order=lib.RMOrder(r, m), label=code.label,
                    claimed=lib.theorem1_params(r, m), computed_n=code.n,
                    computed_k=code.log2_size, computed_d=d,
                    witness_hamming=lib.gray(witness).weight(),
                    image_linear=lib.image_is_linear(code), budget=BUDGET, fast=False))
            return out

        return LayerInputs(
            orders=[(*top, None), (*top, over), (*big, None), (0, rep_m[1], None)],
            codes=[c for c, _ in inputs] + [small],
            words=words,
            sweeps=[(c, workers) for c, _ in inputs],
            analysis_pairs=pairs,
            binary=[bit_rows],
            cli_pairs=[
                (["mindist", base_path], lambda: lib.min_lee_weight_witness(small)),
                (["wdist", base_path], lambda: lib.lee_weight_distribution(small)),
                (["image-linear", base_path], lambda: lib.image_is_linear(small)),
            ],
            reports=reports,
        )

    return Workload(ops, warmup, layers, lambda: remove_dir(workdir))


# ---------------------------------------------------------------- cli-mix


def _small_orders(kmax):
    return [(r, m) for m in range(1, 6) for r in range(m + 1)
            if ref.theorem_params(r, m)[1] <= kmax]


def cli_mix(lib, seed, workdir, tiny=False):
    """A seeded stream of short commands through cli.main(argv), in-process,
    with stdout captured."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    kmax = 8 if tiny else 16
    orders = _small_orders(kmax)

    def path(name):
        return os.path.join(workdir, name)

    def read(p):
        with open(p, encoding="ascii") as f:
            return f.read()

    def write(name, text):
        with open(path(name), "w", encoding="ascii", newline="") as f:
            f.write(text)
        return path(name)

    files = {}  # order or override kind -> (path, rows)
    for r, m in orders:
        rows = ref.monomial(ref.lrm_rows(r, m), *ref.random_monomial(rng, 1 << (m - 1)))
        files[(r, m)] = (write(f"lrm-{r}-{m}.z4code", code_file_text(rows, f"copy({r},{m})")), rows)
    # both kinds of (2,4) override in every stream: the brute-force oracle
    # stops early on a nonlinear image, so the kind sets the cost
    overrides = {"override-lrm": ref.lrm_rows(2, 4), "override-base": shipped_base_rows(lib)}
    for key, base in overrides.items():
        rows = ref.monomial(base, *ref.random_monomial(rng, 8))
        files[key] = (write(f"{key}.z4code", code_file_text(rows, key)), rows)

    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(argv)
        return rc, out.getvalue()

    def fail_if(cond, msg):
        return msg if cond else None

    ops = []

    def add(kind, argv, check, words=0, order=None):
        ops.append(Op(kind, lambda argv=argv: run_cli(argv),
                      lambda got, check=check: check(*got), words, order))

    # build, to stdout and to a file, with and without an override at (2,4)
    def check_build(r, m, override, out_path, rc, out):
        if rc != 0:
            return f"exit {rc}"
        if out_path:
            out = read(out_path)
        rows, label = parse_code_text(out)
        n, k, _ = ref.theorem_params(r, m)
        want = ref.lrm_rows(r, m, {(2, 4): files[override][1]} if override else None)
        got_span = span(rows)
        if len(rows[0]) != n or got_span.log2_size != k:
            return f"built code has n={len(rows[0])} k={got_span.log2_size}"
        if not all(got_span.contains(w) for w in want):
            return "built code differs from the Plotkin recursion"
        if override and "override" not in label:
            return "override missing from the label"
        return None

    build_orders = [(1, 3), (2, 4), (3, 5), (2, 6), (1, 5), (4, 6), (0, 4), (3, 4)]
    if tiny:
        build_orders = [(1, 3), (2, 4)]
    for i, (r, m) in enumerate(build_orders * 2):
        out_path = path(f"build-{i}.z4code") if i % 2 else None
        argv = ["build", str(r), str(m)] + (["-o", out_path] if out_path else [])
        add("build", argv, lambda rc, out, r=r, m=m, p=out_path: check_build(r, m, None, p, rc, out))
    override_orders = [(2, 4), (2, 5), (3, 5), (3, 6)]
    for i, (r, m) in enumerate(override_orders * (1 if tiny else 2)):
        key = list(overrides)[i % 2]
        out_path = path(f"build-ovr-{i}.z4code")
        argv = ["build", str(r), str(m), "--override", f"2,4={files[key][0]}", "-o", out_path]
        add("build-override", argv,
            lambda rc, out, r=r, m=m, key=key, p=out_path: check_build(r, m, key, p, rc, out))

    # verify: every claim line passes and image_linear matches the reference
    def check_verify(r, m, rc, out):
        n, k, d = ref.theorem_params(r, m)
        tokens = [dict(t.split("=", 1) for t in line.split(" ") if "=" in t)
                  for line in out.splitlines()]
        claims = {t["claim"]: t for t in tokens if "claim" in t}
        want = {"length": n, "log2_size": k, "min_lee_distance": d, "witness_isometry": d}
        for name, value in want.items():
            t = claims.get(name)
            if t is None or t.get("expected") != str(value) or t.get("got") != str(value) \
                    or t.get("status") != "pass":
                return f"claim {name} line is {t}, expected {value} and pass"
        lin = "true" if image_linear(ref.lrm_rows(r, m)) else "false"
        if not any(t.get("image_linear") == lin for t in tokens):
            return f"image_linear should be {lin}"
        if not any(t.get("result") == "pass" for t in tokens) or rc != 0:
            return f"result is not pass (exit {rc})"
        return None

    for r, m in orders * 2:
        k = ref.theorem_params(r, m)[1]
        add("verify", ["verify", str(r), str(m)],
            lambda rc, out, r=r, m=m: check_verify(r, m, rc, out), 1 << k, (r, m))

    # mindist and wdist on the monomial copies
    for r, m in orders:
        p, rows = files[(r, m)]
        n, k, d = ref.theorem_params(r, m)

        def check_mindist(rc, out, rows=rows, d=d):
            vals = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
            if rc != 0 or "min_lee_distance" not in vals or "witness" not in vals:
                return f"exit {rc}, output {out!r}"
            witness = tuple(int(c) for c in vals["witness"])
            return check_witness(rows, d, (int(vals["min_lee_distance"]), witness))

        def check_wdist(rc, out, r=r, m=m):
            dist = rm_distribution(r, m)
            want = [f"weight={w} count={c}" for w, c in enumerate(dist) if c]
            return fail_if(rc != 0 or out.splitlines() != want,
                           "Lee weight distribution differs from RM(r,m)'s")

        add("mindist", ["mindist", p], check_mindist, 1 << k)
        add("wdist", ["wdist", p], check_wdist, 1 << k)

    # member: seeded members and Lee-weight-1 perturbations (non-members, d >= 2)
    member_orders = [o for o in orders if o[0] < o[1]]
    for i in range(8 if tiny else 30):
        r, m = member_orders[i % len(member_orders)]
        p, rows = files[(r, m)]
        for is_member in (True, False):
            word = member_word(rng, rows) if is_member else non_member_word(rng, rows)
            want = (0, "present") if is_member else (1, "absent")
            add("member", ["member", p, digits(word)],
                lambda rc, out, want=want: fail_if((rc, out.strip()) != want,
                                                   f"got {(rc, out.strip())}, expected {want}"))

    # gray then ungray of seeded member words: one op, two commands
    for r, m in orders:
        _, rows = files[(r, m)]
        words = [member_word(rng, rows) for _ in range(8)]
        wpath = write(f"words-{r}-{m}.txt", "".join(digits(w) + "\n" for w in words))
        bpath = path(f"bits-{r}-{m}.txt")

        def round_trip(wpath=wpath, bpath=bpath):
            rc1, bits = run_cli(["gray", wpath])
            with open(bpath, "w", encoding="ascii", newline="") as f:
                f.write(bits)
            rc2, back = run_cli(["ungray", bpath])
            return rc1, rc2, bits, back

        def check_round_trip(got, words=words):
            rc1, rc2, bits, back = got
            if (rc1, rc2) != (0, 0):
                return f"exit codes {(rc1, rc2)}"
            if bits.splitlines() != [ref.gray_bits(w) for w in words]:
                return "Gray images differ from the reference map"
            return fail_if(back.splitlines() != [digits(w) for w in words],
                           "ungray did not return the original words")

        ops.append(Op("gray+ungray", round_trip, check_round_trip))

    # enumerate: 2^k distinct codewords, exactly the span
    for key in [o for o in orders if ref.theorem_params(*o)[1] <= 12] + list(overrides):
        p, rows = files[key]
        code_span = span(rows)

        def check_enum(rc, out, code_span=code_span):
            lines = out.splitlines()
            k = code_span.log2_size
            if rc != 0 or len(lines) != 1 << k or len(set(lines)) != len(lines):
                return f"exit {rc}, {len(lines)} lines for 2^{k} codewords"
            want = {digits(w) for w in code_span.words()}
            return fail_if(set(lines) != want, "enumerated words are not the code")

        add("enumerate", ["enumerate", p], check_enum, 1 << code_span.log2_size)

    # image-linear by the generator test and by the brute-force oracle; the
    # oracle is quadratic in 2^k on linear images, so it sees only small ones
    for brute, kcap, extra in ((False, kmax, list(overrides)), (True, 8, ["override-base"])):
        for key in [o for o in orders if ref.theorem_params(*o)[1] <= kcap] + extra:
            p, rows = files[key]
            lin = image_linear(rows)
            want = (0, "image_linear=true") if lin else (1, "image_linear=false")
            add("image-linear-brute" if brute else "image-linear",
                ["image-linear", p] + (["--brute"] if brute else []),
                lambda rc, out, want=want: fail_if((rc, out.strip()) != want,
                                                   f"got {(rc, out.strip())}, expected {want}"),
                (1 << span(rows).log2_size) if brute else 0)

    # compare-qrm, rm and a small nonlinear search
    def check_qrm(M, rc, out):
        want = []
        for m in range(1, M + 1):
            for r in range(m + 1):
                lk, qk = ref.theorem_params(r, m)[1], ref.qrm_k(r, m)
                want.append(f"r={r} m={m} lrm_k={lk} qrm_k={qk} "
                            f"{'distinct' if lk != qk else 'equal'}")
        return fail_if(rc != 0 or out.splitlines() != want, "QRM comparison lines differ")

    for M in (range(3, 5) if tiny else range(3, 9)):
        add("compare-qrm", ["compare-qrm", str(M)], lambda rc, out, M=M: check_qrm(M, rc, out))
    rm_orders = [(1, 3), (2, 4)] if tiny else [(1, 3), (2, 4), (2, 5), (3, 6), (1, 6), (4, 7)]
    for r, m in rm_orders * (1 if tiny else 2):
        want = ["".join(map(str, row)) for row in ref.rm_rows(r, m)]
        add("rm", ["rm", str(r), str(m)],
            lambda rc, out, want=want: fail_if(rc != 0 or out.splitlines() != want,
                                               "RM generator rows differ"))

    def check_search(rc, out):
        blocks = [b for b in out.split("\n\n") if b.strip()]
        if rc != 0 or not blocks:
            return f"exit {rc} with {len(blocks)} codes; (4, 2^4, 3) nonlinear codes exist"
        for b in blocks:
            rows, _ = parse_code_text(b + "\n")
            found = span(rows)
            dist = ref.lee_distribution(found.words(), len(rows[0]))
            dmin = next(w for w, c in enumerate(dist) if w and c)
            if (len(rows[0]), found.log2_size, dmin) != (4, 4, 3) or image_linear(rows):
                return "search returned a code without the target parameters or nonlinearity"
        return None

    for _ in range(1 if tiny else 4):
        add("search-nonlinear", ["search-nonlinear", "4", "4", "3", "--limit", "4"], check_search)

    rng.shuffle(ops)
    seen = set()
    warmup = [op for op in ops if not (op.kind in seen or seen.add(op.kind))]

    def layers():
        wrng = random.Random(seed + 1)
        codes = {key: lib.fileformat.parse_code(read(p)) for key, (p, _) in files.items()}
        words = []
        for key, (_, rows) in files.items():
            if key in overrides or key[0] < key[1]:
                words.append((codes[key], lib.Z4Word(member_word(wrng, rows)), True))
                words.append((codes[key], lib.Z4Word(non_member_word(wrng, rows)), False))
        pairs = []
        for key in orders:
            pairs.append((lambda c=codes[key]: lib.min_lee_weight_witness(c), codes[key], 1, "min"))
            pairs.append((lambda c=codes[key]: lib.lee_weight_distribution(c), codes[key], 1, "hist"))
        cli_pairs = []
        for key in orders:
            p, _ = files[key]
            c = codes[key]
            cli_pairs.append((["verify", str(key[0]), str(key[1])],
                              lambda r=key[0], m=key[1]: lib.verify_theorem1(r, m)))
            cli_pairs.append((["mindist", p], lambda c=c: lib.min_lee_weight_witness(c)))
            cli_pairs.append((["wdist", p], lambda c=c: lib.lee_weight_distribution(c)))
            cli_pairs.append((["image-linear", p], lambda c=c: lib.image_is_linear(c)))
        return LayerInputs(
            orders=[(r, m, None) for r, m in build_orders]
            + [(r, m, {(2, 4): codes[key]}) for r, m in override_orders for key in overrides],
            codes=list(codes.values()),
            words=words,
            sweeps=[(c, 1) for c in codes.values()],
            analysis_pairs=pairs,
            binary=[lib.rm_binary(r, m) for r, m in rm_orders
                    if ref.theorem_params(r, m)[1] <= BUDGET],
            cli_pairs=cli_pairs,
            reports=lambda: [lib.verify_theorem1(r, m) for r, m in orders],
        )

    return Workload(ops, warmup, layers, lambda: remove_dir(workdir))
