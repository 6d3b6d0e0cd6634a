"""Command-line front end.

Exit codes: 0 pass, 1 claim failure or absence, 2 usage error, 3 budget
exceeded, 141 (128 + SIGPIPE) output pipe closed by its reader.  The
default enumeration budget is 28 (log2 of codeword count), overridable by
the Z4RM_BUDGET environment variable and the --budget flag;
a budget outside 0..MAX_BUDGET, a worker count below 1, a level m above
MAX_M (MAX_RM_M for rm), a top level M below 1 and a code file longer
than MAX_LENGTH are usage errors.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import sys
from collections import Counter

from . import _engine
from .analysis import (
    BRUTE_ORACLE_BUDGET,
    image_is_linear,
    image_is_linear_bruteforce,
    lee_weight_distribution,
    min_lee_weight_witness,
    nonequivalence_report,
    search_nonlinear_base,
    verify_theorem1,
)
from .codes import (
    MAX_M, MAX_RM_M, CodeParams, Z4Code, check_order, lrm, lrm_nodes, rm_binary_rows,
)
from .errors import CapacityError, CodeFileError, DimensionError, OverrideError, ZeroCodeError
from .fileformat import parse_code, render_code
from .linalg import DEFAULT_BUDGET, check_budget
from .reports import nonequivalence_line, report_lines, verify_all_line
from .z4core import BitWord, Z4Word, gray, gray_inverse

ENV_BUDGET = "Z4RM_BUDGET"
# A direct sweep of 2^40 words takes about 8 minutes for a Z4 code and 25 for
# a binary one, at the ~2.4x10^9 and ~7x10^8 words/s measured on 2 workers (a
# negation-paired sweep of LRM(3,5) and an unpaired one of a random binary
# code, 2^26 words each, medians of 15 runs on a 2-vCPU x86 KVM guest), so the
# bound keeps every admitted sweep under an hour.
MAX_BUDGET = 40
# Code files stop at the length of LRM at m = MAX_M.
MAX_LENGTH = 1 << (MAX_M - 1)


class _UsageError(Exception):
    pass


def _integer(text: str) -> int:
    """An optional "-", then ASCII digits: int() alone also takes "٢", "+3",
    "1_0" and " 3", and str.isdigit takes "²"."""
    digits = text.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _resolve_budget(flag: int | None) -> int:
    """--budget if given, else Z4RM_BUDGET, else the default."""
    source, budget = "--budget", flag
    if flag is None:
        source, raw = ENV_BUDGET, os.environ.get(ENV_BUDGET)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            budget = _integer(raw)
        except argparse.ArgumentTypeError:
            raise _UsageError(f"{source} must be an integer, got {raw!r}")
    if not 0 <= budget <= MAX_BUDGET:
        raise _UsageError(f"{source} must be between 0 and {MAX_BUDGET}, got {budget}")
    return budget


def _positive(text: str) -> int:
    if (value := _integer(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bounded_level(text: str, bound: int) -> int:
    m = _integer(text)
    if m > bound:
        raise argparse.ArgumentTypeError(f"must be at most {bound}, got {m}")
    return m


def _level(text: str) -> int:
    return _bounded_level(text, MAX_M)


def _rm_level(text: str) -> int:
    return _bounded_level(text, MAX_RM_M)


def _top_level(text: str) -> int:
    if (m := _level(text)) < 1:  # verify-all and compare-qrm cover levels 1..M
        raise argparse.ArgumentTypeError(f"must be at least 1, got {m}")
    return m


def _parse_overrides(pairs, r, m):
    """The --override pairs as {node: code}, each node given once and one
    that LRM(r,m)'s recursion reaches; the files are read only once every
    node is."""
    paths = {}
    for item in pairs:
        node, eq, path = item.partition("=")
        if not eq:
            raise _UsageError(f"override {item!r} is not of the form r,m=FILE")
        try:
            node_r, node_m = map(_integer, node.split(","))
        except (argparse.ArgumentTypeError, ValueError):  # ValueError: not two parts
            raise _UsageError(f"override node {node!r} is not of the form r,m")
        node = check_order(node_r, node_m)
        if node in paths:
            raise _UsageError(f"override at ({node.r},{node.m}) is given twice")
        paths[node] = path
    reached = lrm_nodes(r, m, paths)
    for node in paths:
        if node not in reached:
            raise _UsageError(
                f"override at ({node.r},{node.m}) is never reached by the recursion of LRM({r},{m})"
            )
    return {node: _load_code(path) for node, path in paths.items()}


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="ascii", newline="") as f:
            return f.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}")


def _load_code(path) -> Z4Code:
    code = parse_code(_read_text(path))
    if code.n > MAX_LENGTH:
        raise _UsageError(
            f"{path}: code length {code.n} exceeds {MAX_LENGTH}, the length at m = {MAX_M}"
        )
    return code


def _write(text: str) -> None:
    """Write text to stdout, so that a reader who leaves mid-write raises
    BrokenPipeError.  An unbuffered stdout (python -u, PYTHONUNBUFFERED)
    hands each write straight to its file, which may take only part of a
    long one before the reader leaves, and its text layer drops that short
    count.  Such a stdout gets the bytes through its file until all are
    taken, so a reader who left is met by the next of those writes."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[raw.write(data):]


def _read_words(path):
    """Z4 words from a code file (its generator rows) or a bare word list."""
    text = _read_text(path)
    if text.startswith("Z4CODE"):
        return list(parse_code(text).generators)
    return [Z4Word.from_string(line) for line in text.split("\n") if line]


def _cmd_build(args) -> int:
    overrides = _parse_overrides(args.override, args.r, args.m)
    code = lrm(args.r, args.m, overrides or None, budget=args.budget)
    text = render_code(code)
    if args.output:
        with open(args.output, "w", encoding="ascii", newline="") as f:
            f.write(text)
    else:
        _write(text)
    return 0


def _cmd_verify(args) -> int:
    overrides = _parse_overrides(args.override, args.r, args.m)
    rep = verify_theorem1(
        args.r, args.m, overrides or None,
        budget=args.budget, workers=args.workers, fast=args.fast,
    )
    for line in report_lines(rep):
        print(line)
    return {"pass": 0, "fail": 1, "skipped": 3}[rep.status]


def _cmd_verify_all(args) -> int:
    tally = Counter()
    for m in range(1, args.M + 1):
        for r in range(m + 1):
            rep = verify_theorem1(r, m, budget=args.budget, workers=args.workers)
            print(verify_all_line(rep))
            tally[rep.status] += 1
    print(f"passed={tally['pass']} failed={tally['fail']} skipped={tally['skipped']}")
    return 1 if tally["fail"] else 0


def _cmd_gray(args) -> int:
    _write("".join(gray(w).digits() + "\n" for w in _read_words(args.file)))
    return 0


def _cmd_ungray(args) -> int:
    lines = []
    try:
        for line in _read_text(args.file).split("\n"):
            if line:
                lines.append(gray_inverse(BitWord.from_string(line)).digits() + "\n")
    finally:  # a bad line still leaves the words before it on stdout
        _write("".join(lines))
    return 0


def _cmd_mindist(args) -> int:
    code = _load_code(args.file)
    d, witness = min_lee_weight_witness(code, budget=args.budget, workers=args.workers)
    print(f"min_lee_distance={d}")
    print(f"witness={witness.digits()}")
    return 0


def _cmd_wdist(args) -> int:
    dist = lee_weight_distribution(_load_code(args.file), budget=args.budget, workers=args.workers)
    for w, count in enumerate(dist.counts):
        if count:
            print(f"weight={w} count={count}")
    return 0


def _cmd_member(args) -> int:
    code = _load_code(args.file)
    word = Z4Word.from_string(args.word)
    if word.n != code.n:
        raise _UsageError(f"word length {word.n} does not match code length {code.n}")
    if code.contains(word):
        print("present")
        return 0
    print("absent")
    return 1


def _cmd_image_linear(args) -> int:
    code = _load_code(args.file)
    if args.brute:
        linear = image_is_linear_bruteforce(code, budget=min(args.budget, BRUTE_ORACLE_BUDGET))
    else:
        linear = image_is_linear(code)
    print(f"image_linear={'true' if linear else 'false'}")
    return 0 if linear else 1


def _cmd_enumerate(args) -> int:
    sf = _load_code(args.file).standard_form
    check_budget(sf.log2_size, args.budget)
    for block in _engine.codeword_lines(sf):
        _write(block)
    return 0


def _cmd_compare_qrm(args) -> int:
    for m in range(1, args.M + 1):
        for r in range(m + 1):
            print(nonequivalence_line(nonequivalence_report(r, m)))
    return 0


def _cmd_rm(args) -> int:
    # in blocks of at most 2^TEXT_BLOCK_LOG2 bytes: RM(m,m) has 2^m rows of 2^m digits
    rows = rm_binary_rows(*check_order(args.r, args.m))  # checked before 1 << m
    per_block = max(1, (1 << _engine.TEXT_BLOCK_LOG2) // ((1 << args.m) + 1))
    while block := list(itertools.islice(rows, per_block)):
        _write("".join(row.digits() + "\n" for row in block))
    return 0


def _cmd_search(args) -> int:
    target = CodeParams(args.n, args.k, args.d)
    found = search_nonlinear_base(target, length_limit=args.limit)
    _write("\n".join(render_code(code) for code in found))
    return 0 if found else 1


def _arg(*flags, **options):
    return flags, options


_ORDER = (_arg("r", type=_integer, help="order"),
          _arg("m", type=_level, help="level (code length 2^(m-1))"))
_FILE = _arg("file")
_BUDGET = _arg("--budget", type=_integer, default=None,
               help="log2 of the largest enumerable codeword count")
_WORKERS = _arg("--workers", type=_positive, default=1,
                help="parallel sweep workers (result is identical for any count)")
_OVERRIDE = dict(action="append", default=[], metavar="NODE=FILE")

# One entry per subcommand, in help order: (handler, help text, arguments),
# each argument (flags, options) for ArgumentParser.add_argument.  The table
# is plain data because a class or closures here, built on every import,
# raised the peak RSS of the benchmark, which re-imports z4rm every round.
_COMMANDS = {
    "build": (_cmd_build, "construct LRM(r,m) and write its code file", (
        *_ORDER,
        _arg("--override", **_OVERRIDE, help="replace recursion node r,m by the code in FILE"),
        _arg("-o", "--output", default=None, help="output file (default stdout)"),
        _BUDGET)),
    "verify": (_cmd_verify, "check LRM(r,m) against its claimed parameters", (
        *_ORDER, _BUDGET, _WORKERS,
        _arg("--fast", action="store_true",
             help="report mode=fast; the distance check is the same exact one"),
        _arg("--override", **_OVERRIDE))),
    "verify-all": (_cmd_verify_all, "verify every order with m <= M",
                   (_arg("M", type=_top_level), _BUDGET, _WORKERS)),
    "gray": (_cmd_gray, "map a code file or word list through the Gray isometry", (_FILE,)),
    "ungray": (_cmd_ungray, "map binary words back through the inverse Gray map", (_FILE,)),
    "mindist": (_cmd_mindist, "exact minimum Lee distance (direct, dual or Plotkin)",
                (_FILE, _BUDGET, _WORKERS)),
    "wdist": (_cmd_wdist, "exact Lee weight counts (direct, dual or Plotkin)",
              (_FILE, _BUDGET, _WORKERS)),
    "member": (_cmd_member, "test whether WORD lies in the code", (_FILE, _arg("word"))),
    "image-linear": (_cmd_image_linear, "is the Gray image closed under XOR?", (
        _FILE,
        _arg("--brute", action="store_true",
             help="use the exhaustive image-set oracle instead of the generator test"),
        _BUDGET)),
    "enumerate": (_cmd_enumerate, "list every codeword in the frozen order", (_FILE, _BUDGET)),
    "compare-qrm": (_cmd_compare_qrm, "size comparison against QRM for all m <= M",
                    (_arg("M", type=_top_level),)),
    "rm": (_cmd_rm, "emit binary Reed-Muller RM(r,m) generator rows", (
        _ORDER[0], _arg("m", type=_rm_level, help="level (code length 2^m)"))),
    "search-nonlinear": (
        _cmd_search, "search for codes with the given parameters and nonlinear image", (
            _arg("n", type=_integer), _arg("k", type=_integer), _arg("d", type=_integer),
            _arg("--limit", type=_positive, default=8, help="largest searchable length"))),
}


def _add_arguments(parser, arguments) -> None:
    for flags, options in arguments:
        parser.add_argument(*flags, **options)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="z4rm",
        description="Quaternary linear codes with Reed-Muller parameters: "
        "build, map through the Gray isometry, and verify.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), arguments)
    return p


def _parse(argv) -> argparse.Namespace:
    """Parse with the named command's parser alone.  It is built from the
    same table entry as the full parser's subparser, so its help and errors
    read the same.  No command, an unknown one, top-level help and leftover
    arguments go to the full parser, whose usage line those errors show."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"z4rm {argv[0]}")
        _add_arguments(parser, _COMMANDS[argv[0]][2])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if hasattr(args, "budget"):
            args.budget = _resolve_budget(args.budget)
        status = _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a reader that left is met here, not at exit
        return status
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OverrideError, ZeroCodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (_UsageError, CodeFileError, DimensionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (z4rm enumerate F | head -1).  For the console
        # script's process, which ends next: stdout's descriptor now points at
        # os.devnull, so that what is still buffered cannot raise again in
        # the interpreter's last flush
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no real file descriptor
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
