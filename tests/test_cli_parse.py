"""The CLI's parse layer: help, usage and error output pinned byte for byte,
and the full parser built only where its output is needed."""

from pathlib import Path

import pytest

from z4rm import cli
from z4rm.codes import lrm
from z4rm.fileformat import render_code

GOLDEN = Path(__file__).parent / "data" / "cli_usage.txt"

COMMANDS = [
    "build", "verify", "verify-all", "gray", "ungray", "mindist", "wdist", "member",
    "image-linear", "enumerate", "compare-qrm", "rm", "search-nonlinear",
]

USAGE_CASES = (
    [["-h"], ["--help"]]
    + [[name, "-h"] for name in COMMANDS]
    + [
        [],
        ["bogus"],
        ["verify", "1"],
        ["rm", "x", "3"],
        ["verify", "1", "2", "--workers", "0"],
        ["verify", "1", "2", "--budget", "99"],
        ["verify", "1", "2", "--fas"],
        ["verify", "1", "2", "--b", "5"],
        ["rm", "--", "1", "3"],
        ["rm", "1", "3", "--bogus"],
        ["rm", "1", "3", "extra"],
        ["search-nonlinear", "2", "3"],
        ["compare-qrm", "-1"],
    ]
)


def render_usage_cases(capsys):
    """stdout, stderr and exit code of cli.main for every case, as one text."""
    parts = []
    for argv in USAGE_CASES:
        code = cli.main(list(argv))
        out = capsys.readouterr()
        parts.append(
            f"=== argv={' '.join(argv)!r} exit={code}\n"
            f"--- stdout\n{out.out}--- stderr\n{out.err}"
        )
    return "".join(parts)


def test_usage_output_is_pinned(capsys, monkeypatch):
    # captured with the parser that built all thirteen subcommands on every
    # call; argparse wraps help at the terminal width, hence COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("Z4RM_BUDGET", raising=False)
    assert render_usage_cases(capsys) == GOLDEN.read_text(encoding="ascii")


@pytest.fixture
def build_calls(monkeypatch):
    calls = []
    full = cli._build_parser

    def spy():
        calls.append(1)
        return full()

    monkeypatch.setattr(cli, "_build_parser", spy)
    return calls


def test_named_command_builds_only_its_parser(capsys, tmp_path, build_calls):
    path = tmp_path / "lrm12.z4code"
    path.write_text(render_code(lrm(1, 2)), newline="")
    assert cli.main(["rm", "1", "3"]) == 0
    assert cli.main(["verify", "1", "2", "--workers", "2"]) == 0
    assert cli.main(["member", str(path), "11"]) == 0
    assert build_calls == []


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], ["rm", "1", "3", "--bogus"]])
def test_help_and_errors_build_the_full_parser_once(capsys, build_calls, argv):
    assert cli.main(argv) in (0, 2)
    assert build_calls == [1]


OVERRIDE = Path(cli.__file__).parent / "data" / "nonlinear_ep_n8_k11.z4code"


def test_consecutive_calls_stay_apart(capsys, tmp_path, monkeypatch):
    # one call's --override list, --fast flag or --workers count must not
    # reach the next call in the same process
    monkeypatch.delenv("Z4RM_BUDGET", raising=False)
    a, b = tmp_path / "A.z4code", tmp_path / "B.z4code"
    assert cli.main(["build", "2", "4", "--override", f"2,4={OVERRIDE}", "-o", str(a)]) == 0
    assert cli.main(["build", "2", "4", "-o", str(b)]) == 0
    assert "override" in a.read_text().split("\n")[0]
    assert "override" not in b.read_text().split("\n")[0]
    capsys.readouterr()

    assert cli.main(["verify", "1", "3", "--fast"]) == 0
    assert cli.main(["verify", "1", "3"]) == 0
    fast, plain = capsys.readouterr().out.split("result=pass\n")[:2]
    assert fast.startswith("order=(1,3) budget=28 mode=fast\n")
    assert plain.startswith("order=(1,3) budget=28 mode=audit\n")

    assert cli.main(["verify", "1", "3", "--workers", "2"]) == 0
    two = capsys.readouterr().out
    assert cli.main(["verify", "1", "3"]) == 0
    assert capsys.readouterr().out == two == plain + "result=pass\n"
