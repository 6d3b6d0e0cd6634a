import hashlib
import random
import signal
from pathlib import Path

import pytest

from z4rm import _engine, cli
from z4rm.analysis import image_is_linear, min_lee_weight
from z4rm.cli import MAX_LENGTH, MAX_M, MAX_RM_M, main
from z4rm.codes import Z4Code, lrm, shipped_nonlinear_base, theorem1_params
from z4rm.errors import ZeroCodeError
from z4rm.fileformat import parse_code, render_code
from z4rm.linalg import GeneratorMatrix, enumerate_codewords
from z4rm.z4core import Z4Word


OVERRIDE_FILE = (
    Path(__file__).parents[1] / "src" / "z4rm" / "data" / "nonlinear_ep_n8_k11.z4code"
)


@pytest.fixture
def lrm12_file(tmp_path):
    path = tmp_path / "lrm12.z4code"
    path.write_text(render_code(lrm(1, 2)), newline="")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "1", "2")
    assert code == 0
    assert "claim=length expected=2 got=2 status=pass" in out
    assert "claim=log2_size expected=3 got=3 status=pass" in out
    assert "claim=min_lee_distance expected=2 got=2 status=pass" in out
    assert "claim=witness_isometry expected=2 got=2 status=pass" in out
    assert "image_linear=true" in out
    assert "result=pass" in out


def test_verify_budget_skip_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "2", "3", "--budget", "5")
    assert code == 3
    assert "claim=min_lee_distance expected=2 got=- status=skipped" in out
    assert "result=skipped" in out


def test_verify_fast_flag(capsys):
    code, out, _ = run(capsys, "verify", "2", "4", "--fast", "--workers", "2")
    assert code == 0
    assert "mode=fast" in out
    assert "result=pass" in out


def test_verify_all_6_stdout_is_pinned(capsys):
    # captured from the exhaustive-sweep implementation; every line must stay
    # byte-identical whichever side of the code the distance comes from
    want = (Path(__file__).parent / "data" / "verify_all_6.txt").read_text(encoding="ascii")
    assert run(capsys, "verify-all", "6")[:2] == (0, want)


def test_verify_all_7_stdout_is_pinned(capsys):
    # captured with the per-pair Z4 membership test of image linearity; the
    # m = 7 lines carry image_linear for codes of up to 2^128 words, far past
    # the brute-force oracle's budget
    want = (Path(__file__).parent / "data" / "verify_all_7.txt").read_text(encoding="ascii")
    assert run(capsys, "verify-all", "7")[:2] == (0, want)


def test_verify_all_8_budget_37_stdout_is_pinned(capsys):
    # captured from the per-coset minima of one sweep of A + B; at budget 37
    # the plain (2,7) and (2,8) take their Plotkin witnesses, among 29
    # passing orders
    want = (Path(__file__).parent / "data" / "verify_all_8_budget_37.txt").read_text(
        encoding="ascii")
    assert run(capsys, "verify-all", "8", "--budget", "37")[:2] == (0, want)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("r, m", [(1, 7), (2, 6), (3, 5), (2, 7)])
def test_mindist_wdist_stdout_is_pinned(capsys, tmp_path, r, m, workers):
    # each captured from a direct sweep of every codeword of the code file
    # (LRM(2,7), 2^29 words, at budget 29).  Only LRM(1,7), of 2^8 words,
    # still sweeps directly; the files of LRM(2,6) and LRM(2,7) split, and
    # take the Plotkin route, and LRM(3,5) goes through its 2^6-word dual
    want = (Path(__file__).parent / "data" / f"lrm_{r}_{m}_mindist_wdist.txt").read_text(
        encoding="ascii"
    )
    budget = str(max(28, theorem1_params(r, m).k))
    path = str(tmp_path / "code.z4code")
    assert run(capsys, "build", str(r), str(m), "-o", path)[:2] == (0, "")
    code_min, out_min, _ = run(capsys, "mindist", path, "--workers", workers, "--budget", budget)
    code_w, out_w, _ = run(capsys, "wdist", path, "--workers", workers, "--budget", budget)
    assert (code_min, code_w, out_min + out_w) == (0, 0, want)


def test_a_code_file_takes_the_plotkin_route(capsys, tmp_path, monkeypatch):
    # the file of LRM(2,7) holds only rows, yet it splits into LRM(2,6) and
    # LRM(1,6): wdist sweeps A = LRM(2,6)'s 2^22 words (B ⊆ A), not the
    # file's 2^29
    path = tmp_path / "code.z4code"
    assert run(capsys, "build", "2", "7", "-o", str(path))[:2] == (0, "")
    assert _engine.lee_route(parse_code(path.read_text("ascii")).standard_form).method == "plotkin"
    sizes = []
    real = _engine.Sweep.__init__

    def spy(self, basis, k, *args, **kwargs):
        sizes.append(k)
        real(self, basis, k, *args, **kwargs)

    monkeypatch.setattr(_engine.Sweep, "__init__", spy)
    code, out, _ = run(capsys, "wdist", str(path), "--budget", "29")
    assert (code, sizes) == (0, [22])
    want = (Path(__file__).parent / "data" / "lrm_2_7_mindist_wdist.txt").read_text(encoding="ascii")
    assert out == want.split("\n", 2)[2]  # the lines after mindist's two


@pytest.mark.parametrize("workers", ["1", "2"])
def test_overridden_verify_2_7_stdout_is_pinned(capsys, workers):
    # captured from the sweep of all 2^29 words that weighed one block of
    # each negation pair; the witness now takes the split identity
    want = (Path(__file__).parent / "data" / "verify_2_7_override.txt").read_text(
        encoding="ascii"
    )
    assert run(capsys, "verify", "2", "7", "--budget", "29", "--override", f"2,4={OVERRIDE_FILE}",
               "--workers", workers)[:2] == (0, want)


def test_overridden_verify_2_8_stdout_is_pinned(capsys):
    # captured from the orbit-paired direct sweep of all 2^37 words (about
    # 2.5 minutes); the witness now proves d from the split's leaves
    want = (Path(__file__).parent / "data" / "verify_2_8_override.txt").read_text(
        encoding="ascii"
    )
    assert run(capsys, "verify", "2", "8", "--budget", "37", "--override",
               f"2,4={OVERRIDE_FILE}")[:2] == (0, want)


def test_verify_2_8_stdout_is_pinned(capsys):
    # LRM(2,8)'s d comes from the split identity on its leaves; captured
    # when it came from the route's coset counts
    want = (Path(__file__).parent / "data" / "verify_2_8.txt").read_text(encoding="ascii")
    assert run(capsys, "verify", "2", "8", "--budget", "37")[:2] == (0, want)


@pytest.mark.parametrize("command", ["mindist", "wdist"])
def test_budget_gates_the_code_not_its_dual(capsys, tmp_path, command):
    # LRM(3,5) is computed through its 2^6-word dual, but its own 2^26 words
    # are what the budget admits or refuses
    path = str(tmp_path / "code.z4code")
    assert run(capsys, "build", "3", "5", "-o", path)[0] == 0
    assert run(capsys, command, path, "--budget", "20") == (
        3, "", "error: code has 2^26 words but the budget allows 2^20\n"
    )


def test_override_over_budget_is_refused(capsys, tmp_path):
    # right length and size for node (2,4), but e1 has Lee weight 1
    bad = GeneratorMatrix.from_strings(
        ["10000000", "01000000", "00100000", "00020000",
         "00002000", "00000200", "00000020", "00000002"]
    )
    path = tmp_path / "bad.z4code"
    path.write_text(render_code(Z4Code(bad, label="bad")), newline="")
    code, _, err = run(capsys, "build", "3", "5", "--override", f"2,4={path}", "--budget", "10")
    assert code == 3
    assert "override at (2,4): code has 2^11 words but the budget allows 2^10" in err
    code, _, err = run(capsys, "build", "3", "5", "--override", f"2,4={path}")
    assert code == 1
    assert "minimum Lee weight 1, expected 4" in err


def test_verify_with_override_over_budget_exits_3(capsys, tmp_path):
    # lrm validates the override outside the distance gate, so the refusal
    # is a budget error, not a skipped claim
    path = tmp_path / "ep.z4code"
    path.write_text(render_code(shipped_nonlinear_base()), newline="")
    assert run(capsys, "verify", "2", "5", "--override", f"2,4={path}", "--budget", "10") == (
        3, "", "error: override at (2,4): code has 2^11 words but the budget allows 2^10\n"
    )


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 9 + 1  # orders with m<=3, plus the summary
    assert all("status=pass" in line for line in lines[:-1])
    assert lines[-1] == "passed=9 failed=0 skipped=0"


def test_member_present_and_absent(capsys, lrm12_file):
    code, out, _ = run(capsys, "member", lrm12_file, "20")
    assert (code, out.strip()) == (0, "present")
    code, out, _ = run(capsys, "member", lrm12_file, "10")
    assert (code, out.strip()) == (1, "absent")


def test_member_bad_word_usage_error(capsys, lrm12_file):
    code, _, err = run(capsys, "member", lrm12_file, "14")
    assert code == 2
    code, _, err = run(capsys, "member", lrm12_file, "102")
    assert code == 2


def test_build_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "out.z4code"
    code, _, _ = run(capsys, "build", "1", "2", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == render_code(lrm(1, 2))
    code, out, _ = run(capsys, "build", "1", "2")
    assert code == 0
    assert out == render_code(lrm(1, 2))


def test_build_with_override(capsys, tmp_path):
    from z4rm.codes import shipped_nonlinear_base
    from z4rm.fileformat import render_code as render

    override_path = tmp_path / "ep.z4code"
    override_path.write_text(render(shipped_nonlinear_base()), newline="")
    code, out, _ = run(capsys, "build", "2", "4", "--override", f"2,4={override_path}")
    assert code == 0
    assert "override" in out.split("\n")[0]

    code, _, err = run(capsys, "build", "2", "4", "--override", f"24={override_path}")
    assert code == 2


def test_verify_with_override(capsys, tmp_path):
    from z4rm.codes import shipped_nonlinear_base
    from z4rm.fileformat import render_code as render

    override_path = tmp_path / "ep.z4code"
    override_path.write_text(render(shipped_nonlinear_base()), newline="")
    code, out, _ = run(capsys, "verify", "2", "4", "--override", f"2,4={override_path}")
    assert code == 0
    assert "image_linear=false" in out
    assert "result=pass" in out


@pytest.mark.parametrize("node", ["5,3", "-1,2", "0,0"])
@pytest.mark.parametrize("command", ["verify", "build"])
def test_override_at_invalid_node_is_usage_error(capsys, lrm12_file, command, node):
    code, out, err = run(capsys, command, "1", "3", f"--override={node}={lrm12_file}")
    assert (code, out) == (2, "")
    assert "invalid order" in err


@pytest.mark.parametrize("command", ["verify", "build"])
def test_override_at_a_node_given_twice_is_usage_error(capsys, monkeypatch, command):
    # the second file once replaced the first, which was never read; now
    # neither is
    def refused(path):
        raise AssertionError(f"{path} read")

    monkeypatch.setattr(cli, "_load_code", refused)
    argv = ["--override", "2,4=/nonexistent", "--override", f"2,4={OVERRIDE_FILE}"]
    assert run(capsys, command, "2", "5", *argv) == (
        2, "", "error: override at (2,4) is given twice\n")


@pytest.mark.parametrize("node", ["\u00b2,4", "\u0662,4", "2,\u0664", "--2,4"])
@pytest.mark.parametrize("command", ["verify", "build"])
def test_override_node_takes_only_ascii_integers(capsys, lrm12_file, command, node):
    # "²" passes str.isdigit but not int(); int() reads "٢" as 2
    code, out, err = run(capsys, command, "2", "5", f"--override={node}={lrm12_file}")
    assert (code, out) == (2, "")
    assert f"override node {node!r} is not of the form r,m" in err


@pytest.mark.parametrize("command, order, nodes, unreached", [
    ("build", ("1", "3"), ["2,4"], "(2,4)"),
    ("verify", ("2", "5"), ["3,4"], "(3,4)"),
    # (2,5)'s override replaces the subtree that holds (2,4)
    ("verify", ("2", "6"), ["2,5", "2,4"], "(2,4)"),
])
def test_override_the_recursion_never_reaches_is_refused(capsys, monkeypatch, command, order,
                                                          nodes, unreached):
    # the file, an (8, 2^11, 4) code, was once silently ignored at such a
    # node; now no file is read and no code built
    def refused(path):
        raise AssertionError(f"{path} read")

    monkeypatch.setattr(cli, "_load_code", refused)
    argv = [f"--override={node}={OVERRIDE_FILE}" for node in nodes]
    assert run(capsys, command, *order, *argv) == (
        2, "", f"error: override at {unreached} is never reached by the recursion of "
        f"LRM({order[0]},{order[1]})\n",
    )


@pytest.mark.parametrize(
    "argv, argument, text",
    [
        (["verify", "٢", "3"], "r", "٢"),  # int() reads "٢" as 2
        (["verify", "2", "٣"], "m", "٣"),
        (["verify-all", "٢"], "M", "٢"),
        (["rm", "1", "٣"], "m", "٣"),
        (["verify", "2", "3", "--budget", "٢٠"], "--budget", "٢٠"),
        (["verify", "2", "3", "--workers", "٢"], "--workers", "٢"),
        (["verify", "2", "3", "--workers", "²"], "--workers", "²"),  # refused today too
        (["search-nonlinear", "٤", "4", "3"], "n", "٤"),
        (["search-nonlinear", "4", "٤", "3"], "k", "٤"),
        (["search-nonlinear", "4", "4", "٣"], "d", "٣"),
        (["search-nonlinear", "4", "4", "3", "--limit", "٤"], "--limit", "٤"),
        # int() also takes a sign, underscores and surrounding space
        (["verify", "+1", "3"], "r", "+1"),
        (["verify", "1_0", "3"], "r", "1_0"),
        (["verify", " 1", "3"], "r", " 1"),
        (["verify", "1", "3 "], "m", "3 "),
        (["verify", "1", "3", "--budget", "+20"], "--budget", "+20"),
        (["verify", "1", "3", "--workers", "0_1"], "--workers", "0_1"),
        # refused today: past int()'s digit limit, the message stays
        pytest.param(["verify", "9" * 5000, "3"], "r", "9" * 5000, id="5000-digits"),
    ],
)
def test_integer_arguments_take_only_ascii_integers(capsys, argv, argument, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {argument}: invalid int value: {text!r}\n")


@pytest.mark.parametrize("value", ["٢٠", "+20", "2_0", " 20"])
def test_env_budget_takes_only_ascii_integers(capsys, lrm12_file, monkeypatch, value):
    monkeypatch.setenv("Z4RM_BUDGET", value)
    assert run(capsys, "mindist", lrm12_file) == (
        2, "", f"error: Z4RM_BUDGET must be an integer, got {value!r}\n"
    )


def test_brute_oracle_past_32_coordinates(capsys, tmp_path):
    path = tmp_path / "lrm17.z4code"
    path.write_text(render_code(lrm(1, 7)), newline="")
    assert run(capsys, "image-linear", str(path), "--brute") == (0, "image_linear=true\n", "")


def test_enumerate_and_mindist_and_wdist(capsys, lrm12_file):
    code, out, _ = run(capsys, "enumerate", lrm12_file)
    assert code == 0
    assert out.split() == ["00", "02", "11", "13", "22", "20", "33", "31"]

    code, out, _ = run(capsys, "mindist", lrm12_file)
    assert code == 0
    assert "min_lee_distance=2" in out
    assert "witness=02" in out

    code, out, _ = run(capsys, "wdist", lrm12_file)
    assert code == 0
    assert out.split("\n")[:3] == ["weight=0 count=1", "weight=2 count=6", "weight=4 count=1"]


def test_budget_exceeded_exit_code(capsys, lrm12_file):
    code, _, err = run(capsys, "mindist", lrm12_file, "--budget", "2")
    assert code == 3
    assert "budget" in err


def test_env_var_budget(capsys, lrm12_file, monkeypatch):
    monkeypatch.setenv("Z4RM_BUDGET", "2")
    code, _, _ = run(capsys, "mindist", lrm12_file)
    assert code == 3
    code, _, _ = run(capsys, "mindist", lrm12_file, "--budget", "8")
    assert code == 0


@pytest.mark.parametrize("argv", [["rm", "1", "2"], ["compare-qrm", "2"]])
def test_commands_without_budget_ignore_env_budget(capsys, monkeypatch, argv):
    monkeypatch.setenv("Z4RM_BUDGET", "abc")
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize(
    "flag, env",
    [("-4", None), ("1000", None), (None, "-1"), (None, "abc"), (None, "1000")],
)
def test_bad_budget_is_usage_error(capsys, monkeypatch, lrm12_file, flag, env):
    if env is not None:
        monkeypatch.setenv("Z4RM_BUDGET", env)
    argv = ["mindist", lrm12_file] + (["--budget", flag] if flag is not None else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert ("--budget" if flag is not None else "Z4RM_BUDGET") in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(capsys, workers):
    code, out, err = run(capsys, "verify", "1", "2", "--workers", workers)
    assert (code, out) == (2, "")
    assert "--workers" in err


@pytest.mark.parametrize(
    "argv", [["mindist"], ["enumerate"], ["image-linear", "--brute"]]
)
def test_budget_refusal_wording(capsys, lrm12_file, argv):
    code, _, err = run(capsys, argv[0], lrm12_file, *argv[1:], "--budget", "2")
    assert code == 3
    assert err == "error: code has 2^3 words but the budget allows 2^2\n"


def test_gray_and_ungray(capsys, tmp_path, lrm12_file):
    code, out, _ = run(capsys, "gray", lrm12_file)
    assert code == 0
    assert out.split() == ["0011", "0101"]  # images of the generator rows

    words = tmp_path / "words.txt"
    words.write_text("13\n20\n")
    code, out, _ = run(capsys, "gray", str(words))
    assert out.split() == ["0110", "1010"]

    bits = tmp_path / "bits.txt"
    bits.write_text("0110\n1010\n")
    code, out, _ = run(capsys, "ungray", str(bits))
    assert code == 0
    assert out.split() == ["13", "20"]

    odd = tmp_path / "odd.txt"
    odd.write_text("011\n")
    code, _, _ = run(capsys, "ungray", str(odd))
    assert code == 2


def test_image_linear_exit_codes(capsys, tmp_path, lrm12_file):
    code, out, _ = run(capsys, "image-linear", lrm12_file)
    assert (code, out.strip()) == (0, "image_linear=true")
    code, out, _ = run(capsys, "image-linear", lrm12_file, "--brute")
    assert (code, out.strip()) == (0, "image_linear=true")

    from z4rm.codes import Z4Code
    from z4rm.linalg import GeneratorMatrix

    witness = tmp_path / "witness.z4code"
    witness.write_text(
        render_code(Z4Code(GeneratorMatrix.from_strings(["1013", "0112"]))), newline=""
    )
    code, out, _ = run(capsys, "image-linear", str(witness))
    assert (code, out.strip()) == (1, "image_linear=false")
    code, out, _ = run(capsys, "image-linear", str(witness), "--brute")
    assert (code, out.strip()) == (1, "image_linear=false")


def test_compare_qrm(capsys):
    code, out, _ = run(capsys, "compare-qrm", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == sum(m + 1 for m in range(1, 6))
    assert "r=3 m=5 lrm_k=26 qrm_k=30 distinct" in out
    assert "r=5 m=5 lrm_k=32 qrm_k=32 equal" in out


def test_rm_subcommand(capsys):
    code, out, _ = run(capsys, "rm", "1", "2")
    assert code == 0
    assert out.split() == ["1111", "0011", "0101"]


def test_rm_writes_bounded_blocks(monkeypatch):
    # RM(13,13) is 67 MB of text; it reaches stdout in blocks of at most
    # 2^TEXT_BLOCK_LOG2 bytes, and their concatenation is the text that the
    # single-write command printed
    sizes, digest = [], hashlib.sha256()

    def spy(text):
        sizes.append(len(text))
        digest.update(text.encode("ascii"))

    monkeypatch.setattr("z4rm.cli._write", spy)
    assert main(["rm", "13", "13"]) == 0
    assert max(sizes) <= 1 << _engine.TEXT_BLOCK_LOG2
    assert sum(sizes) == (1 << 13) * ((1 << 13) + 1)
    assert digest.hexdigest() == (
        "d4ec98214c081aecf4f0cb1d613e92cf62eda0745f40bfa39effb69a3c51944c"
    )


def test_search_nonlinear_subcommand(capsys):
    code, out, _ = run(capsys, "search-nonlinear", "2", "3", "2", "--limit", "2")
    assert code == 1
    assert out == ""

    code, out, _ = run(capsys, "search-nonlinear", "9", "2", "2", "--limit", "8")
    assert code == 3


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_search_limit_below_one_is_usage_error(capsys, limit):
    # once exit 3, "budget exceeded", from the search itself
    code, out, err = run(capsys, "search-nonlinear", "4", "4", "3", "--limit", limit)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --limit: must be at least 1, got {limit}\n")


@pytest.mark.parametrize("n, k, d", [(4, 4, 3), (5, 5, 3)])
def test_search_nonlinear_stdout_is_pinned(capsys, n, k, d):
    # captured from the search that tested candidates one span word at a time
    want = (Path(__file__).parent / "data" / f"search_nonlinear_{n}_{k}_{d}.txt").read_text(
        encoding="ascii"
    )
    assert run(capsys, "search-nonlinear", str(n), str(k), str(d), "--limit", str(n))[:2] == (
        0, want,
    )


def test_search_nonlinear_6_7_4_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "search-nonlinear", "6", "7", "4", "--limit", "6")
    assert code == 0
    assert out.count("Z4CODE") == 864
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "91d750c3e3e87f043f5313c1f3fa6ed9dce9a2d7c5ad6f0f777f716ab6d4ea8b"
    )



@pytest.mark.parametrize(
    "argv, message",
    [
        (["33", "2", "2", "--limit", "40"],
         "target length 33 exceeds 32, the search's single-limb candidate rows"),
        (["12", "21", "2", "--limit", "12"],
         "target log2 size 21 exceeds 20: the search materializes spans of up to 2^20 words"),
        (["16", "2", "2", "--limit", "16"],
         "the search builds 2^30 candidates for a row, more than 2^20"),
    ],
)
def test_search_nonlinear_refusals(capsys, argv, message):
    assert run(capsys, "search-nonlinear", *argv) == (3, "", f"error: {message}\n")


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "1")[0] == 2
    assert run(capsys, "verify", "1", "2", "--no-such-flag")[0] == 2
    assert run(capsys, "verify", "5", "2")[0] == 2  # invalid order


def test_malformed_file_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.z4code"
    bad.write_text("Z4CODE v1 n=2 rows=1\n014\n")
    assert run(capsys, "mindist", str(bad))[0] == 2
    missing = tmp_path / "missing.z4code"
    assert run(capsys, "mindist", str(missing))[0] == 2


def test_empty_code_of_huge_length_is_answered_at_once():
    # standard_form stops once no row is left to pivot instead of scanning
    # all 10^13 columns; the alarm turns a regression into a failure.  The
    # CLI refuses such a file before it builds the code
    # (test_code_file_length_is_bounded).
    code = Z4Code(GeneratorMatrix([], n=10**13))

    def hang(signum, frame):
        raise TimeoutError("standard_form scanned the columns of an empty code")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        assert image_is_linear(code)
        with pytest.raises(ZeroCodeError, match="the zero code has no nonzero codeword"):
            min_lee_weight(code)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("command", ["wdist", "mindist", "image-linear", "enumerate"])
def test_code_file_length_is_bounded(capsys, tmp_path, command):
    # wdist's weight counts for a length-10^13 code would take 146 TiB
    huge = tmp_path / "huge.z4code"
    huge.write_text("Z4CODE v1 n=10000000000000 rows=0\n")
    assert run(capsys, command, str(huge)) == (
        2, "", f"error: {huge}: code length 10000000000000 exceeds 8192, the length at m = 14\n"
    )


def test_code_file_length_bound_is_the_length_at_max_m(capsys, tmp_path):
    assert MAX_LENGTH == len(lrm(0, MAX_M).generators.rows[0])
    at, over = tmp_path / "at.z4code", tmp_path / "over.z4code"
    at.write_text(f"Z4CODE v1 n={MAX_LENGTH} rows=0\n")
    over.write_text(f"Z4CODE v1 n={MAX_LENGTH + 1} rows=0\n")
    assert run(capsys, "wdist", str(at)) == (0, "weight=0 count=1\n", "")
    assert run(capsys, "wdist", str(over))[0] == 2


@pytest.mark.parametrize(
    "argv, argument, bound",
    [(["rm", "1", "40"], "m", MAX_RM_M), (["rm", "1", "17"], "m", MAX_RM_M),
     (["build", "1", "40"], "m", MAX_M), (["verify", "1", "15"], "m", MAX_M),
     (["verify-all", "15"], "M", MAX_M), (["compare-qrm", "15"], "M", MAX_M),
     (["verify-all", "0"], "M", 1), (["compare-qrm", "0"], "M", 1)],
)
def test_level_is_bounded_before_work_starts(capsys, argv, argument, bound):
    # rm 1 40 would run a 2^40-step loop; the refusal is a usage error.
    # verify-all 0 and compare-qrm 0 would cover no level and exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    limit = "at most" if int(argv[-1]) > bound else "at least"
    assert err.endswith(
        f"z4rm {argv[0]}: error: argument {argument}: must be {limit} {bound}, got {argv[-1]}\n"
    )


def test_rm_checks_its_order_before_sizing_blocks(capsys):
    # the text block size shifts by m, which raised "negative shift count"
    assert run(capsys, "rm", "1", "-2") == (
        2, "", "error: invalid order (r=1, m=-2): need 0 <= r <= m and m >= 1\n"
    )


def test_level_at_the_bound_runs(capsys):
    assert run(capsys, "verify", "0", str(MAX_M))[0] == 0
    # rm's m is the binary level, of length 2^m, with its own bound
    assert MAX_RM_M > MAX_M
    code, out, _ = run(capsys, "rm", "0", str(MAX_M + 1))
    assert (code, out) == (0, "1" * (1 << (MAX_M + 1)) + "\n")


def _random_matrix(rng, n, units, evens):
    """units random rows and evens random even rows, of length n."""
    rows = [[rng.randrange(4) for _ in range(n)] for _ in range(units + evens)]
    rows[units:] = [[2 * s % 4 for s in row] for row in rows[units:]]
    return GeneratorMatrix([Z4Word(row) for row in rows], n=n)


@pytest.mark.parametrize("n", [1, 3, 31, 32, 33, 64, 65])
def test_enumerate_text_is_the_enumerated_words(capsys, tmp_path, n):
    # k from 0 to 16: two or more blocks of text from n = 31 up, where a
    # block holds 2^12 to 2^14 words
    rng = random.Random(n)
    path = tmp_path / "code.z4code"
    for units, evens in ((0, 0), (0, 1), (1, 2), (3, 1), (8, 0)):
        code = Z4Code(_random_matrix(rng, n, units, evens))
        path.write_text(render_code(code), newline="")
        want = "".join(w.digits() + "\n" for w in enumerate_codewords(code.standard_form))
        assert run(capsys, "enumerate", str(path)) == (0, want, "")


def test_enumerate_text_of_the_zero_code_and_the_shipped_override(capsys, tmp_path):
    zero = tmp_path / "zero.z4code"
    zero.write_text("Z4CODE v1 n=40 rows=0\n")  # k = 0 and two limbs' worth of lanes
    assert run(capsys, "enumerate", str(zero)) == (0, "0" * 40 + "\n", "")
    code = shipped_nonlinear_base()
    want = "".join(w.digits() + "\n" for w in enumerate_codewords(code.standard_form))
    assert run(capsys, "enumerate", str(OVERRIDE_FILE)) == (0, want, "")


def test_enumerate_over_budget_writes_nothing(capsys, tmp_path):
    path = tmp_path / "lrm25.z4code"
    path.write_text(render_code(lrm(2, 5)), newline="")
    assert run(capsys, "enumerate", str(path), "--budget", "15") == (
        3, "", "error: code has 2^16 words but the budget allows 2^15\n"
    )
