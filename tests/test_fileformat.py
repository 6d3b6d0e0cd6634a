import pytest

from z4rm.codes import Z4Code, lrm, shipped_nonlinear_base
from z4rm.errors import CodeFileError
from z4rm.fileformat import parse_code, render_code
from z4rm.linalg import GeneratorMatrix


def roundtrip(c):
    back = parse_code(render_code(c))
    assert back.n == c.n
    assert back.label == c.label
    assert [w.digits() for w in back.generators] == [w.digits() for w in c.generators]


def test_render_examples():
    text = render_code(lrm(0, 1))
    assert text == "Z4CODE v1 n=1 rows=1 label=LRM(0,1):rep\n2\n"

    lines = render_code(lrm(1, 2)).split("\n")
    assert lines[1:3] == ["11", "02"]

    zero = Z4Code(GeneratorMatrix([], n=3))
    assert render_code(zero) == "Z4CODE v1 n=3 rows=0\n"


def test_render_is_ascii_lf_no_trailing_whitespace():
    text = render_code(lrm(2, 3))
    text.encode("ascii")
    assert "\r" not in text
    assert text.endswith("\n")
    for line in text.split("\n"):
        assert line == line.rstrip()


def test_roundtrip_constructed_codes():
    for m in range(1, 5):
        for r in range(m + 1):
            roundtrip(lrm(r, m))
    roundtrip(Z4Code(GeneratorMatrix([], n=5)))
    roundtrip(shipped_nonlinear_base())


def test_label_escaping_roundtrip():
    for label in ("", "a b c", "50% done", "x=y;z", "tab\tchar", "pct%20esc"):
        c = Z4Code(GeneratorMatrix.from_strings(["12"]), label=label)
        roundtrip(c)
        if label:
            header = render_code(c).split("\n")[0]
            assert " " not in header.split("label=", 1)[1]


def test_parse_row_length_error():
    with pytest.raises(CodeFileError) as e:
        parse_code("Z4CODE v1 n=2 rows=1\n012\n")
    assert e.value.line == 2
    assert "row has 3 symbols" in str(e.value)


def test_parse_bad_symbol_error():
    with pytest.raises(CodeFileError) as e:
        parse_code("Z4CODE v1 n=3 rows=1\n014\n")
    assert e.value.line == 2
    assert e.value.column == 3


@pytest.mark.parametrize("row, column, char", [
    ("x123", 1, "x"), ("01_3", 3, "_"), ("0124", 4, "4"),  # start, middle, end
    ("0٢23", 2, "٢"), (" 123", 1, " "), ("12+", 3, "+"),  # the last one also short
])
def test_parse_bad_symbol_position(row, column, char):
    with pytest.raises(CodeFileError) as e:
        parse_code(f"Z4CODE v1 n=4 rows=3\n0123\n{row}\n3210\n")
    assert (e.value.line, e.value.column) == (3, column)
    assert str(e.value) == f"bad symbol character {char!r} (line 3, column {column})"


def test_parse_header_errors():
    with pytest.raises(CodeFileError):
        parse_code("NOTACODE v1 n=1 rows=0\n")
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v2 n=1 rows=0\n")
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v1 n=1 rows=0 color=red\n")
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v1 n=1 rows=0 n=2\n")
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v1 rows=0\n")
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v1 n=x rows=0\n")
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v1 n=0 rows=0\n")
    with pytest.raises(CodeFileError):
        parse_code("")


def test_parse_row_count_mismatch():
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v1 n=2 rows=2\n11\n")
    with pytest.raises(CodeFileError):
        parse_code("Z4CODE v1 n=2 rows=0\n11\n")


def test_parse_without_trailing_newline():
    c = parse_code("Z4CODE v1 n=2 rows=1\n13")
    assert [w.digits() for w in c.generators] == ["13"]


@pytest.mark.parametrize("header", [
    "Z4CODE v1 n=² rows=0",  # superscript two: isdigit, but not int()
    "Z4CODE v1 n=٢ rows=0",  # Arabic-Indic two: int() reads it as 2
    "Z4CODE v1 n=2 rows=٠",
])
def test_header_numbers_take_only_ascii_digits(header):
    with pytest.raises(CodeFileError) as e:
        parse_code(header + "\n")
    assert e.value.line == 1
    assert "needs a nonnegative integer" in str(e.value)
