"""Text format for quaternary codes.

One header line "Z4CODE v1 n=<n> rows=<g> label=<escaped>" followed by one
generator row per line, symbols as digit characters in original coordinate
order.  ASCII with LF line endings and no trailing whitespace; labels are
percent-escaped so the header stays a single space-separated line.
"""

from __future__ import annotations

from urllib.parse import quote, unquote

from .codes import Z4Code
from .errors import CodeFileError
from .linalg import GeneratorMatrix
from .z4core import Z4Word

__all__ = ["render_code", "parse_code"]

FORMAT_TAG = "Z4CODE"
VERSION = "v1"

# keep labels readable: escape only space, percent, and non-ASCII
_LABEL_SAFE = "!\"#$&'()*+,-./:;<=>?@[\\]^_`{|}~"


def render_code(c: Z4Code) -> str:
    header = f"{FORMAT_TAG} {VERSION} n={c.n} rows={len(c.generators)}"
    if c.label:
        header += f" label={quote(c.label, safe=_LABEL_SAFE)}"
    lines = [header]
    lines.extend(row.digits() for row in c.generators)
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> tuple:
    tokens = line.split(" ")
    if tokens[0] != FORMAT_TAG:
        raise CodeFileError(f"expected {FORMAT_TAG} header", line=1, column=1)
    if len(tokens) < 2 or tokens[1] != VERSION:
        raise CodeFileError(f"unsupported format version {tokens[1] if len(tokens) > 1 else ''!r}", line=1)
    fields = {}
    for tok in tokens[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise CodeFileError(f"malformed header token {tok!r}", line=1)
        if key in fields:
            raise CodeFileError(f"duplicate header key {key!r}", line=1)
        if key not in ("n", "rows", "label"):
            raise CodeFileError(f"unknown header key {key!r}", line=1)
        fields[key] = value
    for key in ("n", "rows"):
        if key not in fields:
            raise CodeFileError(f"missing header key {key!r}", line=1)
        # ASCII digits only: str.isdigit also takes "²", and int() takes "٢"
        if not (fields[key].isascii() and fields[key].isdigit()):
            raise CodeFileError(f"header key {key!r} needs a nonnegative integer", line=1)
        fields[key] = int(fields[key])
    if fields["n"] < 1:
        raise CodeFileError("code length must be positive", line=1)
    return fields["n"], fields["rows"], unquote(fields.get("label", ""))


def parse_code(text: str) -> Z4Code:
    """Inverse of render_code, with line/column diagnostics on bad input."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CodeFileError("empty input", line=1, column=1)
    n, row_count, label = _parse_header(lines[0])
    if len(lines) - 1 != row_count:
        raise CodeFileError(
            f"header announces {row_count} rows but body has {len(lines) - 1}",
            line=len(lines),
        )
    rows = []
    for i, body_line in enumerate(lines[1:], start=2):
        if body_line.strip("0123"):  # a bad character: find its column
            col, ch = next((col, ch) for col, ch in enumerate(body_line, start=1)
                           if ch not in "0123")
            raise CodeFileError(f"bad symbol character {ch!r}", line=i, column=col)
        if len(body_line) != n:
            raise CodeFileError(
                f"row has {len(body_line)} symbols, expected {n}",
                line=i,
                column=min(len(body_line), n) + 1,
            )
        rows.append(Z4Word.from_string(body_line))
    return Z4Code(GeneratorMatrix(rows, n=n), label=label)
