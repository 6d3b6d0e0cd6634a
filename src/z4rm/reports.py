"""Rendering of verification results.

Machine-readable lines carry one claim per line as
"claim=<name> expected=<v> got=<v> status=<pass|fail|skipped>"; the text
renderer produces the same content for humans.  Output never depends on
worker count or locale.
"""

from __future__ import annotations

from .analysis import NonequivalenceRecord, VerificationReport

__all__ = [
    "report_lines",
    "report_text",
    "verify_all_line",
    "nonequivalence_line",
]


def report_lines(rep: VerificationReport) -> list:
    r, m = rep.order
    mode = "fast" if rep.fast else "audit"
    return [
        f"order=({r},{m}) budget={rep.budget} mode={mode}",
        *(
            f"claim={name} expected={want} got={'-' if got is None else got} status={status}"
            for name, want, got, status in rep.claims
        ),
        f"image_linear={'true' if rep.image_linear else 'false'}",
        f"result={rep.status}",
    ]


def report_text(rep: VerificationReport) -> str:
    r, m = rep.order
    rows = [f"LRM({r},{m})  {rep.label}"]
    d = "skipped: budget" if rep.computed_d is None else rep.computed_d
    wh = "skipped: budget" if rep.witness_hamming is None else rep.witness_hamming
    rows.append(f"  length         claimed {rep.claimed.n:<6} computed {rep.computed_n}")
    rows.append(f"  log2 size      claimed {rep.claimed.k:<6} computed {rep.computed_k}")
    rows.append(f"  min Lee dist   claimed {rep.claimed.d:<6} computed {d}")
    rows.append(f"  image weight of witness: {wh}")
    rows.append(f"  Gray image linear: {'yes' if rep.image_linear else 'no'}")
    rows.append(f"  verdict: {rep.status.upper()}")
    return "\n".join(rows)


def verify_all_line(rep: VerificationReport) -> str:
    r, m = rep.order
    d = "-" if rep.computed_d is None else rep.computed_d
    return (
        f"r={r} m={m} n={rep.computed_n}/{rep.claimed.n} "
        f"k={rep.computed_k}/{rep.claimed.k} d={d}/{rep.claimed.d} "
        f"image_linear={'true' if rep.image_linear else 'false'} status={rep.status}"
    )


def nonequivalence_line(rec: NonequivalenceRecord) -> str:
    r, m = rec.order
    word = "distinct" if rec.distinct else "equal"
    return f"r={r} m={m} lrm_k={rec.lrm_k} qrm_k={rec.qrm_k} {word}"
