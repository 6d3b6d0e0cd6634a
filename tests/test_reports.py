import dataclasses

import pytest

from z4rm.analysis import nonequivalence_report, verify_theorem1
from z4rm.reports import nonequivalence_line, report_lines, report_text, verify_all_line

LRM12_LABEL = "LRM(1,2):plotkin[LRM(1,1):full;LRM(0,1):rep]"


@pytest.mark.parametrize(
    "make_report, lines, text, all_line",
    [
        (
            lambda: verify_theorem1(1, 2),
            [
                "order=(1,2) budget=28 mode=audit",
                "claim=length expected=2 got=2 status=pass",
                "claim=log2_size expected=3 got=3 status=pass",
                "claim=min_lee_distance expected=2 got=2 status=pass",
                "claim=witness_isometry expected=2 got=2 status=pass",
                "image_linear=true",
                "result=pass",
            ],
            f"LRM(1,2)  {LRM12_LABEL}\n"
            "  length         claimed 2      computed 2\n"
            "  log2 size      claimed 3      computed 3\n"
            "  min Lee dist   claimed 2      computed 2\n"
            "  image weight of witness: 2\n"
            "  Gray image linear: yes\n"
            "  verdict: PASS",
            "r=1 m=2 n=2/2 k=3/3 d=2/2 image_linear=true status=pass",
        ),
        (
            lambda: verify_theorem1(2, 3, budget=5),
            [
                "order=(2,3) budget=5 mode=audit",
                "claim=length expected=4 got=4 status=pass",
                "claim=log2_size expected=7 got=7 status=pass",
                "claim=min_lee_distance expected=2 got=- status=skipped",
                "claim=witness_isometry expected=2 got=- status=skipped",
                "image_linear=true",
                "result=skipped",
            ],
            f"LRM(2,3)  LRM(2,3):plotkin[LRM(2,2):full;{LRM12_LABEL}]\n"
            "  length         claimed 4      computed 4\n"
            "  log2 size      claimed 7      computed 7\n"
            "  min Lee dist   claimed 2      computed skipped: budget\n"
            "  image weight of witness: skipped: budget\n"
            "  Gray image linear: yes\n"
            "  verdict: SKIPPED",
            "r=2 m=3 n=4/4 k=7/7 d=-/2 image_linear=true status=skipped",
        ),
        (
            # no real code fails its claim, so the fail branch gets a doctored report
            lambda: dataclasses.replace(verify_theorem1(1, 2), computed_d=1),
            [
                "order=(1,2) budget=28 mode=audit",
                "claim=length expected=2 got=2 status=pass",
                "claim=log2_size expected=3 got=3 status=pass",
                "claim=min_lee_distance expected=2 got=1 status=fail",
                "claim=witness_isometry expected=1 got=2 status=fail",
                "image_linear=true",
                "result=fail",
            ],
            f"LRM(1,2)  {LRM12_LABEL}\n"
            "  length         claimed 2      computed 2\n"
            "  log2 size      claimed 3      computed 3\n"
            "  min Lee dist   claimed 2      computed 1\n"
            "  image weight of witness: 2\n"
            "  Gray image linear: yes\n"
            "  verdict: FAIL",
            "r=1 m=2 n=2/2 k=3/3 d=1/2 image_linear=true status=fail",
        ),
    ],
    ids=["pass", "skipped", "fail"],
)
def test_report_renderings_by_status(make_report, lines, text, all_line):
    rep = make_report()
    assert report_lines(rep) == lines
    assert [f"status={claim[3]}" for claim in rep.claims] == [x.split()[-1] for x in lines[1:5]]
    assert report_text(rep) == text
    assert verify_all_line(rep) == all_line


def test_report_lines_pass():
    assert report_lines(verify_theorem1(1, 2)) == [
        "order=(1,2) budget=28 mode=audit",
        "claim=length expected=2 got=2 status=pass",
        "claim=log2_size expected=3 got=3 status=pass",
        "claim=min_lee_distance expected=2 got=2 status=pass",
        "claim=witness_isometry expected=2 got=2 status=pass",
        "image_linear=true",
        "result=pass",
    ]


def test_report_lines_skipped():
    lines = report_lines(verify_theorem1(2, 3, budget=5))
    assert "claim=min_lee_distance expected=2 got=- status=skipped" in lines
    assert "claim=witness_isometry expected=2 got=- status=skipped" in lines
    assert lines[-1] == "result=skipped"


def test_report_text_mentions_verdict_and_label():
    text = report_text(verify_theorem1(1, 2))
    assert "LRM(1,2)" in text
    assert "verdict: PASS" in text
    assert "plotkin" in text


def test_verify_all_line_format():
    line = verify_all_line(verify_theorem1(2, 3))
    assert line == "r=2 m=3 n=4/4 k=7/7 d=2/2 image_linear=true status=pass"


def test_nonequivalence_line_format():
    assert nonequivalence_line(nonequivalence_report(3, 5)) == (
        "r=3 m=5 lrm_k=26 qrm_k=30 distinct"
    )
    assert nonequivalence_line(nonequivalence_report(2, 2)) == (
        "r=2 m=2 lrm_k=4 qrm_k=4 equal"
    )
