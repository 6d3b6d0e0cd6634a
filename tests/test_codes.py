import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from z4rm import codes
from z4rm.analysis import min_lee_weight
from z4rm.codes import (
    CodeParams,
    Z4Code,
    lrm,
    lrm_nodes,
    plotkin,
    qrm_log2_size,
    rm_binary,
    shipped_nonlinear_base,
    theorem1_params,
)
from z4rm.errors import CapacityError, DimensionError, OverrideError
from z4rm.linalg import GeneratorMatrix, enumerate_codewords
from z4rm.z4core import BitWord, Z4Word, add, gray


def codewords(c):
    return set(enumerate_codewords(c.standard_form))


def digit_set(c):
    return {w.digits() for w in codewords(c)}


def bit_span(rows):
    out = set()
    for take in itertools.product((0, 1), repeat=len(rows)):
        w = BitWord.zero(rows[0].n)
        for t, row in zip(take, rows):
            if t:
                w = w ^ row
        out.add(w.digits())
    return out


def test_base_case_listings():
    assert digit_set(lrm(0, 1)) == {"0", "2"}
    assert digit_set(lrm(1, 1)) == {"0", "1", "2", "3"}
    assert digit_set(lrm(0, 2)) == {"00", "22"}
    assert digit_set(lrm(1, 2)) == {"00", "11", "22", "33", "13", "31", "02", "20"}
    assert digit_set(lrm(2, 2)) == {
        "".join(t) for t in itertools.product("0123", repeat=2)
    }


def test_base_case_gray_images():
    assert {gray(w).digits() for w in codewords(lrm(0, 1))} == {"00", "11"}
    assert {gray(w).digits() for w in codewords(lrm(1, 1))} == {"00", "01", "11", "10"}
    assert {gray(w).digits() for w in codewords(lrm(0, 2))} == {"0000", "1111"}
    even = {
        "".join(map(str, bits))
        for bits in itertools.product((0, 1), repeat=4)
        if sum(bits) % 2 == 0
    }
    assert {gray(w).digits() for w in codewords(lrm(1, 2))} == even
    assert len({gray(w).digits() for w in codewords(lrm(2, 2))}) == 16


def test_plotkin_examples():
    got = plotkin(lrm(1, 1), lrm(0, 1))
    assert digit_set(got) == {"00", "11", "22", "33", "13", "31", "02", "20"}

    zero = Z4Code(GeneratorMatrix([], n=2))
    doubled = plotkin(zero, zero)
    assert doubled.n == 4
    assert digit_set(doubled) == {"0000"}

    rep = lrm(0, 1)
    got = plotkin(rep, rep)
    assert digit_set(got) == {"00", "02", "22", "20"}


def test_plotkin_is_the_pair_construction():
    c1, c2 = lrm(1, 2), lrm(0, 2)
    got = digit_set(plotkin(c1, c2))
    want = set()
    for x in codewords(c1):
        for y in codewords(c2):
            want.add(x.digits() + add(x, y).digits())
    assert got == want


def test_plotkin_length_mismatch():
    with pytest.raises(DimensionError):
        plotkin(lrm(0, 1), lrm(0, 2))


@pytest.mark.parametrize(
    "build, bound, name", [(lrm, codes.MAX_M, "MAX_M"), (rm_binary, codes.MAX_RM_M, "MAX_RM_M")]
)
def test_library_level_is_bounded_before_work_starts(monkeypatch, build, bound, name):
    # a repetition code or RM row built past the bound would fail otherwise
    monkeypatch.setattr(codes, "_repetition", None)
    monkeypatch.setattr(codes, "BitWord", None)
    with pytest.raises(ValueError, match=f"level m={bound + 1} exceeds {name} = {bound}"):
        build(0, bound + 1)


def test_lrm_label_traces_recursion():
    c = lrm(1, 2)
    assert c.label == "LRM(1,2):plotkin[LRM(1,1):full;LRM(0,1):rep]"
    assert lrm(0, 3).label == "LRM(0,3):rep"
    assert lrm(3, 3).label == "LRM(3,3):full"


def test_lrm_invalid_order():
    for r, m in [(-1, 2), (3, 2), (0, 0)]:
        with pytest.raises(ValueError):
            lrm(r, m)
        with pytest.raises(ValueError):
            theorem1_params(r, m)
        with pytest.raises(ValueError):
            qrm_log2_size(r, m)


def test_theorem1_params_examples():
    p = theorem1_params(0, 2)
    assert (p.n, p.k, p.d) == (2, 1, 4)
    p = theorem1_params(3, 5)
    assert (p.n, p.k, p.d) == (16, 26, 4)
    for m in range(1, 8):
        assert theorem1_params(m, m).k == 1 << m


def test_qrm_log2_size_examples():
    assert qrm_log2_size(3, 5) == 30
    assert qrm_log2_size(1, 3) == 6
    for m in range(1, 6):
        assert qrm_log2_size(0, m) == 2


def test_size_comparison_pascal():
    for m in range(1, 11):
        for r in range(m + 1):
            diff = qrm_log2_size(r, m) - theorem1_params(r, m).k
            assert diff == math.comb(m - 1, r)
            assert (diff == 0) == (r == m)


def test_rm_binary_examples():
    assert bit_span(rm_binary(0, 2)) == {"0000", "1111"}
    assert bit_span(rm_binary(1, 1)) == {"00", "01", "10", "11"}
    even = {
        "".join(map(str, bits))
        for bits in itertools.product((0, 1), repeat=4)
        if sum(bits) % 2 == 0
    }
    assert bit_span(rm_binary(1, 2)) == even


def test_rm_binary_row_counts_and_length():
    for m in range(1, 6):
        for r in range(m + 1):
            rows = rm_binary(r, m)
            assert len(rows) == sum(math.comb(m, i) for i in range(r + 1))
            assert all(row.n == 1 << m for row in rows)


def test_rm_binary_monomial_order():
    rows = rm_binary(2, 3)
    assert [r.digits() for r in rows[:4]] == [
        "11111111",  # constant
        "00001111",  # v1
        "00110011",  # v2
        "01010101",  # v3
    ]
    # degree-2 block: v1 v2, v1 v3, v2 v3
    assert [r.digits() for r in rows[4:]] == ["00000011", "00000101", "00010001"]


def test_override_is_validated_and_recorded():
    shipped = shipped_nonlinear_base()
    c = lrm(2, 4, overrides={(2, 4): shipped})
    assert c.label == "LRM(2,4):override[nonlinear-ep(8,11,4)]"
    assert digit_set(c) == digit_set(shipped)

    # wrong length
    with pytest.raises(OverrideError):
        lrm(1, 2, overrides={(1, 2): lrm(1, 1)})
    # right length, wrong size
    with pytest.raises(OverrideError):
        lrm(1, 2, overrides={(1, 2): lrm(0, 2)})
    # right length and size, wrong distance: (1,0) has Lee weight 1, not 2
    bad = Z4Code(GeneratorMatrix.from_strings(["10", "02"]))
    assert bad.log2_size == theorem1_params(1, 2).k
    with pytest.raises(OverrideError):
        lrm(1, 2, overrides={(1, 2): bad})


def test_override_deep_node_shows_in_trace():
    shipped = shipped_nonlinear_base()
    c = lrm(3, 5, overrides={(2, 4): shipped})
    assert "override[nonlinear-ep(8,11,4)]" in c.label
    assert c.label.startswith("LRM(3,5):plotkin[")


def test_lrm_nodes_are_the_nodes_lrm_builds():
    # an override shows in the label exactly where lrm_nodes says the
    # recursion reaches its node
    plain = {(r, m): lrm(r, m) for m in range(1, 6) for r in range(m + 1)}
    for r, m in plain:
        reached = lrm_nodes(r, m)
        for (nr, nm), code in plain.items():
            label = lrm(r, m, {(nr, nm): code}, budget=32).label
            assert (f"LRM({nr},{nm}):override" in label) == ((nr, nm) in reached), (r, m, nr, nm)
    # an override replaces its subtree: (2,5)'s hides (2,4) from LRM(2,6),
    # while (3,6) still reaches (2,4) through (3,5)
    assert (2, 4) in lrm_nodes(2, 6) and (2, 4) not in lrm_nodes(2, 6, {(2, 5)})
    assert (2, 4) in lrm_nodes(3, 6, {(2, 5)})
    with pytest.raises(ValueError, match="invalid order"):
        lrm_nodes(5, 4)


def test_plotkin_size_law_along_recursion():
    for m in range(2, 5):
        for r in range(1, m):
            k = lrm(r, m).log2_size
            assert k == lrm(r, m - 1).log2_size + lrm(r - 1, m - 1).log2_size
            assert k == theorem1_params(r, m).k


@st.composite
def _code_pairs(draw):
    # at most 3 rows each keeps the Plotkin code at <= 2^12 words
    n = draw(st.integers(1, 5))

    def code():
        rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=3))
        return Z4Code(GeneratorMatrix([Z4Word(r) for r in rows], n=n))

    return code(), code()


def lee_distance_or_inf(c):
    return min_lee_weight(c) if c.log2_size else math.inf


@settings(max_examples=120, deadline=None)
@given(pair=_code_pairs())
def test_plotkin_size_and_distance_law(pair):
    a, b = pair
    p = plotkin(a, b)
    assert p.log2_size == a.log2_size + b.log2_size
    assume(p.log2_size > 0)
    # wt(x, x+y) = wt(x) + wt(x+y) >= wt(y) for y != 0, and 2 wt(x) for y = 0
    assert min_lee_weight(p) == min(2 * lee_distance_or_inf(a), lee_distance_or_inf(b))


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(0, 1, 1)
    with pytest.raises(ValueError):
        CodeParams(1, -1, 1)
    with pytest.raises(ValueError):
        CodeParams(1, 1, 0)
    CodeParams(1, 0, 0)  # zero code: no distance constraint


def test_z4code_type_cached():
    c = lrm(1, 2)
    assert c.type_counts == (1, 1)
    assert c.standard_form is c.standard_form
    assert c.contains(Z4Word.from_string("20"))
    assert not c.contains(Z4Word.from_string("10"))


def test_lrm_validates_each_override_once(monkeypatch):
    # (2,4) lies under both LRM(3,5) and LRM(2,5) on the way to LRM(3,6)
    calls = []
    real = codes._validate_override

    def spy(code, r, m, budget):
        calls.append((r, m))
        return real(code, r, m, budget)

    monkeypatch.setattr(codes, "_validate_override", spy)
    base = shipped_nonlinear_base()
    got = lrm(3, 6, {(2, 4): base})
    assert calls == [(2, 4)]
    assert got.label.count("LRM(2,4):override") == 2


def test_override_distance_is_swept_once_per_object(monkeypatch):
    # every order over (2,4) validates the same override object, but only
    # the first call sweeps it; the budget is still checked on every call
    sweeps = []
    real = codes._engine.Route.witness

    def spy(route, workers=1):
        sweeps.append(route.sf.log2_size)
        return real(route, workers)

    monkeypatch.setattr(codes._engine.Route, "witness", spy)
    base = shipped_nonlinear_base()
    for r, m in [(2, 4), (2, 5), (3, 5)]:
        lrm(r, m, {(2, 4): base})
    assert sweeps == [11]
    with pytest.raises(CapacityError, match=r"override at \(2,4\): code has 2\^11 words"):
        lrm(2, 5, {(2, 4): base}, budget=10)
    assert sweeps == [11]
