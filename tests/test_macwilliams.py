"""The dual-code route: the dual of a standard form, the Lee MacWilliams
transform, and the counts and witness of the route _engine.lee_route
chooses, each checked against the exhaustive direct sweep.  The public
lee_weight_distribution and min_lee_weight_witness take that route, so the
direct references here (direct_counts, direct_min) call the engine's full
weight_histogram and min_weight_sweep on the code's own basis,
z4_basis_from_standard_form."""

import functools
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from z4rm import _engine
from z4rm.analysis import lee_weight_distribution, min_lee_weight_witness
from z4rm.codes import Z4Code, lrm, shipped_nonlinear_base, theorem1_params
from z4rm.linalg import GeneratorMatrix, codeword_at, dual_standard_form, standard_form
from z4rm.z4core import Z4Word


def dual_code(sf):
    return Z4Code(GeneratorMatrix(dual_standard_form(sf).rows, n=sf.n))


def macwilliams_counts(code):
    """code's Lee weight counts, computed from a sweep of its dual only."""
    sf = code.standard_form
    dual = dual_standard_form(sf)
    hist = _engine.weight_histogram(
        _engine.z4_basis_from_standard_form(dual), dual.log2_size, _engine.z4_add,
        _engine.lee_weights, 2 * sf.n,
    )
    return _engine.lee_macwilliams(hist, sf.log2_size)


def direct_counts(code, workers=1):
    """code's Lee weight counts, computed from a sweep of its own words."""
    sf = code.standard_form
    hist = _engine.weight_histogram(
        _engine.z4_basis_from_standard_form(sf), sf.log2_size, _engine.z4_add,
        _engine.lee_weights, 2 * sf.n, workers=workers,
    )
    return [int(a) for a in hist]


def direct_min(sf, workers=1):
    """(minimum nonzero Lee weight, sweep index of its first word) of sf's
    code, from a full sweep of its own words."""
    return _engine.min_weight_sweep(
        _engine.z4_basis_from_standard_form(sf), sf.log2_size, _engine.z4_add,
        _engine.lee_weights, workers=workers,
    )


def monomial_copy(code, perm, negate):
    """Coordinates permuted by perm, then negated where negate is set: the
    Lee weights, hence all claimed parameters, are unchanged."""
    rows = [
        Z4Word([(-row[p] if s else row[p]) % 4 for p, s in zip(perm, negate)])
        for row in code.generators
    ]
    return Z4Code(GeneratorMatrix(rows, n=code.n), label="monomial-copy")


LRM24_COPY = monomial_copy(lrm(2, 4), [3, 0, 6, 1, 7, 2, 5, 4], [1, 0, 0, 1, 1, 0, 1, 0])
OVERRIDES = [None, {(2, 4): shipped_nonlinear_base()}, {(2, 4): LRM24_COPY}]
OVERRIDE_IDS = ["plain", "shipped-base", "lrm24-copy"]


@pytest.mark.parametrize(
    "code",
    [lrm(r, m) for m in range(1, 5) for r in range(m + 1)]
    + [lrm(2, 5), shipped_nonlinear_base(), lrm(2, 5, {(2, 4): shipped_nonlinear_base()})],
    ids=lambda c: c.label[:40],
)
def test_macwilliams_matches_direct_distribution(code):
    sf = code.standard_form
    assert max(sf.log2_size, 2 * sf.n - sf.log2_size) <= 16
    assert macwilliams_counts(code) == direct_counts(code)


@st.composite
def _generator_matrices(draw):
    # a random row usually adds 2 to log2 |C|, so n - 8..8 rows keep both
    # C and its dual near 2^n words
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(max(0, n - 8), min(n, 8)))):
        row = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if draw(st.integers(0, 3)) == 0:
            row = [2 * s % 4 for s in row]
        rows.append(Z4Word(row))
    return GeneratorMatrix(rows, n=n)


def _identity(n):
    return GeneratorMatrix([Z4Word([int(i == j) for j in range(n)]) for i in range(n)], n=n)


@settings(max_examples=80, deadline=None)
@given(g=_generator_matrices())
@example(g=GeneratorMatrix([], n=1))
@example(g=GeneratorMatrix([], n=5))
@example(g=_identity(1))
@example(g=_identity(6))
def test_dual_and_macwilliams_properties(g):
    sf = standard_form(g)
    n, k = sf.n, sf.log2_size
    assume(max(k, 2 * n - k) <= 16)
    dual = dual_standard_form(sf)
    for y in dual.rows:
        for x in sf.rows:
            assert sum(a * b for a, b in zip(x, y)) % 4 == 0
    # |C| * |C⊥| = 4^n, with the dual's size taken from its own reduction
    assert standard_form(GeneratorMatrix(dual.rows, n=n)).log2_size == dual.log2_size
    assert k + dual.log2_size == 2 * n

    code, dual_c = Z4Code(g), dual_code(sf)
    direct = direct_counts(code)
    dual_direct = direct_counts(dual_c)
    assert _engine.lee_macwilliams(dual_direct, k) == direct
    assert _engine.lee_macwilliams(direct, 2 * n - k) == dual_direct

    # a 4-word witness block makes the early stop cut a multi-block sweep,
    # and no fixed route cost sends every code whose dual is smaller
    # through the dual
    with mock.patch.object(_engine, "WITNESS_BLOCK_LOG2", 2), \
            mock.patch.object(_engine, "FIXED_COST_LOG2", float("-inf")):
        assert list(lee_weight_distribution(code).counts) == direct
        if k:
            assert _engine.lee_route(sf).witness() == direct_min(sf)


def test_macwilliams_rejects_inconsistent_counts():
    # A_0 = (1 + 2*1) / 2 is not a whole number
    with pytest.raises(ArithmeticError, match="not a multiple"):
        _engine.lee_macwilliams([1, 2, 0], 1)
    # two zero words: the counts divide but sum to 4, not 2^1
    with pytest.raises(ArithmeticError, match="sum to 4"):
        _engine.lee_macwilliams([2, 0, 0], 1)


def test_krawtchouk_recurrence_matches_binomial_sum():
    from math import comb

    for length in range(2, 12):
        for w in range(length + 1):
            want = [
                sum((-1) ** i * comb(w, i) * comb(length - w, j - i) for i in range(j + 1))
                for j in range(length + 1)
            ]
            assert _engine._krawtchouk(w, length) == want


@pytest.mark.parametrize("overrides", OVERRIDES, ids=OVERRIDE_IDS)
def test_smaller_side_matches_exhaustive_sweep(overrides):
    orders = [
        (r, m)
        for m in range(1, 9)
        for r in range(m + 1)
        if theorem1_params(r, m).k <= 26 and (overrides is None or (r >= 2 and m - r >= 2))
    ]
    for r, m in orders:
        sf = lrm(r, m, overrides).standard_form
        assert _engine.lee_route(sf).witness(workers=2) == direct_min(sf, workers=2), (r, m)


@functools.cache
def _direct_reference(r, m, override_index):
    """(code, direct counts, (d, witness) of the direct min sweep)."""
    code = lrm(r, m, OVERRIDES[override_index])
    sf = code.standard_form
    d, t = direct_min(sf, workers=2)
    return code, direct_counts(code, workers=2), (d, codeword_at(sf, t))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("override_index", range(len(OVERRIDES)), ids=OVERRIDE_IDS)
@pytest.mark.parametrize("r, m", [(3, 4), (4, 4), (3, 5)])
def test_public_calls_match_direct_sweep(r, m, override_index, workers):
    # LRM(3,4) (2^15 words), LRM(4,4) (2^16, the whole space) and LRM(3,5)
    # (2^26) have smaller duals, so the public calls go through MacWilliams;
    # of the three, only LRM(3,5) contains the overridden (2,4) node
    code, counts, (d, witness) = _direct_reference(r, m, override_index)
    assert _engine.lee_route(code.standard_form, code.parts)[0] == "dual"
    assert list(lee_weight_distribution(code, workers=workers).counts) == counts
    got_d, got_witness = min_lee_weight_witness(code, workers=workers)
    assert (got_d, got_witness.digits()) == (d, witness.digits())
