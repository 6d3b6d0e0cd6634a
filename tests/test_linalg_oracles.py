"""linalg's packed reduction and what is built on it (membership,
mirror_index, dual_standard_form, _syndromes, intersection) and the words'
one lane-reader pair, against their lane-by-lane forms in oracles.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_macwilliams import monomial_copy
from test_plotkin_route import ROUTE_VARIANTS
from test_setup_oracles import _matrices
from z4rm import linalg
from z4rm.codes import Z4Code, lrm, plotkin
from z4rm.linalg import (
    GeneratorMatrix,
    codeword_at,
    dual_standard_form,
    enumerate_codewords,
    intersection,
    membership,
    mirror_index,
    standard_form,
)
from z4rm.z4core import BitWord, Z4Word, add, negate


def _words(draw, sf, count):
    """count codewords, count random words, and each codeword plus 1 or 2
    at one lane, which lands at a unit, pivot-2 or free column."""
    out = []
    for _ in range(count):
        x = draw(st.lists(st.integers(0, 3), min_size=sf.n, max_size=sf.n))
        out.append(Z4Word(x))
        w = codeword_at(sf, draw(st.integers(0, (1 << sf.log2_size) - 1)))
        out.append(w)
        bump = draw(st.integers(1, 2)) << 2 * draw(st.integers(0, sf.n - 1))
        out.append(add(w, Z4Word._raw(sf.n, bump)))
    return out


def _assert_linalg_equals_the_oracles(sf, words):
    assert [membership(sf, x) for x in words] == [oracles.membership(sf, x) for x in words]
    assert mirror_index(sf) == oracles.mirror_index(sf)
    assert dual_standard_form(sf) == oracles.dual_standard_form(sf)
    assert linalg._syndromes(sf, words) == oracles.syndromes(sf, words)


@settings(max_examples=100, deadline=None)
@given(g=_matrices(14), data=st.data())
def test_reduce_gives_each_codeword_its_frozen_index(g, data):
    sf = standard_form(g)
    t = data.draw(st.integers(0, (1 << sf.log2_size) - 1))
    assert linalg._reduce(sf, codeword_at(sf, t)._packed) == (t, 0)


@settings(max_examples=100, deadline=None)
@given(g=_matrices(14), data=st.data())
def test_reduce_leaves_a_rest_clear_at_the_pivots(g, data):
    sf = standard_form(g)
    x = Z4Word(data.draw(st.lists(st.integers(0, 3), min_size=sf.n, max_size=sf.n)))
    t, rest = linalg._reduce(sf, x._packed)
    assert all(rest >> 2 * col & 3 == 0 for col in sf.unit_cols)
    assert all(rest >> 2 * col & 3 != 2 for col in sf.two_cols)
    assert add(x, negate(Z4Word._raw(sf.n, rest))) == codeword_at(sf, t)


@settings(max_examples=100, deadline=None)
@given(g=_matrices(14), data=st.data())
def test_packed_linalg_equals_the_lane_by_lane_forms(g, data):
    sf = standard_form(g)
    _assert_linalg_equals_the_oracles(sf, _words(data.draw, sf, 3))


@st.composite
def _pairs(draw):
    """(A, B) of one length: B's rows drawn on their own, or partly or
    wholly from Z4 combinations and multiples of A's (B ⊆ A when wholly and
    A has rows)."""
    a = draw(_matrices(14))
    kinds = draw(st.sampled_from([
        (), ("combination", "repeat", "multiple"), ("random", "even", "combination"),
    ]))
    b = draw(_matrices(14, a.n, a.rows, kinds) if kinds else _matrices(14, a.n))
    return standard_form(a), standard_form(b)


@settings(max_examples=150, deadline=None)
@given(parts=_pairs())
def test_intersection_equals_the_lane_by_lane_form(parts):
    a, b = parts
    got, want = intersection(a, b), oracles.intersection(a, b)
    assert got == want
    assert (got is b) == (want is b)


@st.composite
def _maybe_doublings(draw):
    """Rows of length n <= 10 spanning at most 2^12 words: drawn on their
    own, or the rows of plotkin(A, B) for drawn A and B of length n/2, with
    or without one drawn row more."""
    n = draw(st.integers(1, 10))
    if n % 2 or draw(st.booleans()):
        return draw(_matrices(6, n))
    a, b = (Z4Code(draw(_matrices(rows, n // 2))) for rows in (3, 2))
    extra = draw(_matrices(1, n)).rows
    return GeneratorMatrix(plotkin(a, b).generators.rows + extra, n=n)


@settings(max_examples=200, deadline=None)
@given(g=_maybe_doublings())
def test_plotkin_split_equals_the_enumeration_oracle(g):
    sf = standard_form(g)
    got = linalg.plotkin_split(sf)
    want = oracles.plotkin_split(list(enumerate_codewords(sf)))
    assert (got is None) == (want is None)
    assert got is None or sf.n % 2 == 0
    if got is not None:
        assert tuple({tuple(oracles.z4_lanes(w)) for w in enumerate_codewords(p)}
                     for p in got) == want


def _monomial_map(rng, n):
    return rng.permutation(n).tolist(), rng.integers(0, 2, n).tolist()


@pytest.mark.parametrize("copy", [False, True])
@pytest.mark.parametrize("variant", ROUTE_VARIANTS)
def test_packed_linalg_of_every_order_equals_the_lane_by_lane_forms(variant, copy):
    # plain and overridden orders with m <= 7, and seeded monomial copies;
    # the words are the code's rows, a sum of them, and one bumped at each end
    rng = np.random.default_rng(11)
    nested = 0
    for m in range(1, 8):
        for r in range(m + 1):
            code = lrm(r, m, ROUTE_VARIANTS[variant])
            split = linalg.plotkin_split(code.standard_form)
            parts = split and [Z4Code(GeneratorMatrix(p.rows, n=p.n)) for p in split]
            if copy:  # the code, and both its parts by one map of their length
                code = monomial_copy(code, *_monomial_map(rng, code.n))
                if parts:
                    part_map = _monomial_map(rng, parts[0].n)
                    parts = [monomial_copy(p, *part_map) for p in parts]
            sf = code.standard_form
            rows = list(code.generators)
            words = rows + [add(rows[0], rows[-1])]
            words += [add(words[-1], Z4Word._raw(sf.n, bump)) for bump in (1, 2 << 2 * sf.n - 2)]
            _assert_linalg_equals_the_oracles(sf, words)
            if parts:
                a, b = (p.standard_form for p in parts)
                got, want = intersection(a, b), oracles.intersection(a, b)
                assert got == want and (got is b) == (want is b), (r, m)
                nested += got is b
    assert nested  # the B ⊆ A test is reached


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 70), data=st.data())
@pytest.mark.parametrize("cls, lane, lanes", [
    (Z4Word, oracles.z4_lane, oracles.z4_lanes),
    (BitWord, oracles.bit_lane, oracles.bit_lanes),
])
def test_lane_readers_equal_the_per_class_forms(cls, lane, lanes, n, data):
    w = cls._raw(n, data.draw(st.integers(0, (1 << cls._WIDTH * n) - 1)))
    assert [w[i] for i in range(n)] == [lane(w, i) for i in range(n)]
    assert list(w) == list(lanes(w))
    for i in (-1, n):
        with pytest.raises(IndexError):
            w[i]
        with pytest.raises(IndexError):
            lane(w, i)
