"""The set-up layers that run on packed lanes, against their lane-by-lane
forms in oracles.py: standard_form, the sweep's low table of images, and
the Plotkin route's bit basis must equal them exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_macwilliams import monomial_copy
from test_plotkin_route import ROUTE_VARIANTS, _part_pairs
from z4rm import _engine
from z4rm.codes import lrm
from z4rm.linalg import GeneratorMatrix, intersection, plotkin_split, standard_form
from z4rm.z4core import Z4Word


KINDS = ("random", "even", "repeat", "combination", "multiple")


@st.composite
def _matrices(draw, max_rows=24, n=None, pool=(), kinds=KINDS):
    """0-max_rows rows of length n, or 1-70 (one to three limbs): random
    rows, even rows, repeats, Z4 combinations of earlier rows and of the
    pool's, and 2 or 3 times one."""
    n = draw(st.integers(1, 70)) if n is None else n
    symbols = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(kinds))
        seen = rows + list(pool)
        if kind == "random" or not seen:
            row = draw(symbols)
            if kind == "even":
                row = [2 * s % 4 for s in row]
        elif kind == "even":
            row = [2 * s % 4 for s in draw(symbols)]
        elif kind == "repeat":
            row = list(draw(st.sampled_from(seen)))
        elif kind == "combination":
            picks = draw(st.lists(st.tuples(st.sampled_from(seen), st.integers(0, 3)),
                                  min_size=1, max_size=4))
            row = [sum(c * w[i] for w, c in picks) % 4 for i in range(n)]
        else:
            row = [draw(st.sampled_from([2, 3])) * s % 4 for s in draw(st.sampled_from(seen))]
        rows.append(Z4Word(row))
    return GeneratorMatrix(rows, n=n)


@settings(max_examples=300, deadline=None)
@given(g=_matrices())
def test_standard_form_equals_the_lane_by_lane_reduction(g):
    assert standard_form(g) == oracles.standard_form(g)


@pytest.mark.parametrize("copy", [False, True])
@pytest.mark.parametrize("variant", ROUTE_VARIANTS)
def test_standard_form_of_every_order_equals_the_lane_by_lane_reduction(variant, copy):
    # plain and overridden orders with m <= 7, and seeded monomial copies
    rng = np.random.default_rng(7)
    for m in range(1, 8):
        for r in range(m + 1):
            code = lrm(r, m, ROUTE_VARIANTS[variant])
            if copy:
                code = monomial_copy(code, rng.permutation(code.n).tolist(),
                                     rng.integers(0, 2, code.n).tolist())
            g = code.generators
            assert standard_form(g) == oracles.standard_form(g), (r, m)


@settings(max_examples=120, deadline=None)
@given(
    limbs=st.integers(1, 3),
    k=st.integers(0, 18),
    below=st.booleans(),
    xor=st.booleans(),
    data=st.data(),
)
def test_low_table_equals_doubling_by_the_ring_combine(limbs, k, below, xor, data):
    # block_log2 below k sweeps several blocks; at or above it, one
    block_log2 = data.draw(st.integers(0, k) if below else st.integers(k, 20))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, 2**64, size=(k, limbs), dtype=np.uint64, endpoint=False)
    # even words and even limbs, which double the table by XOR
    even = rng.random((k, limbs)) < 0.4
    basis[even] &= np.uint64(0xAAAAAAAAAAAAAAAA)
    combine = _engine.xor_add if xor else _engine.z4_add
    got = _engine.Sweep(basis, k, combine, block_log2).images
    want = oracles.low_table(basis, min(k, block_log2), combine)
    assert got.dtype == want.dtype and got.flags.f_contiguous
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(parts=_part_pairs())
def test_plotkin_bit_basis_equals_the_alpha_beta_reduction(parts):
    a, b = (p.standard_form for p in parts)
    inter = intersection(a, b)
    assert _engine.plotkin_bit_basis(a, b, inter) == oracles.plotkin_bit_basis(a, b, inter)


@pytest.mark.parametrize("variant", ROUTE_VARIANTS)
def test_plotkin_bit_basis_of_every_plotkin_order(variant):
    nested = set()
    for m in range(2, 8):
        for r in range(m + 1):
            split = plotkin_split(lrm(r, m, ROUTE_VARIANTS[variant]).standard_form)
            if split is None:
                continue
            a, b = split
            inter = intersection(a, b)
            if inter is b:
                nested.add((r, m))
            assert _engine.plotkin_bit_basis(a, b, inter) == \
                oracles.plotkin_bit_basis(a, b, inter), (r, m)
    assert nested  # the B ⊆ A shortcut is reached
