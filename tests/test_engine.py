"""The sweep's block kernel: weights of table word t plus offset c taken as
the Hamming weight of image(t) ^ image(-c), checked word by word against
the scalar Lee weights of the frozen enumeration, and for binary codes
against the Hamming weights of the span."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z4rm import _engine
from z4rm.linalg import GeneratorMatrix, enumerate_codewords, standard_form
from z4rm.z4core import BitWord, Z4Word, add, gray, lee_weight, negate


def _random_codes():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 71))  # one to three limbs
        rows = [Z4Word([int(v) for v in rng.integers(0, 4, n)])
                for _ in range(int(rng.integers(1, 5)))]
        yield GeneratorMatrix(rows, n=n)
    # n = 130 with the all-one row: its double weighs 260, past any uint8
    rows = [Z4Word([1] * 130)] + [Z4Word([int(v) for v in rng.integers(0, 4, 130)])
                                  for _ in range(3)]
    yield GeneratorMatrix(rows, n=130)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_weights_match_scalar_lee_weights_per_index(workers):
    # 2-, 4- and 8-word blocks leave order-4 rows in the high basis, so block
    # offsets have odd lanes and a sign slip in image(-c) moves the witness
    for g in _random_codes():
        sf = standard_form(g)
        k = sf.log2_size
        if k == 0:
            continue
        lee = [lee_weight(w) for w in enumerate_codewords(sf)]
        want = (min(lee[1:]), 1 + lee[1:].index(min(lee[1:])))
        basis = _engine.z4_basis_from_standard_form(sf)
        for block_log2 in (1, 2, 3):
            got = _engine.min_weight_sweep(
                basis, k, _engine.z4_add, _engine.lee_weights,
                workers=workers, block_log2=block_log2,
            )
            assert got == want, (g.n, k, block_log2)
            hist = _engine.weight_histogram(
                basis, k, _engine.z4_add, _engine.lee_weights,
                max_weight=2 * g.n, workers=workers, block_log2=block_log2,
            )
            assert list(hist) == list(np.bincount(lee, minlength=2 * g.n + 1))
    assert max(lee) == 260


@pytest.mark.parametrize("workers", [1, 2])
def test_binary_sweeps_across_blocks(workers):
    # 2-, 4- and 8-word blocks of codes one to three limbs long, so that
    # block offsets XOR multi-limb masks
    rng = np.random.default_rng(2025)
    for _ in range(30):
        n = int(rng.integers(1, 193))
        k = int(rng.integers(4, 8))
        rows = [BitWord([int(b) for b in rng.integers(0, 2, n)]) for _ in range(k)]
        # sweep index t toggles rows[-1-j] for each set bit j of t
        span = [0]
        for row in reversed(rows):
            span += [w ^ row._packed for w in span]
        weights = [w.bit_count() for w in span]
        want = (min(weights[1:]), 1 + weights[1:].index(min(weights[1:])))
        basis = _engine.xor_basis_from_rows(rows, n)
        for block_log2 in (1, 2, 3):
            got = _engine.min_weight_sweep(
                basis, k, _engine.xor_add, _engine.bit_weights,
                workers=workers, block_log2=block_log2,
            )
            assert got == want, (n, k, block_log2)
            hist = _engine.weight_histogram(
                basis, k, _engine.xor_add, _engine.bit_weights,
                max_weight=n, workers=workers, block_log2=block_log2,
            )
            assert list(hist) == list(np.bincount(weights, minlength=n + 1))


@st.composite
def _word_pairs(draw):
    limbs = draw(st.integers(1, 4))
    n = draw(st.integers(32 * (limbs - 1) + 1, 32 * limbs))
    digits = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return Z4Word(draw(digits)), Z4Word(draw(digits))


@settings(max_examples=200, deadline=None)
@given(pair=_word_pairs())
def test_in_lane_gray_image_is_an_isometry(pair):
    x, c = pair
    n = len(x)
    packed = _engine.pack_rows([x, c], n, 2)
    image = _engine.gray_lanes(packed)
    assert np.array_equal(_engine.gray_lanes(image), packed)
    # lane i holds (beta_i, gamma_i): gray(x) with its two blocks interleaved
    g = gray(x)._packed
    got = sum(int(v) << (64 * limb) for limb, v in enumerate(image[0]))
    for i in range(n):
        assert (got >> (2 * i + 1)) & 1 == (g >> i) & 1
        assert (got >> (2 * i)) & 1 == (g >> (n + i)) & 1
    # the block masks' lane arithmetic on Python ints
    lo = ((1 << 2 * n) - 1) // 3
    assert _engine.z4_lane_add(x._packed, c._packed, lo) == add(x, c)._packed
    mask = _engine.z4_lane_mask(c._packed, lo)
    negated = _engine.gray_lanes(_engine.pack_rows([negate(c)], n, 2))[0]
    assert mask == sum(int(v) << (64 * limb) for limb, v in enumerate(negated))
    assert (got ^ mask).bit_count() == lee_weight(add(x, c))
    assert int(_engine.lee_weights(packed[:1])[0]) == lee_weight(x)
