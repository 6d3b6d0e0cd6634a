"""The sweep's block kernel: weights of table word t plus offset c taken as
the Hamming weight of image(t) ^ image(-c), checked word by word against
the scalar Lee weights of the frozen enumeration, with and without the
negation pairing of blocks, and for binary codes against the Hamming
weights of the span; and the threaded reducer: every result the same for
any worker count, and an error in any block raised, never a partial
result."""

import functools
import itertools
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_plotkin_route import _part_pairs
from z4rm import _engine
from z4rm.analysis import binary_code_params
from z4rm.codes import lrm, rm_binary
from z4rm.linalg import GeneratorMatrix, enumerate_codewords, intersection, standard_form
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
    # offsets have odd lanes and a sign slip in image(-c) moves the witness;
    # with units = k1 the sweep also skips and doubles negation-paired blocks
    for g in _random_codes():
        sf = standard_form(g)
        k = sf.log2_size
        if k == 0:
            continue
        lee = [lee_weight(w) for w in enumerate_codewords(sf)]
        want = (min(lee[1:]), 1 + lee[1:].index(min(lee[1:])))
        basis = _engine.z4_basis_from_standard_form(sf)
        for block_log2, units in itertools.product((1, 2, 3), (0, sf.k1)):
            got = _engine.min_weight_sweep(
                basis, k, _engine.z4_add, _engine.lee_weights,
                workers=workers, block_log2=block_log2, units=units,
            )
            assert got == want, (g.n, k, block_log2, units)
            hist = _engine.weight_histogram(
                basis, k, _engine.z4_add, _engine.lee_weights,
                max_weight=2 * g.n, workers=workers, block_log2=block_log2, units=units,
            )
            assert list(hist) == list(np.bincount(lee, minlength=2 * g.n + 1))
    assert max(lee) == 260


@pytest.mark.parametrize("workers", [1, 2])
def test_paired_sweep_runs_one_block_of_each_negation_pair(monkeypatch, workers):
    # k1 = 3 unit rows and one even row, 2-word blocks: h holds all three unit
    # coefficients (q = 3), so 1/8 of the blocks have them all even and run
    # once, and of the rest the half whose first odd coefficient is 1 run
    sf = standard_form(GeneratorMatrix(
        [Z4Word(r) for r in ([1, 0, 0, 1, 2], [0, 1, 0, 3, 1], [0, 0, 1, 1, 3],
                             [0, 0, 0, 2, 2])], n=5))
    assert (sf.k1, sf.k2) == (3, 1)
    k = sf.log2_size
    basis = _engine.z4_basis_from_standard_form(sf)
    lee = [lee_weight(w) for w in enumerate_codewords(sf)]
    run = []
    weights = _engine.Sweep.weights
    monkeypatch.setattr(_engine.Sweep, "weights",
                        lambda self, h, scratch: run.append(h) or weights(self, h, scratch))
    hist = _engine.weight_histogram(
        basis, k, _engine.z4_add, _engine.lee_weights, max_weight=10,
        workers=workers, block_log2=1, units=sf.k1,
    )
    assert list(hist) == list(np.bincount(lee, minlength=11))
    blocks = 1 << (k - 1)
    assert len(run) == blocks * (1 + 2**-3) / 2 == 36
    # the first odd coefficient of the blocks run is 1, top coefficient first
    for h in range(blocks):
        coeffs = [h >> (k - 1 - 2 * i - 2) & 3 for i in range(3)]
        odd = [c for c in coeffs if c & 1]
        assert (h in run) == (not odd or odd[0] == 1), (h, coeffs)
    run.clear()
    got = _engine.min_weight_sweep(
        basis, k, _engine.z4_add, _engine.lee_weights,
        workers=workers, block_log2=1, units=sf.k1,
    )
    assert got == (min(lee[1:]), 1 + lee[1:].index(min(lee[1:])))
    assert len(run) == 36


def test_wide_binary_weights_do_not_wrap():
    # 1024 limbs: 64 * 1024 = 2^16 bits, one past what uint16 holds
    p = binary_code_params(rm_binary(0, 16))
    assert (p.n, p.k, p.d) == (65536, 1, 65536)
    basis = _engine.xor_basis_from_rows(list(rm_binary(0, 16)), 65536)
    assert _engine.Sweep(basis, 1, _engine.xor_add).weight_type == np.uint32


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


def _four_cpus():
    """Four CPUs for the sweeps' clamp, so that workers=4 starts three
    threads on any host."""
    return mock.patch.object(_engine.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                             create=True)


class _Failed(Exception):
    pass


def _failing_in_block(bad):
    """Sweep.weights that raises _Failed in block bad."""
    weights = _engine.Sweep.weights

    def failing(self, h, scratch):
        if h == bad:
            raise _Failed(h)
        return weights(self, h, scratch)

    return mock.patch.object(_engine.Sweep, "weights", failing)


def test_an_error_in_any_block_is_raised_not_a_partial_result():
    # weight_histogram has no sum check, so a thread's dropped partial would
    # pass unseen; every sweep must raise the error and leave no thread
    sf = standard_form(GeneratorMatrix(
        [Z4Word([1, 0, 0, 1, 2, 3]), Z4Word([0, 1, 0, 3, 1, 1]), Z4Word([0, 0, 1, 1, 3, 2])],
        n=6))
    k = sf.log2_size
    basis = _engine.z4_basis_from_standard_form(sf)
    code = lrm(2, 6)
    a, b = (p.standard_form for p in code.parts)
    inter = intersection(a, b)
    calls = [
        # 2-word blocks of 2^6 words; the plotkin route's 2^16 words in 2^14
        lambda: _engine.min_weight_sweep(basis, k, _engine.z4_add, _engine.lee_weights,
                                         workers=4, block_log2=1),
        lambda: _engine.min_weight_sweep(basis, k, _engine.z4_add, _engine.lee_weights,
                                         workers=4, block_log2=1, stop_at=0),
        lambda: _engine.weight_histogram(basis, k, _engine.z4_add, _engine.lee_weights,
                                         max_weight=12, workers=4, block_log2=1),
        lambda: _engine.plotkin_lee_distribution(a, b, inter, workers=4),
    ]
    threads = threading.active_count()
    with _four_cpus():
        for call, bad in itertools.product(calls, (1, 2, 3)):
            with _failing_in_block(bad), pytest.raises(_Failed):
                call()
            assert threading.active_count() == threads


@st.composite
def _sweep_cases(draw):
    """(basis, k, combine, max_weight, units) of a random Z4 code of up to
    five rows, some of order 2, of one to three limbs, or of a random
    binary code of up to eight rows and one to three limbs."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 96))
        rows = []
        for _ in range(draw(st.integers(1, 5))):
            row = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            rows.append(Z4Word([2 * s % 4 for s in row] if draw(st.booleans()) else row))
        sf = standard_form(GeneratorMatrix(rows, n=n))
        units = draw(st.sampled_from([0, sf.k1]))
        return (_engine.z4_basis_from_standard_form(sf), sf.log2_size, _engine.z4_add,
                2 * n, units)
    n = draw(st.integers(1, 192))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = [BitWord(draw(bits)) for _ in range(draw(st.integers(1, 8)))]
    return _engine.xor_basis_from_rows(rows, n), len(rows), _engine.xor_add, n, 0


def _same_for_1_and_4_workers(call):
    """call(workers) at 1 worker and at 4, each block yielding the
    interpreter lock before it is weighed, so that the threads take blocks
    in turn and hold several at once, and threads switching every 10 µs
    inside a block's fold."""
    want = call(1)
    weights = _engine.Sweep.weights

    def yielding(self, h, scratch):
        time.sleep(0)
        return weights(self, h, scratch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _four_cpus(), mock.patch.object(_engine.Sweep, "weights", yielding):
            got = call(4)
    finally:
        sys.setswitchinterval(interval)
    if isinstance(want, np.ndarray):
        want, got = list(want), list(got)
    assert got == want
    return want


@settings(max_examples=80, deadline=None)
@given(case=_sweep_cases(), block_log2=st.integers(1, 3))
def test_sweeps_do_not_depend_on_worker_count(case, block_log2):
    # the histogram, and a minimum search not stopped, or stopped at the true
    # distance d or above it, where a block after the one that stops the
    # search may hold a smaller weight, on 2- to 8-word blocks
    basis, k, combine, max_weight, units = case
    sweep = dict(block_log2=block_log2, units=units)
    _same_for_1_and_4_workers(lambda workers: _engine.weight_histogram(
        basis, k, combine, None, max_weight, workers=workers, **sweep))

    def min_weight(stop_at):
        return lambda workers: _engine.min_weight_sweep(
            basis, k, combine, None, workers=workers, stop_at=stop_at, **sweep)

    best = _same_for_1_and_4_workers(min_weight(None))
    if best is not None:
        for stop_at in range(best[0], best[0] + 9):
            _same_for_1_and_4_workers(min_weight(stop_at))


@settings(max_examples=40, deadline=None)
@given(parts=_part_pairs(), block_log2=st.integers(3, 6))
def test_plotkin_route_does_not_depend_on_worker_count(parts, block_log2):
    # 8- to 64-word blocks, so that threads share the cosets
    a, b = (p.standard_form for p in parts)
    inter = intersection(a, b)
    real = _engine.coset_histograms
    with mock.patch.object(_engine, "coset_histograms",
                           functools.partial(real, block_log2=block_log2)):
        _same_for_1_and_4_workers(
            lambda workers: _engine.plotkin_lee_distribution(a, b, inter, workers=workers))
