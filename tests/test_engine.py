"""The sweep's block kernel: weights of table word t plus offset c taken as
the Hamming weight of image(t) ^ image(-c), checked word by word against
the scalar Lee weights of the frozen enumeration, with and without the
negation pairing of blocks, and for binary codes against the Hamming
weights of the span; the orbit sweeps, which also pair each block with its
complement (x + 2·1, or x + 1 on the XOR path), against the unpaired full
sweep; and the threaded reducer: every result the same for any worker
count, and an error in any block raised, never a partial result."""

import functools
import itertools
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_linalg import _counted_threads
from test_setup_oracles import _matrices
from z4rm import _engine
from z4rm import analysis
from z4rm.analysis import binary_code_params
from z4rm.codes import lrm, rm_binary
from z4rm.linalg import (
    GeneratorMatrix,
    enumerate_codewords,
    intersection,
    mirror_index,
    plotkin_split,
    standard_form,
)
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
            assert got == want[0], (g.n, k, block_log2, units)
            # no word weighs 0, so a search stopping at 0 never stops
            got = _engine.first_block_at_most(basis, k, _engine.z4_add, 0, block_log2, units)
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
    assert got == min(lee[1:])
    assert len(run) == 36
    run.clear()
    got = _engine.first_block_at_most(basis, k, _engine.z4_add, 0, block_log2=1, units=sf.k1)
    assert got == (min(lee[1:]), 1 + lee[1:].index(min(lee[1:])))
    assert len(run) == 36


@settings(max_examples=100, deadline=None)
@given(g=_matrices(max_rows=6), block_log2=st.one_of(st.none(), st.integers(0, 3)))
def test_codeword_lines_are_the_enumerated_words(g, block_log2):
    # 1- to 8-word blocks of text, through a smaller text bound, and the
    # default bound, one block for these codes
    sf = standard_form(g)
    want = "".join(w.digits() + "\n" for w in enumerate_codewords(sf, budget=12))
    text_log2 = _engine.TEXT_BLOCK_LOG2
    if block_log2 is not None:
        text_log2 = sf.n.bit_length() + block_log2
    with mock.patch.object(_engine, "TEXT_BLOCK_LOG2", text_log2):
        assert "".join(_engine.codeword_lines(sf)) == want


def test_codeword_lines_keep_each_block_of_text_small():
    # 2^13 lanes, the longest code file: 2^7 words in blocks of 32, each
    # 32 lines of 8193 bytes
    rows = [[1] * 8192, [0, 1] * 4096, [0, 0, 1, 1] * 2048, [0] * 8191 + [2]]
    sf = standard_form(GeneratorMatrix([Z4Word(r) for r in rows]))
    blocks = list(_engine.codeword_lines(sf))
    assert [len(b) for b in blocks] == [32 * 8193] * 4
    assert "".join(blocks) == "".join(w.digits() + "\n" for w in enumerate_codewords(sf))


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
            assert got == want[0], (n, k, block_log2)
            got = _engine.first_block_at_most(basis, k, _engine.xor_add, 0, block_log2)
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
    # weight_histogram's sum check would catch a thread's dropped partial
    # only as an ArithmeticError; every sweep must raise the block's own
    # error and leave no thread
    sf = standard_form(GeneratorMatrix(
        [Z4Word([1, 0, 0, 1, 2, 3]), Z4Word([0, 1, 0, 3, 1, 1]), Z4Word([0, 0, 1, 1, 3, 2])],
        n=6))
    k = sf.log2_size
    basis = _engine.z4_basis_from_standard_form(sf)
    a, b = plotkin_split(lrm(2, 6).standard_form)
    inter = intersection(a, b)
    calls = [
        # 2-word blocks of 2^6 words; the plotkin route's 2^16 words in 2^14
        lambda: _engine.min_weight_sweep(basis, k, _engine.z4_add, _engine.lee_weights,
                                         workers=4, block_log2=1),
        lambda: _engine.first_block_at_most(basis, k, _engine.z4_add, 0, block_log2=1),
        lambda: _engine.weight_histogram(basis, k, _engine.z4_add, _engine.lee_weights,
                                         max_weight=12, workers=4, block_log2=1),
        lambda: _engine.plotkin_lee_distribution(a, b, inter),
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
    # the histogram, the minimum, and a search stopped at the true distance d
    # or above it, where a block after the one that stops the search may hold
    # a smaller weight, on 2- to 8-word blocks.  The search takes no workers:
    # it runs in the calling thread, whatever the other threads do
    basis, k, combine, max_weight, units = case
    sweep = dict(block_log2=block_log2, units=units)
    _same_for_1_and_4_workers(lambda workers: _engine.weight_histogram(
        basis, k, combine, None, max_weight, workers=workers, **sweep))

    def search(stop_at):
        return lambda workers: _engine.first_block_at_most(basis, k, combine, stop_at, **sweep)

    best = _same_for_1_and_4_workers(lambda workers: _engine.min_weight_sweep(
        basis, k, combine, None, workers=workers, **sweep))
    if best is not None:
        for stop_at in range(best, best + 9):
            assert best <= _same_for_1_and_4_workers(search(stop_at))[0] <= stop_at


def _block_minima(lee, size):
    """(least weight, its first index) of each block of size words of the
    weights lee, in index order, index 0 (the zero word) left out."""
    minima = []
    for start in range(0, len(lee), size):
        first = max(start, 1)
        block = lee[first : start + size]
        minima.append((min(block), first + block.index(min(block))) if block else None)
    return minima


@pytest.mark.parametrize("workers", [1, 4])
def test_search_returns_the_first_block_at_or_below_stop_at(monkeypatch, workers):
    # every stop_at from d to the largest weight, on 2- to 8-word blocks,
    # with and without negation pairing: the result is that of the first
    # block, in index order, whose least weight is <= stop_at, and no block
    # after it is weighed.  The full sweep at workers proves that d
    run = []
    weights = _engine.Sweep.weights
    monkeypatch.setattr(_engine.Sweep, "weights",
                        lambda self, h, scratch: run.append(h) or weights(self, h, scratch))
    with _four_cpus():
        for g in _random_codes():
            sf = standard_form(g)
            k = sf.log2_size
            if k == 0:
                continue
            lee = [lee_weight(w) for w in enumerate_codewords(sf)]
            basis = _engine.z4_basis_from_standard_form(sf)
            for block_log2, units in itertools.product((1, 2, 3), (0, sf.k1)):
                minima = _block_minima(lee, 1 << min(k, block_log2))
                sweep = dict(block_log2=block_log2, units=units)
                assert _engine.min_weight_sweep(
                    basis, k, _engine.z4_add, None, workers=workers, **sweep) == min(lee[1:])
                for stop_at in range(min(lee[1:]), max(lee) + 1):
                    h = next(h for h, r in enumerate(minima) if r and r[0] <= stop_at)
                    run.clear()
                    got = _engine.first_block_at_most(basis, k, _engine.z4_add, stop_at, **sweep)
                    assert got == minima[h], (g.n, k, block_log2, units, stop_at)
                    assert max(run) == h


def test_only_full_sweeps_start_threads(monkeypatch):
    # at workers=4 on four CPUs, the Plotkin route's counts and witness and
    # a search that goes on past block 0 run in the calling thread; full
    # sweeps of more than one block each start three threads
    sf = lrm(2, 6).standard_form
    a, b = plotkin_split(sf)
    route = _engine.Route("plotkin", 0.0, sf, (a, b, intersection(a, b)))
    want = route.counts(), route.witness()
    small = standard_form(GeneratorMatrix.from_strings(["123", "230", "302"]))
    basis, k = _engine.z4_basis_from_standard_form(small), small.log2_size
    sweep = dict(workers=4, block_log2=2)
    full = _engine.min_weight_sweep(basis, k, _engine.z4_add, None, block_log2=2)
    with _four_cpus():
        started = _counted_threads(monkeypatch)
        assert (route.counts(workers=4), route.witness(workers=4)) == want
        # no word weighs 0, so the search weighs all 16 blocks
        assert _engine.first_block_at_most(basis, k, _engine.z4_add, 0, block_log2=2)[0] \
            == full
        assert started == []
        _engine.min_weight_sweep(basis, k, _engine.z4_add, None, **sweep)
        assert len(started) == 3
        _engine.weight_histogram(basis, k, _engine.z4_add, None, 2 * small.n, **sweep)
        assert len(started) == 6


@st.composite
def _mirrored_z4_codes(draw):
    """(standard form, P) of a random Z4 code of one to three limbs, up to
    four random rows, some of order 2, with 2·1 or 1 appended, and P the
    index of 2·1 in it."""
    n = draw(st.integers(1, 96))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rows.append(Z4Word([2 * s % 4 for s in row] if draw(st.booleans()) else row))
    rows.insert(draw(st.integers(0, len(rows))), Z4Word([draw(st.sampled_from([1, 2]))] * n))
    sf = standard_form(GeneratorMatrix(rows, n=n))
    return sf, mirror_index(sf)


def _with_workers(workers, call):
    with _four_cpus():
        return call(workers)


def _with_mirror(rows):
    sf = standard_form(GeneratorMatrix.from_strings(rows))
    return sf, mirror_index(sf)


@settings(max_examples=80, deadline=None)
@given(code=_mirrored_z4_codes(), block_log2=st.integers(0, 3),
       workers=st.sampled_from([1, 4]), paired=st.booleans())
# the first word of weight 4, at index 12, is the negative of an image whose
# field, neg(m), lies below m: a fold that skips by m alone misses it
@example(code=_with_mirror(["222222222", "202320213", "310200000"]), block_log2=1,
         workers=1, paired=True)
# the first word of weight 2, at index 4, is an image, and a word of weight 3
# lies at index 3: a witness that stops at weight 3 names the wrong word
@example(code=_with_mirror(["2222", "2100"]), block_log2=0, workers=1, paired=True)
# the first word of weight 17, at index 377, is an image, and a weighed word
# of weight 17 lies at index 456
@example(code=_with_mirror(["111111111111111111111111111", "303112110322103103110232011",
                            "322023013120030032103021312", "300001332001131333032311312",
                            "032210112203202302020100331"]),
         block_log2=0, workers=1, paired=True)
def test_orbit_sweeps_equal_the_unpaired_full_sweep(code, block_log2, workers, paired):
    # 1- to 8-word blocks: the unit pairs lie in the block's field, straddle
    # it or sit in the table, and with units = 0 the mirror pairs whole blocks.
    # The direct route's witness is the unpaired sweep's first least word
    sf, mirror = code
    assert mirror is not None
    k, n = sf.log2_size, sf.n
    basis = _engine.z4_basis_from_standard_form(sf)
    plain = dict(units=0, mirror=None, block_log2=block_log2)
    orbit = dict(units=sf.k1 if paired else 0, mirror=mirror, block_log2=block_log2)

    def sweeps(workers, **sweep):
        return (
            _engine.min_weight_sweep(basis, k, _engine.z4_add, None, workers=workers, **sweep),
            list(_engine.weight_histogram(basis, k, _engine.z4_add, None, 2 * n,
                                          workers=workers, **sweep)),
        )

    want = sweeps(1, **plain)
    assert _with_workers(workers, lambda w: sweeps(w, **orbit)) == want
    # the complement symmetry itself: A_w = A_{2n-w}
    assert want[1] == want[1][::-1]
    first = _engine.first_block_at_most(basis, k, _engine.z4_add, 0, block_log2=block_log2)
    assert first[0] == want[0]
    assert _engine.Route("direct", k, sf, None).witness() == first


@st.composite
def _mirrored_binary_codes(draw):
    """(rows, P) of a random binary code of one to three limbs: the GF(2)
    basis that binary_code_params sweeps, of up to seven random rows and the
    all-ones row, and P its sweep index of the all-ones word."""
    n = draw(st.integers(1, 192))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = [BitWord(draw(bits))._packed for _ in range(draw(st.integers(0, 7)))]
    rows.insert(draw(st.integers(0, len(rows))), (1 << n) - 1)
    basis = analysis._gf2_row_basis(rows)
    return [BitWord._raw(n, p) for p in basis], analysis._all_ones_index(basis, n)


@settings(max_examples=80, deadline=None)
@given(code=_mirrored_binary_codes(), block_log2=st.integers(0, 3),
       workers=st.sampled_from([1, 4]))
def test_xor_orbit_sweeps_equal_the_unpaired_full_sweep(code, block_log2, workers):
    # block h pairs with h ^ (P >> low_bits), or with itself when P lies in
    # the table
    rows, mirror = code
    n, k = rows[0].n, len(rows)
    basis = _engine.xor_basis_from_rows(rows, n)
    # index bit j toggles rows[-1-j]: P's bits give the all-ones word
    assert functools.reduce(
        int.__xor__, (w._packed for j, w in enumerate(reversed(rows)) if mirror >> j & 1)
    ) == (1 << n) - 1

    def sweeps(workers, mirror):
        sweep = dict(block_log2=block_log2, mirror=mirror)
        return (
            _engine.min_weight_sweep(basis, k, _engine.xor_add, None, workers=workers, **sweep),
            list(_engine.weight_histogram(basis, k, _engine.xor_add, None, n,
                                          workers=workers, **sweep)),
        )

    want = sweeps(1, None)
    assert _with_workers(workers, lambda w: sweeps(w, mirror)) == want
    assert _engine.first_block_at_most(basis, k, _engine.xor_add, 0, block_log2)[0] == want[0]


def test_all_ones_index_is_none_without_the_all_ones_word():
    rows = [0b0110, 0b0011]
    assert analysis._all_ones_index(analysis._gf2_row_basis(rows), 4) is None
    # basis 1001, 0110, 0011: 1111 is the first two, index bits 2 and 1
    assert analysis._all_ones_index(analysis._gf2_row_basis(rows + [0b1001]), 4) == 0b110


def test_orbit_sweeps_weigh_one_block_of_each_orbit(monkeypatch):
    # LRM(2,6): 2^22 words in 64 blocks whose 6 bits are the top three unit
    # coefficients; of the 64 fields, the 8 all even pair under +2·1, the 8
    # all odd under negation, and the other 48 fall in orbits of four
    sf = lrm(2, 6).standard_form
    k = sf.log2_size
    basis = _engine.z4_basis_from_standard_form(sf)
    p = mirror_index(sf)
    run = []
    weights = _engine.Sweep.weights
    monkeypatch.setattr(_engine.Sweep, "weights",
                        lambda self, h, scratch: run.append(h) or weights(self, h, scratch))
    for units, mirror, blocks in ((sf.k1, None, 36), (sf.k1, p, 20), (0, p, 32)):
        run.clear()
        _engine.weight_histogram(basis, k, _engine.z4_add, None, 2 * sf.n, units=units,
                                 mirror=mirror)
        assert len(run) == blocks, (units, mirror)
    # the minimum weighs the same 20 blocks
    run.clear()
    assert _engine.min_weight_sweep(basis, k, _engine.z4_add, None, units=sf.k1, mirror=p) \
        == 16
    assert len(run) == 20
    # the XOR path on RM(2,6): each block with its complement
    run.clear()
    assert binary_code_params(rm_binary(2, 6)).d == 16
    assert len(run) == 32


def test_callers_pair_only_sweeps_of_more_than_one_block(monkeypatch):
    seen = []
    real = _engine.Sweep.__init__

    def spy(self, *args, mirror=None, **kwargs):
        seen.append(mirror)
        real(self, *args, mirror=mirror, **kwargs)

    monkeypatch.setattr(_engine.Sweep, "__init__", spy)
    for r, m in ((1, 4), (2, 6)):  # 2^11 words: one block; 2^22 words: 64
        sf = lrm(r, m).standard_form
        route = _engine.Route("direct", sf.log2_size, sf, None)  # LRM(2,6) splits
        route.witness()
        route.counts()
    assert [p is not None for p in seen] == [False, False, True, True]


@pytest.mark.parametrize("workers", [1, 4])
def test_a_wrong_count_pair_fails_the_sum_check(workers):
    # one block of each orbit weighed, but its mirrored count dropped: the
    # histogram would be short by those words, and must raise instead
    sf = lrm(2, 4).standard_form
    k = sf.log2_size
    basis = _engine.z4_basis_from_standard_form(sf)
    mirror = mirror_index(sf)
    orbit = _engine.Sweep.orbit

    def dropped(self, h):
        plain, _ = orbit(self, h)
        return plain, 0

    hist = dict(max_weight=2 * sf.n, block_log2=3, units=sf.k1, mirror=mirror)
    with _four_cpus():
        good = _engine.weight_histogram(basis, k, _engine.z4_add, None, workers=workers, **hist)
        assert int(good.sum()) == 1 << k
        with mock.patch.object(_engine.Sweep, "orbit", dropped), \
                pytest.raises(ArithmeticError, match="sum to"):
            _engine.weight_histogram(basis, k, _engine.z4_add, None, workers=workers, **hist)
