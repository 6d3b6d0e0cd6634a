import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z4rm import _engine
from z4rm.codes import lrm, shipped_nonlinear_base
from z4rm.errors import CapacityError, DimensionError
from z4rm.linalg import (
    GeneratorMatrix,
    codeword_at,
    enumerate_codewords,
    dual_standard_form,
    log2_size,
    membership,
    mirror_index,
    standard_form,
)
from z4rm.z4core import BitWord, Z4Word, add, lee_weight, negate

G = GeneratorMatrix.from_strings
W = Z4Word.from_string


def words(g, budget=28):
    return list(enumerate_codewords(g, budget=budget))


def test_standard_form_examples():
    assert (standard_form(G(["2"])).k1, standard_form(G(["2"])).k2) == (0, 1)
    sf = standard_form(G(["1", "2"]))
    assert (sf.k1, sf.k2) == (1, 0)
    sf = standard_form(G(["11", "02"]))
    assert (sf.k1, sf.k2) == (1, 1)
    assert sf.rows == (W("11"), W("02"))


def test_standard_form_zero_code():
    sf = standard_form(GeneratorMatrix([], n=3))
    assert (sf.k1, sf.k2) == (0, 0)
    assert sf.rows == ()
    assert sf.column_permutation == (0, 1, 2)


def test_standard_form_block_shape():
    cases = [
        G(["11", "02"]),
        G(["23", "11", "31"]),
        G(["0123", "1111", "2222"]),
        G(["22", "20"]),
        G(["002", "020", "111"]),
        G(["3210", "0322", "2002"]),
    ]
    for g in cases:
        sf = standard_form(g)
        perm = sf.column_permutation
        assert sorted(perm) == list(range(g.n))
        permuted = [[r[c] for c in perm] for r in sf.rows]
        for i in range(sf.k1):
            assert permuted[i][i] == 1
            for j in range(sf.k1):
                if j != i:
                    assert permuted[i][j] == 0
        for i in range(sf.k1, sf.k1 + sf.k2):
            row = permuted[i]
            assert all(s in (0, 2) for s in row)
            for j in range(sf.k1):
                assert row[j] == 0
            for j in range(sf.k2):
                assert row[sf.k1 + j] == (2 if sf.k1 + j == i else 0)


def test_standard_form_preserves_span():
    g = G(["23", "11", "31"])
    sf = standard_form(g)
    reduced = GeneratorMatrix(sf.rows, n=g.n)
    assert set(words(g)) == set(words(reduced))


def test_log2_size_examples():
    assert log2_size(G(["22"])) == 1
    assert log2_size(G(["11", "02"])) == 3
    assert log2_size(GeneratorMatrix([], n=2)) == 0


def test_membership_examples():
    lrm12 = G(["11", "02"])
    assert membership(lrm12, W("20")) is True
    assert membership(lrm12, W("10")) is False
    assert membership(lrm12, W("00")) is True
    with pytest.raises(DimensionError):
        membership(lrm12, W("000"))


def test_membership_agrees_with_enumeration_full_sweep():
    cases = [
        GeneratorMatrix([], n=2),
        G(["2"]),
        G(["11", "02"]),
        G(["111", "012"]),
        G(["021"]),
        G(["220", "022"]),
        G(["123", "230", "302"]),
    ]
    for g in cases:
        present = set(words(g))
        for t in itertools.product(range(4), repeat=g.n):
            x = Z4Word(t)
            assert membership(g, x) == (x in present)


def test_enumerate_examples_exact_sequences():
    assert [w.digits() for w in words(G(["2"]))] == ["0", "2"]
    assert [w.digits() for w in words(G(["1"]))] == ["0", "1", "2", "3"]
    assert [w.digits() for w in words(G(["11", "02"]))] == [
        "00",
        "02",
        "11",
        "13",
        "22",
        "20",
        "33",
        "31",
    ]


def test_enumerate_cardinality_no_duplicates():
    for g in [G(["2"]), G(["11", "02"]), G(["123", "230", "302"]), G(["22", "20"])]:
        ws = words(g)
        assert len(ws) == len(set(ws)) == 1 << log2_size(g)


def test_enumerate_budget():
    g = G(["123", "230", "302"])
    k = log2_size(g)
    with pytest.raises(CapacityError) as e:
        enumerate_codewords(g, budget=k - 1)
    assert e.value.required == k
    assert e.value.configured == k - 1


def test_enumerate_closure_small():
    for g in [G(["11", "02"]), G(["123", "230"])]:
        ws = words(g)
        for x in ws:
            for y in ws:
                assert membership(g, add(x, y))


def test_engine_matches_enumeration_order():
    for g in [G(["2"]), G(["11", "02"]), G(["123", "230", "302"]), G(["0123", "2222"])]:
        sf = standard_form(g)
        basis = _engine.z4_basis_from_standard_form(sf)
        sweep = _engine.Sweep(basis, sf.log2_size, _engine.z4_add, block_log2=2)
        packed = np.concatenate([sweep.block(h) for h in range(sweep.block_count)])
        expected = list(enumerate_codewords(sf))
        assert packed.shape[0] == len(expected)
        for got, want in zip(packed, expected):
            assert int(got[0]) == want._packed
        lee = _engine.lee_weights(packed)
        from z4rm.z4core import lee_weight

        assert [int(v) for v in lee] == [lee_weight(w) for w in expected]


@st.composite
def _generator_matrices(draw):
    # up to 5 rows keeps the log2 size <= 10; n up to 40 spans two limbs
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=5))
    return GeneratorMatrix([Z4Word(r) for r in rows], n=n)


@settings(max_examples=60, deadline=None)
@given(g=_generator_matrices(), block_log2=st.integers(1, 4))
def test_engine_order_and_codeword_at_match_enumeration(g, block_log2):
    sf = standard_form(g)
    k = sf.log2_size
    expected = list(enumerate_codewords(sf))
    basis = _engine.z4_basis_from_standard_form(sf)
    sweep = _engine.Sweep(basis, k, _engine.z4_add, block_log2=block_log2)
    packed = np.concatenate([sweep.block(h) for h in range(sweep.block_count)])
    assert [sum(int(x) << (64 * l) for l, x in enumerate(row)) for row in packed] == [
        w._packed for w in expected
    ]
    assert [codeword_at(sf, t) for t in range(1 << k)] == expected
    with pytest.raises(IndexError):
        codeword_at(sf, 1 << k)


@settings(max_examples=60, deadline=None)
@given(g=_generator_matrices(), with_2=st.booleans())
def test_mirror_index_and_the_index_maps_it_gives(g, with_2):
    # P is 2·1's index, or None without it; t ^ P is the word at t plus 2·1,
    # and t with the high bit of each odd unit pair flipped its negative
    if with_2:
        g = GeneratorMatrix(g.rows + (Z4Word([2] * g.n),), n=g.n)
    sf = standard_form(g)
    words = list(enumerate_codewords(sf))
    two = Z4Word([2] * sf.n)
    p = mirror_index(sf)
    assert p == (words.index(two) if two in words else None)
    odd = (((1 << 2 * sf.k1) - 1) // 3) << sf.k2
    for t, w in enumerate(words):
        assert words[t ^ ((t & odd) << 1)] == negate(w)
        if p is not None:
            assert words[t ^ p] == add(w, two)


@pytest.mark.parametrize("override", [False, True])
def test_mirror_index_of_every_lrm_and_its_dual(override):
    overrides = {(2, 4): shipped_nonlinear_base()} if override else None
    for m in range(1, 8):
        for r in range(m + 1):
            sf = lrm(r, m, overrides).standard_form
            for side in (sf, dual_standard_form(sf)):
                if side.log2_size:  # the dual of the whole space is the zero code
                    p = mirror_index(side)
                    assert codeword_at(side, p) == Z4Word([2] * side.n), (r, m, side is sf)
                else:
                    assert mirror_index(side) is None
    # 22 = 2·11: the unit pair's high bit over the even row's bit, unset
    assert mirror_index(standard_form(G(["11", "02"]))) == 0b100
    # 20 and 202 lie in the codes, but 22 and 222 do not
    assert mirror_index(standard_form(G(["10"]))) is None
    assert mirror_index(standard_form(G(["110", "022"]))) is None


@st.composite
def _small_generator_sets(draw):
    # half the rows doubled, so that order-2 generators (k2 > 0) are common;
    # at most 4 rows keeps the brute-force span at 4^4 combinations
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rows.append(Z4Word([2 * s % 4 for s in row] if draw(st.booleans()) else row))
    return GeneratorMatrix(rows, n=n)


def brute_span(rows, n):
    """Every Z4 combination of rows, as tuples of symbols."""
    return {
        tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % 4 for i in range(n))
        for coeffs in itertools.product(range(4), repeat=len(rows))
    }


@settings(max_examples=150, deadline=None)
@given(g=_small_generator_sets(), data=st.data())
def test_standard_form_invariants(g, data):
    sf = standard_form(g)
    assert all(membership(sf, row) for row in g)
    span = brute_span(g.rows, g.n)
    assert len(span) == 1 << sf.log2_size == 1 << (2 * sf.k1 + sf.k2)
    assert brute_span(sf.rows, g.n) == span
    # reordering the rows and multiplying some by the unit 3 keeps the code,
    # and the form is the same
    order = data.draw(st.permutations(range(len(g))))
    negated = data.draw(st.lists(st.booleans(), min_size=len(g), max_size=len(g)))
    moved = [-g.rows[i] if neg else g.rows[i] for i, neg in zip(order, negated)]
    assert standard_form(GeneratorMatrix(moved, n=g.n)) == sf


def _counted_threads(monkeypatch):
    """The threads started while monkeypatch's context lasts, in a list."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_engine.threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("cpus, threads", [(1, 0), (3, 2)])
def test_sweep_workers_clamped_to_cpu_count(monkeypatch, cpus, threads):
    # the CPUs the process may run on where the platform says so, else the
    # host's count; where both are given, the host's 64 must not be used.
    # The calling thread is one of the workers, so cpus - 1 threads start
    sf = standard_form(G(["123", "230", "302"]))
    basis = _engine.z4_basis_from_standard_form(sf)

    def refused(*args):
        raise AssertionError("CPUs looked up for a serial sweep")

    with monkeypatch.context() as serial:
        serial.setattr(_engine.os, "sched_getaffinity", refused, raising=False)
        serial.setattr(_engine.os, "cpu_count", refused)
        want = _engine.min_weight_sweep(
            basis, sf.log2_size, _engine.z4_add, _engine.lee_weights, block_log2=2
        )
    for affinity in (True, False):
        with monkeypatch.context() as patch:
            if affinity:
                patch.setattr(_engine.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                              raising=False)
                patch.setattr(_engine.os, "cpu_count", lambda: 64)
            else:
                patch.delattr(_engine.os, "sched_getaffinity", raising=False)
                patch.setattr(_engine.os, "cpu_count", lambda: cpus)
            started = _counted_threads(patch)
            got = _engine.min_weight_sweep(
                basis, sf.log2_size, _engine.z4_add, _engine.lee_weights,
                workers=10**6, block_log2=2,
            )
        assert len(started) == threads, affinity  # one CPU takes the serial path
        assert got == want


def test_witness_search_that_stops_in_block_0_starts_no_thread(monkeypatch):
    # LRM(3,5) takes its dual route, and its word at index 1 weighs the
    # proven distance, so the witness ends there, in the calling thread,
    # before any thread would start
    sf = lrm(3, 5).standard_form
    want = _engine.lee_route(sf).witness()
    assert want[1] < 1 << _engine.WITNESS_BLOCK_LOG2
    monkeypatch.setattr(_engine.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    started = _counted_threads(monkeypatch)
    assert _engine.lee_route(sf).witness(workers=4) == want
    assert started == []
    # a search that goes on past block 0 starts none either (no word weighs
    # 0, so it weighs all 16 blocks); a full sweep of more than one block
    # starts them
    small = standard_form(G(["123", "230", "302"]))
    basis = _engine.z4_basis_from_standard_form(small)
    full = _engine.min_weight_sweep(basis, small.log2_size, _engine.z4_add,
                                    _engine.lee_weights, block_log2=2)
    assert _engine.min_weight_sweep(basis, small.log2_size, _engine.z4_add,
                                    _engine.lee_weights, workers=4, block_log2=2,
                                    stop_at=0) == full
    assert started == []
    _engine.min_weight_sweep(basis, small.log2_size, _engine.z4_add, _engine.lee_weights,
                             workers=4, block_log2=2)
    assert len(started) == 3


def test_engine_min_weight_and_histogram():
    g = G(["11", "02"])
    sf = standard_form(g)
    basis = _engine.z4_basis_from_standard_form(sf)
    for workers in (1, 3):
        got = _engine.min_weight_sweep(
            basis, sf.log2_size, _engine.z4_add, _engine.lee_weights,
            workers=workers, block_log2=1,
        )
        assert got == (2, 1)  # word (0,2) at sweep index 1
        hist = _engine.weight_histogram(
            basis, sf.log2_size, _engine.z4_add, _engine.lee_weights,
            max_weight=2 * g.n, workers=workers, block_log2=1,
        )
        assert list(hist) == [1, 0, 6, 0, 1]


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_reused_buffers_match_scalar_weights(workers):
    # two limbs, eight blocks: every block is written into the same buffers
    rng = np.random.default_rng(7)
    rows = ["".join(map(str, rng.integers(0, 4, 40))) for _ in range(5)]
    sf = standard_form(G(rows))
    k = sf.log2_size
    lee = [lee_weight(w) for w in enumerate_codewords(sf)]
    basis = _engine.z4_basis_from_standard_form(sf)
    hist = _engine.weight_histogram(
        basis, k, _engine.z4_add, _engine.lee_weights,
        max_weight=80, workers=workers, block_log2=k - 3,
    )
    assert list(hist) == list(np.bincount(lee, minlength=81))
    got = _engine.min_weight_sweep(
        basis, k, _engine.z4_add, _engine.lee_weights, workers=workers, block_log2=k - 3
    )
    assert got == (min(lee[1:]), 1 + lee[1:].index(min(lee[1:])))
    bits = [BitWord([int(b) for b in rng.integers(0, 2, 70)]) for _ in range(9)]
    xor_basis = _engine.xor_basis_from_rows(bits, 70)
    hist = _engine.weight_histogram(
        xor_basis, 9, _engine.xor_add, _engine.bit_weights,
        max_weight=70, workers=workers, block_log2=3,
    )
    weights = []
    for coeffs in itertools.product((0, 1), repeat=9):
        p = 0
        for c, b in zip(coeffs, bits):
            p ^= b._packed if c else 0
        weights.append(p.bit_count())
    assert list(hist) == list(np.bincount(weights, minlength=71))


def test_generator_matrix_validation():
    with pytest.raises(DimensionError):
        GeneratorMatrix([W("1"), W("11")])
    with pytest.raises(ValueError):
        GeneratorMatrix([])
    with pytest.raises(DimensionError):
        GeneratorMatrix([W("11")], n=3)
    g = GeneratorMatrix([W("11")])
    assert g.n == 2 and len(g) == 1
