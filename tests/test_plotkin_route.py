"""The Plotkin coset route: A ∩ B, the coset basis of A + B, the per-coset
histograms and the coset sums W_C = sum over D of W_D ⊛ W_{D+B} for
C = plotkin(A, B), each checked against the exhaustive direct sweep of C and,
where C⊥ is small, the dual's MacWilliams transform; the route choice; the
split identity d(C) = min(2·d(A), d(B)) that proves the Plotkin witness's
d; and the witnesses of the public calls, pinned from the direct sweep."""

import functools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_macwilliams import direct_counts, direct_min, macwilliams_counts, monomial_copy
from z4rm import _engine
from z4rm.analysis import lee_weight_distribution, min_lee_weight_witness
from z4rm.codes import Z4Code, lrm, plotkin, shipped_nonlinear_base, theorem1_params
from z4rm import linalg
from z4rm.linalg import GeneratorMatrix, enumerate_codewords, intersection, mixed_radix_basis
from z4rm.z4core import Z4Word, add, lee_weight

# A monomial copy of LRM(2,4) that does not contain LRM(1,4): as the (2,4)
# override it makes B ⊄ A at (2,5) and (2,6).  It is the family benchmark's
# seed-1 copy.
NONNESTED_COPY = monomial_copy(lrm(2, 4), [5, 2, 7, 0, 6, 3, 1, 4], [0, 0, 1, 1, 1, 0, 1, 1])
VARIANTS = {
    "plain": None,
    "shipped-base": {(2, 4): shipped_nonlinear_base()},
    "nonnested-copy": {(2, 4): NONNESTED_COPY},
}


def route_distribution(code):
    a, b = linalg.plotkin_split(code.standard_form)
    return _engine.plotkin_lee_distribution(a, b, intersection(a, b))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("r, m", [(1, 4), (2, 5), (2, 6)])
def test_route_matches_direct_and_macwilliams(r, m, variant):
    code = lrm(r, m, VARIANTS[variant])
    a, b = linalg.plotkin_split(code.standard_form)
    nested = intersection(a, b).log2_size == b.log2_size
    # LRM(1,4) lies in neither override, so only the plain family nests
    # past m = 4
    assert nested == (variant == "plain" or m == 4)
    got = route_distribution(code)
    assert got == direct_counts(code, workers=2)
    sf = code.standard_form
    if 2 * sf.n - sf.log2_size <= 16:
        assert got == macwilliams_counts(code)


def _words(sf):
    return {w._packed for w in enumerate_codewords(sf)}


@st.composite
def _part_pairs(draw):
    """(A, B) of one length n <= 6, each of at most 4 rows, B either spanned
    by combinations of A's rows (nested) or drawn on its own."""
    n = draw(st.integers(1, 6))
    symbols = st.lists(st.integers(0, 3), min_size=n, max_size=n)

    def rows(count):
        out = []
        for _ in range(count):
            row = draw(symbols)
            if draw(st.integers(0, 3)) == 0:
                row = [2 * s % 4 for s in row]
            out.append(Z4Word(row))
        return out

    a_rows = rows(draw(st.integers(0, 4)))
    if a_rows and draw(st.booleans()):
        b_rows = []
        for _ in range(draw(st.integers(0, 4))):
            w = Z4Word.zero(n)
            for row in a_rows:
                for _ in range(draw(st.integers(0, 3))):
                    w = add(w, row)
            b_rows.append(w)
    else:
        b_rows = rows(draw(st.integers(0, 4)))
    return Z4Code(GeneratorMatrix(a_rows, n=n)), Z4Code(GeneratorMatrix(b_rows, n=n))


_NONE = Z4Code(GeneratorMatrix([], n=3))
_ONE = Z4Code(GeneratorMatrix([Z4Word([1, 2, 0])]))


@settings(max_examples=120, deadline=None)
@given(parts=_part_pairs())
@example(parts=(_NONE, _ONE))
@example(parts=(_ONE, _NONE))
@example(parts=(_NONE, _NONE))
def test_split_of_a_doubling_gives_its_parts(parts):
    # k_A = 0 and k_B = 0 included: C = plotkin(A, B) splits into the
    # standard forms of A and B, whatever C's own form made of their rows
    a_code, b_code = parts
    split = linalg.plotkin_split(plotkin(a_code, b_code).standard_form)
    assert split == (a_code.standard_form, b_code.standard_form)


@settings(max_examples=120, deadline=None)
@given(parts=_part_pairs())
def test_syndrome_is_linear_with_the_code_as_kernel(parts):
    # intersection's kernel is only A ∩ B if the syndrome map is Z4-linear
    # and vanishes exactly on A; B's rows and their sum stand in for any y
    a_code, b_code = parts
    a = a_code.standard_form
    ys = list(b_code.generators) or [Z4Word.zero(a.n)]
    ys.append(add(ys[0], ys[-1]))
    syndromes = linalg._syndromes(a, ys)
    for y, syn in zip(ys, syndromes):
        assert (not any(syn)) == linalg.membership(a, y)
    assert syndromes[-1] == [(s + t) % 4 for s, t in zip(syndromes[0], syndromes[-2])]


@settings(max_examples=120, deadline=None)
@given(parts=_part_pairs())
def test_route_properties_on_random_parts(parts):
    a_code, b_code = parts
    a, b = a_code.standard_form, b_code.standard_form
    inter = intersection(a, b)
    assert _words(inter) == _words(a) & _words(b)

    # the coset basis enumerates A + B once, the first 2^k_I words being
    # A ∩ B and the first 2^k_B being B; the first 2^k_I words of each run
    # of 2^k_B are one coset of A ∩ B in A, and together they are A
    ka, kb, ki = a.log2_size, b.log2_size, inter.log2_size
    basis = _engine.plotkin_bit_basis(a, b, inter)
    assert basis[:ki] == mixed_radix_basis(inter)
    packed = _engine.pack_rows(basis, a.n, 2)
    table = _engine.Sweep(packed, ka + kb - ki, _engine.z4_add, block_log2=ka + kb - ki).images
    words = _engine.gray_lanes(table)
    as_ints = [sum(int(v) << (64 * l) for l, v in enumerate(row)) for row in words]
    assert len(set(as_ints)) == len(as_ints) == 1 << (ka + kb - ki)
    assert set(as_ints[: 1 << ki]) == _words(inter)
    assert set(as_ints[: 1 << kb]) == _words(b)
    heads = [t for t in range(len(as_ints)) if t % (1 << kb) < 1 << ki]
    assert {as_ints[t] for t in heads} == _words(a)

    code = plotkin(a_code, b_code)
    direct = direct_counts(code)
    assert _engine.plotkin_lee_distribution(a, b, inter) == direct
    # with no fixed route cost the public calls take the route whenever it
    # sweeps fewer words than the direct and dual routes
    with mock.patch.object(_engine, "FIXED_COST_LOG2", float("-inf")), \
            mock.patch.object(_engine, "WITNESS_BLOCK_LOG2", 2):
        assert list(lee_weight_distribution(code).counts) == direct
        sf = code.standard_form
        if sf.log2_size:
            assert _engine.lee_route(sf).witness() == direct_min(sf)


def _chunks(acc, row, heads, full):
    """coset_histograms fold that lists its chunks with their first rows."""
    return (acc or []) + [(row, heads, full)]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("head", [0, 1, 3])
@pytest.mark.parametrize("block_log2", [1, 2, 3, 18])
def test_coset_histograms_across_block_sizes(block_log2, head, r):
    # 2-, 4- and 8-word blocks put one row of 2^3 words in several blocks,
    # in exactly one, or several rows in one block; a head of 1, 2 or 8
    # words lies in one block, spans several, or is the whole row.
    # LRM(1,4) has 4 rows, and LRM(2,4) 256
    sf = lrm(r, 4).standard_form
    basis = mixed_radix_basis(sf)
    lee = [lee_weight(w) for w in enumerate_codewords(sf)]
    want = np.zeros((2, 1 << (sf.log2_size - 3), 2 * sf.n + 1), dtype=np.int64)
    for t, w in enumerate(lee):
        want[1, t >> 3, w] += 1
        if t % 8 < 1 << head:
            want[0, t >> 3, w] += 1
    # one accumulator, the fold's chunks in the order it took them
    chunks = _engine.coset_histograms(
        _engine.pack_rows(basis, sf.n, 2), sf.log2_size, 3, head, 2 * sf.n, _chunks,
        block_log2=block_log2,
    )
    for i in (0, 1):
        assert (np.concatenate([c[1 + i] for c in chunks]) == want[i]).all()
    # the chunks are consecutive runs of rows, each named by its first
    assert [c[0] for c in chunks] == list(np.cumsum([0] + [len(c[2]) for c in chunks[:-1]]))
    # a chunk holds at most 2^block_log2 counts (rows of 17, rounded up to
    # 32), or one row
    assert max(len(c[2]) for c in chunks) == min(want.shape[1], max(1, (1 << block_log2) // 32))


def _with_fold(wrap, **kwargs):
    """coset_histograms with its fold replaced by wrap(fold), and kwargs."""
    real = _engine.coset_histograms

    def patched(basis, k, low, head, max_weight, fold, *args):
        return real(basis, k, low, head, max_weight, wrap(fold), *args, **kwargs)

    return mock.patch.object(_engine, "coset_histograms", patched)


@pytest.mark.parametrize("block_log2", [3, 18])
def test_route_pairs_chunks_of_cosets(block_log2):
    # with 8-word blocks each coset of B, and each coset of A ∩ B in A at its
    # head, spans several blocks of the sweep of A + B, so the product
    # takes one-coset chunks that each sum several blocks
    code = lrm(2, 5, VARIANTS["nonnested-copy"])
    with _with_fold(lambda fold: fold, block_log2=block_log2):
        assert route_distribution(code) == direct_counts(code)


def test_route_holds_one_chunk_of_cosets_at_a_time():
    # LRM(2,7) has 2^15 cosets of LRM(1,6) in LRM(2,6), 65 weights each;
    # the product takes them 2^7 at a time, as the sweep's 2^14-word blocks
    # bin them
    code = lrm(2, 7)
    shapes = []

    def recorded(fold):
        def chunk(acc, row, head, full):
            assert head is full  # B ⊆ A, so the heads are the rows
            shapes.append(full.shape)
            return fold(acc, row, head, full)

        return chunk

    with _with_fold(recorded):
        counts = route_distribution(code)
    assert sum(counts) == 1 << 29
    assert shapes == [(1 << 7, 65)] * (1 << 8)


def test_route_refuses_counts_that_miss_the_code_size():
    # a histogram that counts each word twice breaks sum W_C = |C|
    a, b = linalg.plotkin_split(lrm(2, 6).standard_form)
    with _with_fold(lambda fold: lambda acc, row, h, c: fold(acc, row, h, 2 * c)):
        with pytest.raises(ArithmeticError, match="not 2\\^22"):
            _engine.plotkin_lee_distribution(a, b, intersection(a, b))


# The family benchmark's seed-3 copy of LRM(2,4): it contains LRM(1,4), so
# B ⊆ A at (2,5) and (2,6), as in the plain family.
NESTED_COPY = monomial_copy(lrm(2, 4), [0, 4, 3, 7, 6, 1, 5, 2], [0, 0, 1, 1, 1, 0, 0, 1])
ROUTE_VARIANTS = dict(VARIANTS, **{"nested-copy": {(2, 4): NESTED_COPY}})


@pytest.mark.parametrize("variant", ROUTE_VARIANTS)
@pytest.mark.parametrize(
    "r, m, method",
    [(2, 6, "plotkin"), (2, 5, "direct"), (3, 5, "dual"), (3, 4, "dual"), (4, 4, "dual")],
)
def test_route_choice(r, m, method, variant):
    # the fixed route cost of 2^14.5 words sets the crossover: LRM(3,4) and
    # LRM(4,4), of 2^15 and 2^16 words, take their duals of 2 words and 1
    if (r, m, variant) == (2, 6, "shipped-base"):
        # A ∩ B has 2^4 words, so A has 2^12 cosets of 33 weights: up to
        # 2^22.2 units against 2^22 words (13 and 15 ms when measured)
        method = "direct"
    if (r, m) == (2, 5) and variant in ("plain", "nested-copy"):
        # B ⊆ A: 2^14.4 units; B ⊄ A in the other two copies, 2^15.5 and
        # 2^16.5, each plus the fixed cost against 2^16 words
        method = "plotkin"
    code = lrm(r, m, ROUTE_VARIANTS[variant])
    assert _engine.lee_route(code.standard_form)[0] == method


# log2 of the words each route's counts sweep: C, C⊥, or A + B
SWEPT_LOG2 = {
    "direct": lambda route: route.sf.log2_size,
    "dual": lambda route: 2 * route.sf.n - route.sf.log2_size,
    "plotkin": lambda route: route.parts[0].log2_size + route.parts[1].log2_size
    - route.parts[2].log2_size,
}


@pytest.mark.parametrize(
    "r, m, method, k", [(1, 4, "direct", 5), (3, 5, "dual", 6), (2, 6, "plotkin", 16)]
)
def test_each_route_sweeps_what_it_reports(monkeypatch, r, m, method, k):
    # every route gives the same counts, so only the sweeps it builds show
    # which one ran: LRM(2,6) sweeps A = LRM(2,5) alone, as B ⊆ A
    sizes = []
    real = _engine.Sweep.__init__

    def spy(self, basis, k, *args, **kwargs):
        sizes.append(k)
        real(self, basis, k, *args, **kwargs)

    code = lrm(r, m)
    route = _engine.lee_route(code.standard_form)
    assert (route.method, SWEPT_LOG2[method](route)) == (method, k)
    monkeypatch.setattr(_engine.Sweep, "__init__", spy)
    route.counts()
    assert sizes == [k]


def test_route_for_lrm_2_8_is_chosen_without_a_sweep():
    # at budget 37 the route sweeps LRM(2,7)'s 2^29 words and bins them in
    # 2^21 cosets of 129 weights, 2^35.06 units in all against 2^37 words
    # for the direct sweep
    code = lrm(2, 8)
    route = _engine.lee_route(code.standard_form)
    assert (route.method, round(route.cost, 2), route.parts[2].log2_size) == ("plotkin", 35.06, 8)


def test_route_counts_cells_and_products_of_small_cosets():
    # A = Z4^10 x 2Z4 x {0} (2^21 words) and B = 2Z4 at coordinate 10:
    # sweeping A alone is 2^21 words, but its 2^20 cosets of A ∩ B = B
    # would take 25 cells and up to 625 product terms each, so the 2^22
    # words of C sweep directly
    n = 12
    unit = [Z4Word([1 if j == i else 0 for j in range(n)]) for i in range(10)]
    two = Z4Word([2 if j == 10 else 0 for j in range(n)])
    a_code = Z4Code(GeneratorMatrix(unit + [two], n=n))
    b_code = Z4Code(GeneratorMatrix([two], n=n))
    code = plotkin(a_code, b_code)
    assert _engine.plotkin_cost(21, 1, 1, n) > 29
    route = _engine.lee_route(code.standard_form)
    assert (route.method, route.cost, route.parts) == ("direct", 22, None)


def test_route_skips_parts_that_cannot_win(monkeypatch):
    # LRM(3,5) = plotkin(A, B) with B of length 8 has |A| >= 2^(26 - 16),
    # more than its 2^6-word dual, and both routes pay the fixed cost of
    # 2^14.5 words, so the code is not split at all
    def unsplit(sf):
        raise AssertionError("plotkin_split called")

    monkeypatch.setattr(_engine, "plotkin_split", unsplit)
    route = _engine.lee_route(lrm(3, 5).standard_form)
    assert (route.method, round(route.cost, 3), route.parts) == ("dual", 14.504, None)


def test_parts_only_on_plotkin_nodes():
    # a node of the recursion splits into the forms of the two nodes it is
    # built from, and a bare matrix of its rows, reversed, the same way; the
    # override node, not a doubling, does not split.  The r = 0 and r = m
    # leaves split too: 2·1 into (2·1, {0}), Z4^n into Z4^(n/2) twice
    over = VARIANTS["shipped-base"]
    code = lrm(2, 6, over)
    parts = (lrm(2, 5, over).standard_form, lrm(1, 5, over).standard_form)
    assert linalg.plotkin_split(code.standard_form) == parts
    reversed_rows = Z4Code(GeneratorMatrix(code.generators.rows[::-1]))
    assert linalg.plotkin_split(reversed_rows.standard_form) == parts
    node = lrm(2, 4, over)
    assert node.label.startswith("LRM(2,4):override[")
    assert linalg.plotkin_split(node.standard_form) is None
    zero = linalg.standard_form(GeneratorMatrix([], n=4))
    assert linalg.plotkin_split(lrm(0, 4).standard_form) == (lrm(0, 3).standard_form, zero)
    assert linalg.plotkin_split(lrm(4, 4).standard_form) == (lrm(3, 3).standard_form,) * 2


def _pinned_witnesses():
    path = Path(__file__).parent / "data" / "lrm_witnesses.txt"
    for line in path.read_text(encoding="ascii").splitlines():
        r, m, variant, d, witness = line.split()
        yield int(r), int(m), variant, int(d), witness


@pytest.mark.parametrize("r, m, variant, d, witness", list(_pinned_witnesses()))
def test_witness_is_the_direct_sweeps(r, m, variant, d, witness):
    # every order with m <= 7 and k <= 28, and LRM(2,7) at budget 29, as the
    # direct sweep of the whole code found them
    k = theorem1_params(r, m).k
    got_d, got = min_lee_weight_witness(lrm(r, m, ROUTE_VARIANTS[variant]), budget=max(28, k))
    assert (got_d, got.digits()) == (d, witness)


def _first_nonzero(counts):
    return next(w for w, a in enumerate(counts) if w and a)


def _tree_min_weight(sf, a, b):
    """d of sf's code C = plotkin(A, B) from a Plotkin route forced over the
    witness routes of a and b: the split identity down their tree."""
    parts = (_engine.lee_route(a, witness=True), _engine.lee_route(b, witness=True))
    return _engine.Route("plotkin", 0.0, sf, parts).min_weight()


def _split_orders(variant, max_sweep_log2):
    """The nonzero codes lrm(r, m) with m <= 7 of a variant that split, and
    whose sweep of A + B has at most 2^max_sweep_log2 words."""
    for m in range(1, 8):
        for r in range(m + 1):
            sf = lrm(r, m, ROUTE_VARIANTS[variant]).standard_form
            split = sf.log2_size and linalg.plotkin_split(sf)
            if split:
                a, b = split
                if a.log2_size + b.log2_size - intersection(a, b).log2_size <= max_sweep_log2:
                    yield (r, m), sf


@pytest.mark.parametrize("variant", ROUTE_VARIANTS)
@pytest.mark.parametrize("block_log2, max_sweep_log2", [(14, 24), (6, 18), (3, 17)])
def test_min_weight_pass_matches_the_counts_on_every_split_order(monkeypatch, variant,
                                                                  block_log2, max_sweep_log2):
    # the split identity's d against the counts' directly: a d off the true
    # minimum makes the witness search raise, so a wrong tree shows here
    # first.  The counts bin their cosets' rows in blocks of at most
    # 2^block_log2 words: 2^14 hold many small rows, 2^6 and 2^3 cut the
    # larger rows into several.  LRM(2,7)'s A + B has 2^22 words (B ⊆ A) or
    # 2^24 (B ⊄ A)
    monkeypatch.setattr(_engine, "coset_histograms",
                        functools.partial(_engine.coset_histograms, block_log2=block_log2))
    orders = []
    for order, sf in _split_orders(variant, max_sweep_log2):
        a, b = linalg.plotkin_split(sf)
        counts = _engine.plotkin_lee_distribution(a, b, intersection(a, b))
        assert _tree_min_weight(sf, a, b) == _first_nonzero(counts), order
        orders.append(order)
    assert {(0, 2), (2, 5)} <= set(orders)
    assert ((2, 7) in orders) == (max_sweep_log2 >= 24)


_A_ONLY = Z4Code(GeneratorMatrix([Z4Word([0, 0, 1])]))
# one word each, of Lee weight 1 and 6, so that as (A, B) one way round the
# doubled side is the minimum, and the other way round B's
_UNIT = Z4Code(GeneratorMatrix([Z4Word([1, 0, 0])]))
_TWOS = Z4Code(GeneratorMatrix([Z4Word([2, 2, 2])]))


@settings(max_examples=120, deadline=None)
@given(parts=_part_pairs())
@example(parts=(_NONE, _ONE))  # k_A = 0
@example(parts=(_ONE, _NONE))  # k_B = 0
@example(parts=(_ONE, _ONE))  # B ⊆ A
@example(parts=(_ONE, _A_ONLY))  # A ∩ B = {0}
@example(parts=(_UNIT, _TWOS))  # 2·d(A) = 2 < d(B) = 6
@example(parts=(_TWOS, _UNIT))  # 2·d(A) = 12 > d(B) = 1
def test_split_identity_on_random_parts(parts):
    # on the LRM family 2·d(A) = d(B) at every node with 0 < r < m, so a tree
    # that keeps only d(B) passes there; parts whose sides differ catch it,
    # and a tree that keeps only 2·d(A) or doubles both
    a_code, b_code = parts
    a, b = a_code.standard_form, b_code.standard_form
    if a.log2_size + b.log2_size:
        code = plotkin(a_code, b_code)
        direct = direct_counts(code)
        assert _tree_min_weight(code.standard_form, a, b) == _first_nonzero(direct)


PLAIN_REACH = [(2, m) for m in range(5, 11)]
OVERRIDE_REACH = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 7), (3, 8), (2, 10)]


@pytest.mark.parametrize(
    "variant, r, m",
    [("plain", r, m) for r, m in PLAIN_REACH] + [("shipped-base", r, m) for r, m in OVERRIDE_REACH],
)
def test_split_identity_reaches_the_theorem(variant, r, m):
    # far past any sweep of the code: LRM(2,10) has 2^56 words.  The tree
    # is called on each order's split, whatever route the order takes
    sf = lrm(r, m, ROUTE_VARIANTS[variant]).standard_form
    assert _tree_min_weight(sf, *linalg.plotkin_split(sf)) == theorem1_params(r, m).d


def _sweep_sizes(monkeypatch):
    """The k of every Sweep built from here on, in order."""
    sizes = []
    real = _engine.Sweep.__init__

    def spy(self, basis, k, *args, **kwargs):
        sizes.append(k)
        real(self, basis, k, *args, **kwargs)

    monkeypatch.setattr(_engine.Sweep, "__init__", spy)
    return sizes


def test_plotkin_witness_sweeps_the_leaves_and_builds_no_counts(monkeypatch):
    # LRM(2,6) splits into A = LRM(2,5) (k = 16, whose own witness route
    # splits it again into LRM(2,4) and LRM(1,4)) and B = LRM(1,5); each
    # leaf sweeps directly, and C's word at index 1 weighs d, so C is never
    # swept.  Neither A ∩ B nor A + B's 2^16 words are built
    sf = lrm(2, 6).standard_form
    want = direct_min(sf)
    sizes = _sweep_sizes(monkeypatch)

    def refused(*args, **kwargs):
        raise AssertionError("the witness built the Plotkin counts")

    monkeypatch.setattr(_engine, "plotkin_lee_distribution", refused)
    monkeypatch.setattr(_engine, "coset_histograms", refused)
    monkeypatch.setattr(_engine, "intersection", refused)
    route = _engine.lee_route(sf, witness=True)
    assert (route.method, len(route.parts)) == ("plotkin", 2)
    assert route.witness() == want == (16, 1)
    assert sizes == [11, 5, 6]


def _split_calls(monkeypatch):
    """A list that grows by one at each _engine.plotkin_split call from here on."""
    calls = []
    real = _engine.plotkin_split

    def spy(sf):
        calls.append(sf)
        return real(sf)

    monkeypatch.setattr(_engine, "plotkin_split", spy)
    return calls


@pytest.mark.parametrize("r, m, splits", [(2, 6, 2), (2, 8, 4), (4, 8, 9)])
def test_the_witness_route_splits_each_node_once(monkeypatch, r, m, splits):
    # lee_route builds the whole tree, each split node split once, and the
    # witness then walks it without splitting anything again
    sf = lrm(r, m).standard_form
    calls = _split_calls(monkeypatch)
    route = _engine.lee_route(sf, witness=True)
    assert (route.method, len(calls)) == ("plotkin", splits)
    calls.clear()
    assert route.witness() == (theorem1_params(r, m).d, 1)
    assert calls == []


@pytest.mark.parametrize("r, m, cost, d", [(3, 8, 17.86, 32), (4, 8, 18.12, 16)])
def test_the_witness_route_is_priced_by_its_tree(r, m, cost, d):
    # priced by the cheaper of each part's own direct and dual routes, each
    # order cost 2^64 words; priced by its tree, under 2^19
    route = _engine.lee_route(lrm(r, m).standard_form, witness=True)
    assert (route.method, round(route.cost, 2)) == ("plotkin", cost)
    assert route.witness() == (d, 1)


def _plotkin_nodes(route):
    """route and the Plotkin routes below it, depth first."""
    if route.method == "plotkin":
        yield route
        for part in route.parts:
            yield from _plotkin_nodes(part)


@pytest.mark.parametrize("variant", ROUTE_VARIANTS)
def test_each_plotkin_node_costs_its_parts(variant):
    # a node's cost is its parts' witness route costs added, and the fixed
    # cost, at every depth of the tree
    nodes = [node for r in range(1, 8)
             for node in _plotkin_nodes(_engine.lee_route(
                 lrm(r, 8, ROUTE_VARIANTS[variant]).standard_form, witness=True))]
    assert len(nodes) > 8
    for node in nodes:
        a, b = node.parts
        assert node.cost == _engine._plus_fixed(_engine._log2_sum(a.cost, b.cost))


@pytest.mark.parametrize("m, off", [(6, 1), (5, -1)])
def test_a_wrong_proof_raises(monkeypatch, m, off):
    # d + 1 on LRM(2,6): C's word at index 1 weighs d, less than the proof,
    # and the witness raises before it builds any Sweep; d - 1 on LRM(2,5):
    # that word is heavier, and the search sweeps all 2^16 words.  Either
    # way it finds d, not the proof's weight, and the witness raises rather
    # than print it.  So does the direct route of LRM(1,m) when its paired
    # sweep proves d + off
    direct = _engine.lee_route(lrm(1, m).standard_form, witness=True)
    assert direct.method == "direct"
    wrong = direct.min_weight() + off
    with monkeypatch.context() as patch:
        patch.setattr(_engine, "min_weight_sweep", lambda *args, **kwargs: wrong)
        with pytest.raises(ArithmeticError, match="proved d"):
            direct.witness()
    route = _engine.lee_route(lrm(2, m).standard_form, witness=True)
    assert route.method == "plotkin"
    proof = route.min_weight() + off
    monkeypatch.setattr(_engine.Route, "min_weight", lambda self, workers=1: proof)
    sizes = _sweep_sizes(monkeypatch)
    with pytest.raises(ArithmeticError, match="proved d"):
        route.witness()
    assert sizes == ([] if off > 0 else [16])


def test_a_wrong_dual_proof_raises(monkeypatch):
    # LRM(3,5)'s dual counts with the weight-4 words left out prove d = 6;
    # C's word at index 1 weighs 4, so the witness raises once the dual's
    # 2^6 words are swept, and sweeps nothing of C
    route = _engine.lee_route(lrm(3, 5).standard_form, witness=True)
    assert route.method == "dual"
    real = _engine.Route.counts
    monkeypatch.setattr(_engine.Route, "counts", lambda self, workers=1: [
        0 if w == 4 else a for w, a in enumerate(real(self, workers))])
    sizes = _sweep_sizes(monkeypatch)
    with pytest.raises(ArithmeticError, match="proved d = 6, but the search found weight 4"):
        route.witness()
    assert sizes == [6]


@settings(max_examples=120, deadline=None)
@given(parts=_part_pairs())
@example(parts=(_ONE, _NONE))  # k_B = 0
@example(parts=(_ONE, _ONE))  # B ⊆ A
@example(parts=(_ONE, _A_ONLY))  # A ∩ B = {0}
@example(parts=(_UNIT, _TWOS))  # 2·d(A) = 2 < d(B) = 6
@example(parts=(_TWOS, _UNIT))  # 2·d(A) = 12 > d(B) = 1
def test_witness_route_matches_the_direct_sweep(parts):
    # with no fixed route cost the witness-priced route splits C whenever
    # its parts' own routes cost less than C's, and 4-word blocks make a
    # search cross blocks: either way, and on the Plotkin route forced,
    # the witness (d and index) is the direct sweep's
    sf = plotkin(*parts).standard_form
    if not sf.log2_size:
        return
    want = _engine.Route("direct", sf.log2_size, sf, None).witness()
    with mock.patch.object(_engine, "FIXED_COST_LOG2", float("-inf")), \
            mock.patch.object(_engine, "WITNESS_BLOCK_LOG2", 2):
        assert _engine.lee_route(sf, witness=True).witness() == want
        parts = tuple(_engine.lee_route(x, witness=True) for x in linalg.plotkin_split(sf))
        forced = _engine.Route("plotkin", 0.0, sf, parts)
        assert forced.witness() == want
