import dataclasses
import functools
import itertools
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from z4rm import analysis
from z4rm.analysis import (
    MATERIALIZE_BUDGET,
    gray_image_params,
    binary_code_params,
    binary_log2_size,
    image_is_linear,
    image_is_linear_bruteforce,
    lee_weight_distribution,
    min_lee_weight,
    min_lee_weight_witness,
    nonequivalence_report,
    search_nonlinear_base,
    verify_theorem1,
)
from z4rm.codes import CodeParams, Z4Code, lrm, rm_binary, shipped_nonlinear_base, theorem1_params
from z4rm.errors import CapacityError, DimensionError, ZeroCodeError
from z4rm.fileformat import render_code
from z4rm.linalg import GeneratorMatrix, enumerate_codewords, standard_form
from z4rm.z4core import (
    BitWord, Z4Word, add, gray, hamming_distance, lee_distance, lee_weight, negate,
)

WITNESS = Z4Code(GeneratorMatrix.from_strings(["1013", "0112"]))


def random_code(rng, max_n=4, max_rows=3):
    n = rng.randrange(1, max_n + 1)
    rows = [
        Z4Word([rng.randrange(4) for _ in range(n)])
        for _ in range(rng.randrange(1, max_rows + 1))
    ]
    return Z4Code(GeneratorMatrix(rows, n=n))


def corpus():
    codes = [lrm(r, m) for m in range(1, 4) for r in range(m + 1)]
    codes.append(WITNESS)
    codes.append(shipped_nonlinear_base())
    codes.append(Z4Code(GeneratorMatrix.from_strings(["13"])))
    rng = random.Random(20240817)
    codes.extend(random_code(rng) for _ in range(30))
    return [c for c in codes if c.log2_size <= 12]


def test_min_lee_weight_examples():
    assert min_lee_weight(lrm(0, 2)) == 4
    assert min_lee_weight(lrm(1, 2)) == 2


def test_min_lee_weight_zero_code_and_budget():
    with pytest.raises(ZeroCodeError):
        min_lee_weight(Z4Code(GeneratorMatrix([], n=2)))
    with pytest.raises(CapacityError) as e:
        min_lee_weight(lrm(2, 2), budget=3)
    assert e.value.required == 4


def test_min_lee_weight_witness_is_minimal_member():
    for c in (lrm(1, 2), lrm(2, 3), WITNESS):
        d, w = min_lee_weight_witness(c)
        assert lee_weight(w) == d
        assert c.contains(w)


def test_weight_distribution_examples():
    counts = lee_weight_distribution(lrm(0, 2)).counts
    assert counts[0] == 1 and counts[4] == 1 and sum(counts) == 2
    assert lee_weight_distribution(lrm(1, 1)).counts == (1, 2, 1)
    assert lee_weight_distribution(lrm(1, 2)).counts == (1, 0, 6, 0, 1)


def test_weight_distribution_invariants():
    for c in corpus():
        dist = lee_weight_distribution(c)
        assert len(dist.counts) == 2 * c.n + 1
        assert dist.counts[0] == 1
        assert dist.total() == 1 << c.log2_size


def test_image_is_linear_examples():
    assert image_is_linear(lrm(1, 2)) is True
    for m in range(1, 5):
        assert image_is_linear(lrm(m, m)) is True
    assert image_is_linear(WITNESS) is False
    # the failing correction word for the witness pair
    u, v = WITNESS.generators.rows
    from z4rm.z4core import alpha

    prod = Z4Word([2 * (a & b) for a, b in zip(alpha(u), alpha(v))])
    assert prod.digits() == "0020"
    assert not WITNESS.contains(prod)


def test_image_is_linear_bruteforce_examples():
    assert image_is_linear_bruteforce(lrm(0, 2)) is True
    one_three = Z4Code(GeneratorMatrix.from_strings(["13"]))
    images = {gray(w).digits() for w in enumerate_codewords(one_three.standard_form)}
    assert images == {"0000", "0110", "1111", "1001"}
    assert image_is_linear_bruteforce(one_three) is True
    assert image_is_linear_bruteforce(WITNESS) is False
    with pytest.raises(CapacityError):
        image_is_linear_bruteforce(lrm(4, 4))  # 2^16 exceeds the oracle budget


def test_oracle_agreement_on_corpus():
    for c in corpus():
        assert image_is_linear(c) == image_is_linear_bruteforce(c), c


@st.composite
def _small_codes(draw):
    # at most 4 rows keeps the code at <= 2^8 words
    n = draw(st.integers(1, 6))
    rows = draw(
        st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=4)
    )
    return Z4Code(GeneratorMatrix([Z4Word(r) for r in rows], n=n))


@settings(max_examples=150, deadline=None)
@given(c=_small_codes())
def test_oracle_matches_pairwise_closure(c):
    images = {gray(w)._packed for w in enumerate_codewords(c.standard_form)}
    closed = all(a ^ b in images for a in images for b in images)
    assert image_is_linear_bruteforce(c) is closed


@st.composite
def _unit_and_even_codes(draw):
    # all-even rows next to arbitrary ones: after reduction the unit rows
    # carry 1s in pivot-2 columns, where beta of the even rows decides.  The
    # optional last row is the first two rows' correction word
    # 2*(alpha(u)*alpha(v)), so that images closed by even rows are common.
    n = draw(st.integers(1, 6))
    any_row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    even_row = st.lists(st.sampled_from((0, 2)), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(any_row, even_row), min_size=1, max_size=3))
    if len(rows) > 1 and draw(st.booleans()):
        rows.append([2 * (a & b & 1) for a, b in zip(rows[0], rows[1])])
    return Z4Code(GeneratorMatrix([Z4Word(r) for r in rows], n=n))


@settings(max_examples=300, deadline=None)
@given(c=_unit_and_even_codes())
@example(c=WITNESS)
# linear: alpha(1011) & alpha(0111) = 0011 = beta(0022), free bit included
@example(c=Z4Code(GeneratorMatrix.from_strings(["1011", "0111", "0022"])))
def test_generator_criterion_matches_oracle(c):
    assert image_is_linear(c) is image_is_linear_bruteforce(c)


# orders whose image is nonlinear with the shipped base at node (2,4),
# captured with the per-pair Z4 membership test of image linearity
_NONLINEAR_WITH_BASE = {
    (2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (4, 6), (2, 7), (3, 7), (4, 7), (5, 7),
}


@pytest.mark.parametrize("r, m", [(r, m) for m in range(1, 8) for r in range(m + 1)])
def test_image_linearity_with_shipped_base_is_pinned(r, m):
    code = lrm(r, m, {(2, 4): shipped_nonlinear_base()})
    assert image_is_linear(code) is ((r, m) not in _NONLINEAR_WITH_BASE)


@pytest.mark.parametrize("r", [0, 1])
def test_image_oracle_and_params_past_32_coordinates(r):
    c = lrm(r, 7)  # 64 coordinates: two limbs per image
    assert image_is_linear_bruteforce(c) is True
    assert gray_image_params(c) == binary_code_params(rm_binary(r, 7))


def test_nonlinear_image_past_32_coordinates():
    # WITNESS with 36 zero coordinates appended: n = 40
    padded = Z4Code(
        GeneratorMatrix.from_strings([w.digits() + "0" * 36 for w in WITNESS.generators])
    )
    assert image_is_linear_bruteforce(padded) is False
    images = [gray(w) for w in enumerate_codewords(padded.standard_form)]
    want = min(hamming_distance(a, b) for a, b in itertools.combinations(images, 2))
    assert gray_image_params(padded) == CodeParams(80, 4, want, binary=True)


def test_gray_xor_identity_validates_criterion():
    # gray(u) ^ gray(v) == gray(u + v + 2*alpha(u)*alpha(v)) on random words
    from z4rm.z4core import add, alpha

    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 20)
        u = Z4Word([rng.randrange(4) for _ in range(n)])
        v = Z4Word([rng.randrange(4) for _ in range(n)])
        corr = Z4Word([2 * (a & b) for a, b in zip(alpha(u), alpha(v))])
        assert gray(u) ^ gray(v) == gray(add(add(u, v), corr))


def test_verify_examples():
    rep = verify_theorem1(1, 2)
    assert rep.passed
    assert (rep.computed_n, rep.computed_k, rep.computed_d) == (2, 3, 2)
    assert rep.image_linear is True

    rep = verify_theorem1(2, 2)
    assert rep.passed
    assert (rep.computed_n, rep.computed_k, rep.computed_d) == (2, 4, 1)
    assert rep.image_linear is True


def test_verify_budget_skip():
    rep = verify_theorem1(2, 3, budget=5)  # 2^7 codewords > 2^5
    assert rep.skipped
    assert rep.computed_d is None
    assert not rep.passed
    assert rep.failures == []


def test_verify_fast_mode_matches_audit():
    for r, m in [(1, 3), (2, 3), (1, 4), (2, 4)]:
        audit = verify_theorem1(r, m)
        fast = verify_theorem1(r, m, fast=True)
        assert audit.passed and fast.passed
        assert audit.computed_d == fast.computed_d


def test_verify_never_bounds_the_sweep_by_the_claim(monkeypatch):
    from z4rm import _engine
    from z4rm.linalg import dual_standard_form

    # None for a full sweep, stop_at for a search
    seen = []
    full, search = _engine.min_weight_sweep, _engine.first_block_at_most

    def full_spy(*args, **kwargs):
        seen.append(None)
        return full(*args, **kwargs)

    def search_spy(basis, k, combine, stop_at, *args, **kwargs):
        seen.append(stop_at)
        return search(basis, k, combine, stop_at, *args, **kwargs)

    monkeypatch.setattr(_engine, "min_weight_sweep", full_spy)
    monkeypatch.setattr(_engine, "first_block_at_most", search_spy)
    # LRM(1,4) has 2^5 words and a 2^11-word dual: a full direct sweep
    fast = verify_theorem1(1, 4, fast=True)
    assert seen == [None]
    assert fast == dataclasses.replace(verify_theorem1(1, 4), fast=True)
    # LRM(3,5) has a 2^6-word dual, and its word at index 1 weighs the
    # distance the dual proved, so no search runs
    seen.clear()
    want = verify_theorem1(3, 5, fast=True)
    assert (seen, want.computed_d, want.passed) == ([], 4, True)
    # with that word made to look one heavier and a wrong claim of 2, the
    # witness search stops at the distance the dual proved, not at the claim
    sf = lrm(3, 5).standard_form
    dual = dual_standard_form(sf)
    hist = _engine.weight_histogram(
        _engine.z4_basis_from_standard_form(dual), dual.log2_size, _engine.z4_add,
        _engine.lee_weights, 2 * sf.n,
    )
    counts = _engine.lee_macwilliams(hist, sf.log2_size)
    weigh = _engine.lee_weight
    monkeypatch.setattr(_engine, "lee_weight", lambda x: weigh(x) + 1)
    monkeypatch.setattr(analysis, "theorem1_params",
                        lambda r, m: dataclasses.replace(theorem1_params(r, m), d=2))
    got = verify_theorem1(3, 5, fast=True)
    assert seen == [next(w for w, a in enumerate(counts) if w and a)] == [4]
    assert (got.computed_d, got.claimed.d, got.status) == (4, 2, "fail")


@pytest.mark.parametrize(
    "overrides", [None, {(2, 4): shipped_nonlinear_base()}], ids=["plain", "shipped-base"]
)
def test_verify_skips_exactly_when_the_witness_is_over_budget(overrides):
    # verify_theorem1 has no budget test of its own: at budgets k - 1 and k
    # its distance claims are skipped iff min_lee_weight_witness refuses
    for m in range(1, 7):
        for r in range(m + 1):
            code = lrm(r, m, overrides)
            k = code.log2_size
            for budget in (k - 1, k):
                if "override" in code.label and budget < 11:
                    # the (2,4) override itself is over budget: lrm refuses
                    with pytest.raises(CapacityError, match=r"override at \(2,4\)"):
                        verify_theorem1(r, m, overrides, budget=budget)
                    continue
                try:
                    min_lee_weight_witness(code, budget)
                    refused = False
                except CapacityError:
                    refused = True
                assert refused == (budget < k)
                rep = verify_theorem1(r, m, overrides, budget=budget)
                assert rep.skipped == refused, (r, m, budget)
                assert rep.status == ("skipped" if refused else "pass"), (r, m, budget)


def test_nonequivalence_examples():
    rec = nonequivalence_report(3, 5)
    assert (rec.lrm_k, rec.qrm_k, rec.distinct) == (26, 30, True)
    rec = nonequivalence_report(1, 2)
    assert (rec.lrm_k, rec.qrm_k, rec.distinct) == (3, 4, True)
    for m in range(1, 8):
        assert nonequivalence_report(m, m).distinct is False


def test_search_small_targets():
    assert search_nonlinear_base(theorem1_params(1, 2), length_limit=2) == []

    found = search_nonlinear_base(CodeParams(4, 4, 3), length_limit=4)
    assert found
    for c in found:
        assert c.n == 4 and c.log2_size == 4
        assert min_lee_weight(c) == 3
        assert not image_is_linear_bruteforce(c)
    # the witness parameters are realized
    assert any(c.type_counts == (2, 0) for c in found)


def test_search_limit_exceeded():
    with pytest.raises(CapacityError):
        search_nonlinear_base(CodeParams(9, 2, 2), length_limit=8)


def test_search_refuses_long_rows_and_large_spans():
    # candidate rows are single uint64 limbs: 32 Z4 lanes
    with pytest.raises(CapacityError, match="target length 33 exceeds 32") as e:
        search_nonlinear_base(CodeParams(33, 2, 2), length_limit=40)
    assert (e.value.required, e.value.configured) == (33, 32)
    # the search materializes spans of up to 2^(k - 1) words: the span that
    # a last order-2 row is weighed against
    with pytest.raises(CapacityError, match="target log2 size 21 exceeds 20") as e:
        search_nonlinear_base(CodeParams(12, 21, 2), length_limit=12)
    assert (e.value.required, e.value.configured) == (21, MATERIALIZE_BUDGET)
    # each top row's 2^(2n - k) candidate rows are built before any is tested
    with pytest.raises(CapacityError, match=r"builds 2\^30 candidates for a row") as e:
        search_nonlinear_base(CodeParams(16, 2, 2), length_limit=16)
    assert (e.value.required, e.value.configured) == (30, MATERIALIZE_BUDGET)
    # a log2 size past the old oracle bound of 14 is searched (here: none exist)
    assert search_nonlinear_base(CodeParams(8, 16, 2), length_limit=8) == []


def test_search_stop_after():
    full = search_nonlinear_base(CodeParams(4, 4, 3), length_limit=4)
    first = search_nonlinear_base(CodeParams(4, 4, 3), length_limit=4, stop_after=1)
    assert len(first) == 1
    assert [w.digits() for w in first[0].generators] == [
        w.digits() for w in full[0].generators
    ]


@pytest.mark.parametrize("target", [(4, 4, 3), (5, 5, 3), (6, 7, 4)])
def test_search_leaf_forms_are_standard_forms(monkeypatch, target):
    # every leaf whose code has the target distance is tested on a form built
    # from its rows as chosen, with no elimination
    forms = []

    def spy(sf):
        forms.append(sf)
        return real(sf)

    real = analysis._form_image_is_linear
    monkeypatch.setattr(analysis, "_form_image_is_linear", spy)
    found = search_nonlinear_base(CodeParams(*target), length_limit=target[0])
    assert len(forms) >= len(found) > 0
    for sf in forms:
        assert sf == standard_form(GeneratorMatrix(sf.rows, n=sf.n))


@pytest.mark.parametrize("chunk", [1, 30, 45, 60, 150, 1 << 16])
def test_least_weights_match_the_word_by_word_minimum(chunk):
    # 13 span words against 3 x 5 multiples, in runs of 1, 2, 3, 4, 10 and 13
    # words; the last span word alone gives the first candidate weight 0
    rng = random.Random(chunk)
    n = 7
    steps = [[rng.randrange(4**n) for _ in range(5)] for _ in range(3)]
    span = [rng.randrange(4**n) for _ in range(12)]
    span.append(negate(Z4Word._raw(n, steps[0][0]))._packed)
    got = analysis._least_weights(
        np.array(span, dtype=np.uint64), np.array(steps, dtype=np.uint64), chunk=chunk
    )
    want = [
        min(lee_weight(add(Z4Word._raw(n, w), Z4Word._raw(n, row[i])))
            for w in span for row in steps)
        for i in range(5)
    ]
    assert want[0] == 0
    assert got.tolist() == want


def _product_candidates(n, k1, k2, pos, is_top):
    """Candidate rows one Python int at a time, through nested products: the
    reference for _row_candidates' frozen order."""
    free = range(k1 + k2, n)
    out = []
    if is_top:
        for two_part in itertools.product((0, 1), repeat=k2):
            base = 1 << (2 * pos)
            for j, s in enumerate(two_part):
                base |= s << (2 * (k1 + j))
            for free_part in itertools.product(range(4), repeat=len(free)):
                out.append(base | sum(s << (2 * col) for col, s in zip(free, free_part)))
    else:
        for free_part in itertools.product((0, 2), repeat=len(free)):
            out.append(2 << (2 * (k1 + pos)) | sum(s << (2 * col) for col, s in zip(free, free_part)))
    return out


def test_row_candidates_equal_the_product_loops():
    # every pivot position of every (k1, k2) shape with n <= 6
    for n in range(1, 7):
        for k1 in range(n + 1):
            for k2 in range(n - k1 + 1):
                for is_top, count in ((True, k1), (False, k2)):
                    for pos in range(count):
                        got = analysis._row_candidates(n, k1, k2, pos, is_top)
                        assert got.dtype == np.uint64
                        want = _product_candidates(n, k1, k2, pos, is_top)
                        assert got.tolist() == want, (n, k1, k2, pos, is_top)


@pytest.mark.parametrize("chunk", [1, 3, 100])
@pytest.mark.parametrize("target", [(4, 4, 3), (5, 5, 3)])
def test_search_is_independent_of_the_chunk_bound(monkeypatch, chunk, target):
    # small bounds weigh one span word, or a few with a short last run, at a time
    monkeypatch.setattr(
        analysis, "_least_weights", functools.partial(analysis._least_weights, chunk=chunk)
    )
    found = search_nonlinear_base(CodeParams(*target), length_limit=target[0])
    name = "search_nonlinear_{}_{}_{}.txt".format(*target)
    want = (Path(__file__).parent / "data" / name).read_text(encoding="ascii")
    assert "\n".join(render_code(c) for c in found) == want


def test_search_first_extended_perfect_code_is_the_shipped_one():
    first = search_nonlinear_base(CodeParams(8, 11, 4), length_limit=8, stop_after=1)
    assert [c.generators for c in first] == [shipped_nonlinear_base().generators]


def test_shipped_nonlinear_base_properties():
    c = shipped_nonlinear_base()
    want = theorem1_params(2, 4)
    assert c.n == want.n
    assert c.log2_size == want.k
    assert min_lee_weight(c) == want.d
    assert image_is_linear(c) is False
    assert image_is_linear_bruteforce(c) is False
    rep = verify_theorem1(2, 4, overrides={(2, 4): c})
    assert rep.passed and rep.image_linear is False


def test_distance_invariance_of_gray_images():
    for c in corpus():
        if c.log2_size > 10:
            continue
        cw = list(enumerate_codewords(c.standard_form))
        images = [gray(w) for w in cw]
        dist = lee_weight_distribution(c)
        want = Counter({w: n for w, n in enumerate(dist.counts) if n})
        for img0 in images:
            got = Counter(hamming_distance(img0, img) for img in images)
            assert got == want


def test_distance_weight_duality():
    for c in corpus():
        if not 1 <= c.log2_size <= 8:
            continue
        cw = list(enumerate_codewords(c.standard_form))
        pair_min = min(
            lee_distance(x, y) for x, y in itertools.combinations(cw, 2)
        )
        assert pair_min == min_lee_weight(c)


def test_parallel_determinism():
    c = lrm(2, 4)
    results = [
        (
            min_lee_weight_witness(c, workers=w),
            lee_weight_distribution(c, workers=w).counts,
        )
        for w in (1, 3, 8)
    ]
    assert results[0] == results[1] == results[2]


def test_gray_image_params_match_rm_reference():
    for m in range(1, 4):
        for r in range(m + 1):
            img = gray_image_params(lrm(r, m))
            ref = binary_code_params(rm_binary(r, m))
            assert (img.n, img.k, img.d) == (ref.n, ref.k, ref.d)


def test_gray_image_params_nonlinear_path():
    img = gray_image_params(WITNESS)
    # nonlinear image: distance from the full pairwise sweep
    cw = list(enumerate_codewords(WITNESS.standard_form))
    images = [gray(w) for w in cw]
    want = min(
        hamming_distance(a, b) for a, b in itertools.combinations(images, 2)
    )
    assert img == CodeParams(8, 4, want, binary=True)


def test_gray_image_params_of_a_large_nonlinear_image():
    # 2^16 words, nonlinear image: the distance comes from the least nonzero
    # image weight (distance invariance), checked against the Lee route
    c = lrm(2, 5, {(2, 4): shipped_nonlinear_base()})
    assert image_is_linear(c) is False
    assert gray_image_params(c) == CodeParams(32, 16, 8, binary=True)
    assert gray_image_params(c).d == min_lee_weight(c)


@st.composite
def _codes_up_to_2_8(draw):
    # two to four rows of length 3..8: about a quarter of these codes have
    # nonlinear Gray images
    n = draw(st.integers(3, 8))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=2, max_size=4))
    return Z4Code(GeneratorMatrix([Z4Word(r) for r in rows], n=n))


@settings(max_examples=100, deadline=None)
@given(c=_codes_up_to_2_8())
@example(c=WITNESS)
def test_gray_image_distance_is_min_pairwise_distance(c):
    # pure-Python pairwise reference, for linear and nonlinear images alike
    images = [gray(w) for w in enumerate_codewords(c.standard_form)]
    if len(images) == 1:
        return
    want = min(hamming_distance(a, b) for a, b in itertools.combinations(images, 2))
    assert gray_image_params(c).d == want


@pytest.mark.parametrize("lengths", [(2, 4), (4, 2)])
def test_binary_rows_of_different_lengths_are_refused(lengths):
    rows = [BitWord([1] * n) for n in lengths]
    with pytest.raises(DimensionError, match=f"row length {lengths[1]} differs"):
        binary_code_params(rows)
    with pytest.raises(DimensionError, match=f"row length {lengths[1]} differs"):
        binary_log2_size(rows)


def test_binary_code_params_reference_values():
    p = binary_code_params(rm_binary(1, 3))
    assert (p.n, p.k, p.d) == (8, 4, 4)
    p = binary_code_params(rm_binary(2, 5))
    assert (p.n, p.k, p.d) == (32, 16, 8)
    with pytest.raises(CapacityError):
        binary_code_params(rm_binary(2, 5), budget=10)
