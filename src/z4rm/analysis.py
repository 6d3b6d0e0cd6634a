"""Verification engine: minimum Lee distance, weight distributions, Gray
image linearity, parameter reports, and the size-based nonequivalence
comparison against the QRM family.

Heavy sweeps run on the vectorized engine; every result is independent of
the worker count because per-block reductions are merged in block order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import _engine
from .codes import CodeParams, RMOrder, Z4Code, check_order, lrm, qrm_log2_size, theorem1_params
from .errors import CapacityError, DimensionError, ZeroCodeError
from .linalg import DEFAULT_BUDGET, GeneratorMatrix, StandardForm, check_budget, codeword_at
from .z4core import BitWord, Z4Word, alpha, beta, gray

__all__ = [
    "WeightDistribution",
    "VerificationReport",
    "NonequivalenceRecord",
    "min_lee_weight",
    "lee_weight_distribution",
    "image_is_linear",
    "image_is_linear_bruteforce",
    "verify_theorem1",
    "nonequivalence_report",
    "search_nonlinear_base",
    "gray_image_params",
    "binary_code_params",
    "binary_log2_size",
]

# sweeps that materialize every word (image sets, search spans) stay below this
MATERIALIZE_BUDGET = 20
BRUTE_ORACLE_BUDGET = 14


@dataclass(frozen=True)
class WeightDistribution:
    """Codeword counts by Lee weight, indexed 0..2n."""

    counts: tuple

    def __post_init__(self):
        if not self.counts or self.counts[0] < 1:
            raise ValueError("a linear code always contains the zero word")

    def total(self) -> int:
        return sum(self.counts)

    def min_nonzero_weight(self) -> int:
        for w, c in enumerate(self.counts):
            if w and c:
                return w
        raise ZeroCodeError("no nonzero codeword")


class NonequivalenceRecord(NamedTuple):
    order: RMOrder
    lrm_k: int
    qrm_k: int
    distinct: bool


@dataclass(frozen=True)
class VerificationReport:
    """Claimed vs computed parameters for one LRM(r,m) instance.

    computed_d / witness_hamming are None when the code exceeds the
    enumeration budget; passed is strict and treats a skip as not passing.
    """

    order: RMOrder
    label: str
    claimed: CodeParams
    computed_n: int
    computed_k: int
    computed_d: int | None
    witness_hamming: int | None
    image_linear: bool
    budget: int
    fast: bool

    @property
    def skipped(self) -> bool:
        return self.computed_d is None

    @property
    def claims(self) -> list:
        """(claim, expected, got, status) per claim, in report order:
        skipped when got is None, else pass or fail.  The witness's image
        weight is expected to be the computed distance, else the claim."""
        d = self.computed_d
        rows = [
            ("length", self.claimed.n, self.computed_n),
            ("log2_size", self.claimed.k, self.computed_k),
            ("min_lee_distance", self.claimed.d, d),
            ("witness_isometry", self.claimed.d if d is None else d, self.witness_hamming),
        ]
        return [
            (name, want, got, "skipped" if got is None else "pass" if got == want else "fail")
            for name, want, got in rows
        ]

    @property
    def failures(self) -> list:
        """(claim, expected, got) for every claim that fails."""
        return [(name, want, got) for name, want, got, status in self.claims if status == "fail"]

    @property
    def status(self) -> str:
        """fail if a claim fails, else skipped if one was skipped (the
        distance sweep was over budget), else pass."""
        statuses = [claim[3] for claim in self.claims]
        return "fail" if "fail" in statuses else "skipped" if "skipped" in statuses else "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def min_lee_weight_witness(c: Z4Code, budget: int = DEFAULT_BUDGET, workers: int = 1):
    """(minimum nonzero Lee weight, first codeword in the frozen order
    achieving it), exact, along the cheapest _engine.Route to them.  The
    budget gates C's own size."""
    sf = c.standard_form
    check_budget(sf.log2_size, budget)
    d, t = _engine.lee_route(sf, witness=True).witness(workers)
    return d, codeword_at(sf, t)


def min_lee_weight(c: Z4Code, budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Minimum Lee weight over all nonzero codewords (exact)."""
    return min_lee_weight_witness(c, budget=budget, workers=workers)[0]


def lee_weight_distribution(
    c: Z4Code, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightDistribution:
    """Exact codeword counts by Lee weight, along the cheapest
    _engine.Route.  The budget gates C's own size."""
    sf = c.standard_form
    check_budget(sf.log2_size, budget)
    return WeightDistribution(tuple(_engine.lee_route(sf).counts(workers)))


def image_is_linear(c: Z4Code) -> bool:
    """Whether the Gray image is closed under XOR, decided from generators
    (_form_image_is_linear on the code's standard form)."""
    return _form_image_is_linear(c.standard_form)


def _form_image_is_linear(sf: StandardForm) -> bool:
    """Whether the Gray image of the code in standard form sf is XOR-closed.

    The image is linear iff 2*(alpha(u)*alpha(v)) lies in the code for every
    generator pair (Hammons et al. 1994); of the standard-form rows only
    distinct unit rows matter.  Their a = alpha(u) & alpha(v) has no bit in a
    unit-pivot column, so 2a is a codeword iff a is the XOR of beta(w_t) over
    the pivot-2 columns t where a has a bit, w_t being the even row with
    pivot t.  The brute-force oracle is its reference in the tests.
    """
    units = [alpha(u)._packed for u in sf.rows[: sf.k1]]
    halves = {1 << t: beta(w)._packed for t, w in zip(sf.two_cols, sf.rows[sf.k1 :])}
    two_mask = sum(halves)
    # a GF(2) loop, not membership of 2a (linalg._reduce passes every row per
    # pair): 6.5 against 100 ms on the 70 plain and overridden orders, m <= 7
    for au, av in itertools.combinations(units, 2):
        a = au & av
        rest, span = a & two_mask, 0
        while rest:
            low = rest & -rest
            span ^= halves[low]
            rest ^= low
        if span != a:
            return False
    return True


def _collect_images(c: Z4Code, budget: int):
    """(2^k, limbs) Gray images of every codeword: a one-block sweep's table,
    in _engine.gray_lanes' layout, which permutes z4core.gray's coordinates
    and so keeps the image set's size, XOR closure and distances."""
    sf = c.standard_form
    check_budget(sf.log2_size, min(budget, MATERIALIZE_BUDGET))
    basis = _engine.z4_basis_from_standard_form(sf)
    return _engine.Sweep(basis, sf.log2_size, _engine.z4_add, sf.log2_size).images


def image_is_linear_bruteforce(c: Z4Code, budget: int = BRUTE_ORACLE_BUDGET) -> bool:
    """Oracle: enumerate every Gray image and decide XOR closure from the
    image set S alone.

    S lies in its GF(2) span, which has 2^rank(S) words, so S is XOR-closed
    (S contains the zero word's image) iff |S| = 2^rank(S).  Each image row
    is read as one int; any fixed bit order keeps size and rank.
    """
    images = {int.from_bytes(row.tobytes(), "little") for row in _collect_images(c, budget)}
    return len(images) == 1 << len(_gf2_row_basis(images))


def verify_theorem1(
    r: int,
    m: int,
    overrides: Mapping[tuple, Z4Code] | None = None,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    fast: bool = False,
) -> VerificationReport:
    """Build LRM(r,m) and compare its computed parameters with the claim.

    The minimum Lee distance is exact (min_lee_weight_witness), which alone
    decides what fits the budget: the distance claims are skipped when it
    raises CapacityError.  An override over the budget still raises, from
    lrm.  The claim never bounds the computation, so fast=True computes what
    the default audit does and only changes the mode shown in the report.
    On the minimum-weight witness the Gray image weight must reproduce the
    Lee weight (isometry cross-check).
    """
    order = check_order(r, m)
    claimed = theorem1_params(r, m)
    code = lrm(r, m, overrides, budget)
    try:
        computed_d, witness = min_lee_weight_witness(code, budget, workers=workers)
        witness_hamming = gray(witness).weight()
    except CapacityError:
        computed_d = witness_hamming = None
    return VerificationReport(
        order=order,
        label=code.label,
        claimed=claimed,
        computed_n=code.n,
        computed_k=code.log2_size,
        computed_d=computed_d,
        witness_hamming=witness_hamming,
        image_linear=image_is_linear(code),
        budget=budget,
        fast=fast,
    )


def nonequivalence_report(r: int, m: int) -> NonequivalenceRecord:
    """Size comparison against the equal-length QRM code: different log2
    sizes mean the codes cannot be equivalent."""
    order = check_order(r, m)
    lrm_k = theorem1_params(r, m).k
    qrm_k = qrm_log2_size(r, m)
    return NonequivalenceRecord(order, lrm_k, qrm_k, lrm_k != qrm_k)


def gray_image_params(c: Z4Code, budget: int = MATERIALIZE_BUDGET) -> CodeParams:
    """Computed (length, log2 size, minimum Hamming distance) of the Gray image.

    The image size is counted from the materialized image set.  The Gray
    image of a Z4-linear code is distance invariant, d_H(gray(x), gray(y)) =
    wt_L(x - y) with x - y a codeword (Hammons et al. 1994), so its minimum
    distance is its least nonzero weight, whether or not it is linear.
    """
    images = _collect_images(c, budget)
    size = len(np.unique(images, axis=0))
    if size != 1 << c.log2_size:
        raise AssertionError("Gray map failed to be injective")  # pragma: no cover
    if size == 1:
        raise ZeroCodeError("the zero code's image has no distance")
    weights = _engine.bit_weights(images)
    d = int(np.min(weights[weights > 0]))
    return CodeParams(n=2 * c.n, k=c.log2_size, d=d, binary=True)


def _gf2_row_basis(rows):
    """Independent rows after GF(2) elimination of int bit masks, leading bit
    descending."""
    lead = {}
    for r in rows:
        while r:
            top = r.bit_length()
            if top not in lead:
                lead[top] = r
                break
            r ^= lead[top]
    return [lead[top] for top in sorted(lead, reverse=True)]


def _all_ones_index(basis_ints, n):
    """Sweep index of the all-ones word of length n in the span of
    basis_ints (leading bits descending, as _gf2_row_basis gives them;
    index bit j toggles basis_ints[-1-j]), or None when the span lacks it."""
    rest, t = (1 << n) - 1, 0
    for i, row in enumerate(basis_ints):
        if rest >> (row.bit_length() - 1) & 1:
            rest ^= row
            t |= 1 << (len(basis_ints) - 1 - i)
    return None if rest else t


def _equal_length(rows):
    """rows as a list, or DimensionError if two differ in length."""
    rows = list(rows)
    for w in rows:
        if w.n != rows[0].n:
            raise DimensionError(f"row length {w.n} differs from first row length {rows[0].n}")
    return rows


def binary_log2_size(rows) -> int:
    """GF(2) rank of the generator rows (log2 of the binary code size)."""
    return len(_gf2_row_basis(w._packed for w in _equal_length(rows)))


def binary_code_params(
    rows, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> CodeParams:
    """(length, log2 size, minimum Hamming distance) of a binary linear code
    given by generator rows (BitWords)."""
    rows = _equal_length(rows)
    if not rows:
        raise ZeroCodeError("no generator rows")
    n = rows[0].n
    basis_ints = _gf2_row_basis([w._packed for w in rows])
    k = len(basis_ints)
    if k == 0:
        raise ZeroCodeError("the zero code has no nonzero codeword")
    check_budget(k, budget)
    bit_rows = [BitWord._raw(n, p) for p in basis_ints]
    basis = _engine.xor_basis_from_rows(bit_rows, n)
    # blocks pair with their complements, wt(x + 1) = n - wt(x)
    mirror = _all_ones_index(basis_ints, n) if k > _engine.DEFAULT_BLOCK_LOG2 else None
    best = _engine.min_weight_sweep(
        basis, k, _engine.xor_add, _engine.bit_weights, workers=workers, mirror=mirror
    )
    return CodeParams(n=n, k=k, d=best[0], binary=True)


def search_nonlinear_base(
    target: CodeParams, length_limit: int = 8, stop_after: int | None = None
):
    """Exhaustive search for quaternary linear codes with the target
    parameters whose Gray image is nonlinear.

    Candidates are generator matrices already in standard form with pivots
    at the leftmost columns, one shape per admissible (k1, k2) split; every
    matrix in that shape is visited (_search_shape), subject only to pruning
    by weight: a candidate row is dropped when one of the words it adds to
    the partial span weighs less than d, which cannot discard a valid code.
    Each row's candidates are weighed against the whole partial span in one
    array operation.  Codes that are column permutations of a found code are
    not searched separately.  Cost grows as 4^(free columns) per row, so
    lengths much beyond the default limit are impractical.
    """
    if target.binary:
        raise ValueError("search targets are quaternary parameter triples")
    n, k, d = target.n, target.k, target.d
    if n > length_limit:
        raise CapacityError(
            f"target length {n} exceeds the search limit {length_limit}",
            required=n,
            configured=length_limit,
        )
    if n > 32:
        raise CapacityError(
            f"target length {n} exceeds 32, the search's single-limb candidate rows",
            required=n,
            configured=32,
        )
    if k > MATERIALIZE_BUDGET:
        raise CapacityError(
            f"target log2 size {k} exceeds {MATERIALIZE_BUDGET}: the search "
            f"materializes spans of up to 2^{k - 1} words",
            required=k,
            configured=MATERIALIZE_BUDGET,
        )
    results = []
    if k == 0:
        return results
    # a shape's order-4 rows each take 2^k2 * 4^(n - k1 - k2) = 2^(2n - k)
    # candidates, built before any is tested; with k = 1 there are only
    # order-2 rows, of 2^(n - 1)
    rows_log2 = 2 * n - k if k > 1 else n - 1
    if rows_log2 > MATERIALIZE_BUDGET:
        raise CapacityError(
            f"the search builds 2^{rows_log2} candidates for a row, more than "
            f"2^{MATERIALIZE_BUDGET}",
            required=rows_log2,
            configured=MATERIALIZE_BUDGET,
        )
    for k1 in range(k // 2, -1, -1):
        k2 = k - 2 * k1
        if k1 + k2 > n:
            continue
        _search_shape(n, k1, k2, d, results, stop_after)
        if stop_after is not None and len(results) >= stop_after:
            break
    return results


def _row_candidates(n, k1, k2, pos, is_top):
    """Packed candidate rows for one pivot position, in frozen order, as an
    (N,) single-limb array: the pivot, then one lane per column after the
    unit pivots (0 or 1 at a pivot-2 column and 0..3 at a free one on an
    order-4 row, 0 or 2 at a free one on an order-2 row), each column's
    lane varying faster than the one before it."""
    free = range(k1 + k2, n)
    if is_top:
        out = np.array([1 << 2 * pos], dtype=np.uint64)
        lanes = [(k1 + j, (0, 1)) for j in range(k2)] + [(col, (0, 1, 2, 3)) for col in free]
    else:
        out = np.array([2 << 2 * (k1 + pos)], dtype=np.uint64)
        lanes = [(col, (0, 2)) for col in free]
    for col, values in lanes:
        out = (out[:, None] | np.array(values, dtype=np.uint64) << np.uint64(2 * col)).reshape(-1)
    return out


def _least_weights(span, steps, chunk=1 << _engine.DEFAULT_BLOCK_LOG2):
    """(N,) least Lee weight of w + s·v over the words w of span and the
    nonzero multiples s·v of each candidate v, given as the (order - 1, N)
    array steps.  All sums of a run of span words are weighed at once; the
    run is as long as keeps them within chunk words, and one word long when
    its sums alone are more."""
    flat = steps.reshape(-1)
    run = max(1, chunk // len(flat))
    least = None
    for lo in range(0, len(span), run):
        sums = _engine.z4_add(span[lo : lo + run, None], flat)
        part = _engine.lee_weights(sums.reshape(-1, 1)).reshape(sums.shape).min(axis=0)
        least = part if least is None else np.minimum(least, part)
    return least.reshape(steps.shape).min(axis=0)


def _grow(span, steps):
    """The span after adding a row of nonzero multiples steps (s·v for
    s = 1..order-1): span, then span + s·v for each s."""
    grown = np.empty((len(steps) + 1, len(span)), dtype=span.dtype)
    grown[0] = span
    _engine.z4_add(span, steps[:, None], out=grown[1:])
    return grown.reshape(-1)


def _search_shape(n, k1, k2, d, results, stop_after):
    """Append to results every code of the (k1, k2) shape, in frozen order,
    with minimum Lee weight d and a nonlinear Gray image.

    Depth-first over rows: the order-2 rows first (fewest choices), then the
    order-4 rows.  A candidate row v at a node survives when every new word
    w + s·v, for w in the node's span and s = 1..order-1, weighs at least d;
    those are all the words the row adds, so a leaf's code has minimum
    weight d iff some row on its path added a word of weight d, and the
    leaf's span is never built.  The chosen rows are already what
    linalg.standard_form gives, so a leaf's form takes no elimination: unit
    rows with pivot 1 at columns 0..k1-1 and lane 0 or 1 at the pivot-2
    columns k1..k1+k2-1, even rows with pivot 2 there, and 0 at every other
    pivot column.
    """
    orders = [2] * k2 + [4] * k1
    steps = []  # per depth, the (order - 1, N) nonzero multiples of its candidates
    for depth, order in enumerate(orders):
        top = depth >= k2
        v = _row_candidates(n, k1, k2, depth - k2 if top else depth, top)
        multiples = [v]
        for _ in range(2, order):
            multiples.append(_engine.z4_add(multiples[-1], v))
        steps.append(np.stack(multiples))
    label = f"search[n={n},k={2 * k1 + k2},d={d},type=({k1},{k2})]"
    unit_cols, two_cols = tuple(range(k1)), tuple(range(k1, k1 + k2))

    def dfs(depth, span, chosen, reached):
        least = _least_weights(span, steps[depth])
        for i in np.flatnonzero(least >= d):
            if stop_after is not None and len(results) >= stop_after:
                return
            path = chosen + [int(steps[depth][0, i])]
            hit = reached or least[i] == d
            if depth + 1 < len(orders):
                dfs(depth + 1, _grow(span, steps[depth][:, i]), path, hit)
            elif hit:
                rows = tuple(Z4Word._raw(n, p) for p in path[k2:] + path[:k2])
                sf = StandardForm(n=n, k1=k1, k2=k2, rows=rows, unit_cols=unit_cols,
                                  two_cols=two_cols)
                if not _form_image_is_linear(sf):
                    results.append(Z4Code(GeneratorMatrix(rows, n=n), label=label))

    dfs(0, np.zeros(1, dtype=np.uint64), [], False)
