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
from .linalg import DEFAULT_BUDGET, GeneratorMatrix, check_budget, codeword_at
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
    achieving it), exact, along the cheapest _engine.Route.  The budget
    gates C's own size."""
    sf = c.standard_form
    check_budget(sf.log2_size, budget)
    d, t = _engine.lee_route(sf, c.parts).witness(workers)
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
    return WeightDistribution(tuple(_engine.lee_route(sf, c.parts).counts(workers)))


def image_is_linear(c: Z4Code) -> bool:
    """Whether the Gray image is closed under XOR, decided from generators.

    The image is linear iff 2*(alpha(u)*alpha(v)) lies in the code for every
    generator pair (Hammons et al. 1994); of the standard-form rows only
    distinct unit rows matter.  Their a = alpha(u) & alpha(v) has no bit in a
    unit-pivot column, so 2a is a codeword iff a is the XOR of beta(w_t) over
    the pivot-2 columns t where a has a bit, w_t being the even row with
    pivot t.  The brute-force oracle is its reference in the tests.
    """
    sf = c.standard_form
    units = [alpha(u)._packed for u in sf.rows[: sf.k1]]
    halves = {1 << t: beta(w)._packed for t, w in zip(sf.two_cols, sf.rows[sf.k1 :])}
    two_mask = sum(halves)
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
    matrix in that shape is visited (subject only to pruning by partial-span
    minimum weight, which cannot discard a valid code).  Codes that are
    column permutations of a found code are not searched separately.  Cost
    grows as 4^(free columns) per row, so lengths much beyond the default
    limit are impractical.
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
            f"materializes 2^k-word spans",
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
    (N, 1) single-limb array."""
    free = range(k1 + k2, n)
    out = []
    if is_top:
        pivot = 1 << (2 * pos)
        for two_part in itertools.product((0, 1), repeat=k2):
            base = pivot
            for j, s in enumerate(two_part):
                base |= s << (2 * (k1 + j))
            for free_part in itertools.product(range(4), repeat=len(free)):
                p = base
                for col, s in zip(free, free_part):
                    p |= s << (2 * col)
                out.append(p)
    else:
        pivot = 2 << (2 * (k1 + pos))
        for free_part in itertools.product((0, 2), repeat=len(free)):
            p = pivot
            for col, s in zip(free, free_part):
                p |= s << (2 * col)
            out.append(p)
    return np.array(out, dtype=np.uint64)[:, None]


def _search_shape(n, k1, k2, d, results, stop_after):
    # depth-first over rows: the order-2 rows first (fewest choices), then
    # the order-4 rows; the partial span's minimum weight prunes subtrees
    plan = [("two", j) for j in range(k2)] + [("top", i) for i in range(k1)]
    cand = [
        _row_candidates(n, k1, k2, pos, kind == "top") for kind, pos in plan
    ]
    span0 = np.zeros((1, 1), dtype=np.uint64)

    def extend(span, row, order):
        parts = [span]
        for _ in range(1, order):
            parts.append(_engine.z4_add(parts[-1], row))
        return np.concatenate(parts)

    def dfs(depth, span, chosen):
        if stop_after is not None and len(results) >= stop_after:
            return
        if depth == len(plan):
            w = _engine.lee_weights(span[1:])
            if int(w.min()) != d:
                return
            rows = [Z4Word._raw(n, int(p)) for _, p in sorted(chosen)]
            code = Z4Code(
                GeneratorMatrix(rows, n=n),
                label=f"search[n={n},k={2 * k1 + k2},d={d},type=({k1},{k2})]",
            )
            if not image_is_linear(code):
                results.append(code)
            return
        kind, pos = plan[depth]
        order = 4 if kind == "top" else 2
        rows = cand[depth]
        ok = np.ones(len(rows), dtype=bool)
        scaled = np.zeros_like(rows)
        for _ in range(1, order):
            scaled = _engine.z4_add(scaled, rows)
            for w in span:
                ok &= _engine.lee_weights(_engine.z4_add(scaled, w)) >= d
        for row in rows[ok]:
            key = (0, pos) if kind == "top" else (1, pos)
            dfs(depth + 1, extend(span, row, order), chosen + [(key, int(row[0]))])

    dfs(0, span0, [])
