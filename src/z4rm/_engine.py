"""Vectorized codeword sweeps.

Packs codewords into numpy uint64 limbs (32 two-bit Z4 lanes or 64 binary
lanes per limb) and walks the full mixed-radix enumeration in blocks.  The
Z4 sweep packs linalg's enumeration basis, so the word at sweep index t is
the t-th enumerated codeword.  Min-weight and weight-histogram reductions
are associative, so results are identical for any worker count.

A block's weights are one XOR and one popcount per limb: the sweep keeps
its low table as images in Hamming space (the Gray map for Z4), so the
weight of table word t plus offset c is the Hamming weight of
image(t) ^ image(-c).  Each worker reuses its own kernel buffers from block
to block: fresh per-block arrays cost page faults that varied with the
allocator's state from call to call.

Three exact routes give a code's Lee weight distribution, and lee_route
takes the cheapest in words swept, every route but the first paying one
fixed cost (FIXED_COST_LOG2): a sweep of the code, a sweep of its dual
that lee_macwilliams turns into the code's counts, or, for a code that
codes.plotkin built from parts A and B, one sweep of A + B (A itself when
B ⊆ A) whose index rows are the cosets of B and whose row heads are the
cosets of A ∩ B in A.  Their per-coset histograms combine, one chunk of
cosets at a time, in one int64 product, into the code's counts
(plotkin_lee_distribution); plotkin_cost prices the histogram cells and
product terms with the words.  Every route to the minimum weight ends in
one min_weight_sweep of the code: the whole sweep on the direct route, and
on the others a sweep that stops at the distance the route's counts prove
(min_lee_weight_smaller_side).
"""

from __future__ import annotations

import math
import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ZeroCodeError
from .linalg import check_budget, dual_standard_form, intersection, mixed_radix_basis
from .z4core import add, alpha, beta, negate

U64 = np.uint64
_LO = U64(0x5555555555555555)
_ONE = U64(1)
_ALL = 0xFFFFFFFFFFFFFFFF

DEFAULT_BLOCK_LOG2 = 18


def pack_rows(rows, n, lane_bits):
    """(k, limbs) uint64 array of length-n words with lane_bits bits per lane.

    Lane i of a row sits in limb (i * lane_bits) // 64, at bit offset
    (i * lane_bits) % 64.
    """
    limbs = max(1, -(-n * lane_bits // 64))
    out = np.zeros((len(rows), limbs), dtype=U64)
    for r, w in enumerate(rows):
        p = w._packed
        for l in range(limbs):
            out[r, l] = (p >> (64 * l)) & _ALL
    return out


def _buffer(scratch, name, shape, dtype):
    """scratch[name], allocated only on first use or a new shape or dtype."""
    buf = scratch.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = scratch[name] = np.empty(shape, dtype=dtype)
    return buf


def z4_add(a, b, out=None):
    """Lane-parallel addition mod 4 (carries never leave their lane).

    out, if given, must not share memory with a or b.
    """
    out = np.bitwise_and(a, b, out=out)
    out &= _LO
    out <<= _ONE
    out ^= a
    out ^= b
    return out


def gray_lanes(words):
    """In-lane Gray image of packed Z4 words: lane (b, a) -> (b, a^b).

    Each lane's two image bits stay in the lane, with beta at the high bit
    and gamma at the low bit.  This is a coordinate permutation of
    z4core.gray's layout (the beta block, then the gamma block), so it keeps
    the weights, pairwise distances, size and XOR closure of any set of
    images.  The map is its own inverse.
    """
    return words ^ ((words >> _ONE) & _LO)


def lee_weights(words):
    """(N,) Lee weights of an (N, limbs) packed Z4 array: the Hamming weights
    of its Gray images."""
    return bit_weights(gray_lanes(words))


def xor_add(a, b, out=None):
    return np.bitwise_xor(a, b, out=out)


def bit_weights(words):
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _identity(words, lo=None):
    return words


def z4_lane_add(a, b, lo):
    """z4_add on words packed in Python ints, lo being 0x55..55 over them."""
    return ((a & b & lo) << 1) ^ a ^ b


def z4_lane_mask(c, lo):
    """gray_lanes(-c) of a Python-int word c: -c takes lane (b, a) to (b^a, a)."""
    c ^= (c & lo) << 1
    return c ^ ((c >> 1) & lo)


# combine -> (image, add, mask = image of the negation) carrying its ring into
# Hamming space, where wt(x + c) = w_H(image(x) ^ mask(c)).  For Z4 this is
# the Gray isometry (Hammons, Kumar, Calderbank, Sloane, Solé, IEEE Trans. IT
# 40(2), 1994); binary words are their own images and negatives.
_RINGS = {
    z4_add: (gray_lanes, z4_lane_add, z4_lane_mask),
    xor_add: (_identity, lambda a, b, lo: a ^ b, _identity),
}


class Sweep:
    """Full enumeration of 2^k coefficient combinations of basis words.

    The low table holds the images of the first 2^block_log2 words, stored
    limb-major (order="F") so that each limb column is contiguous.  Block h
    is the table plus an offset c from the high basis, a Python int (limb l
    at bits 64l.., as in pack_rows), and its weights are the popcounts of
    images ^ mask(c), summed over limbs.
    """

    def __init__(self, basis, k, combine, block_log2=DEFAULT_BLOCK_LOG2):
        self.combine = combine
        self._image, self._add, self._mask_of = _RINGS[combine]
        self.low_bits = min(k, block_log2)
        self.block_count = 1 << (k - self.low_bits)
        self._limbs = basis.shape[1] if len(basis) else 1
        self._lo = ((1 << 64 * self._limbs) - 1) // 3
        table = np.zeros((1 << self.low_bits, self._limbs), dtype=U64, order="F")
        for j in range(self.low_bits):
            half = 1 << j
            combine(table[:half], basis[j][None, :], out=table[half : 2 * half])
        self.images = self._image(table)
        high = basis[self.low_bits :]
        self._high_basis = [sum(int(v) << (64 * l) for l, v in enumerate(r)) for r in high]

    def block_size(self) -> int:
        return 1 << self.low_bits

    def _offset(self, h):
        """The word at sweep index h * block_size, as a Python int."""
        offset = 0
        for j, row in enumerate(self._high_basis):
            if h >> j & 1:
                offset = self._add(offset, row, self._lo)
        return offset

    def _pack(self, word):
        return np.array([(word >> 64 * l) & _ALL for l in range(self._limbs)], dtype=U64)

    def block(self, h):
        """Packed words for sweep indices [h * block_size, (h+1) * block_size)."""
        return self.combine(self._image(self.images), self._pack(self._offset(h))[None, :])

    def weights(self, h, scratch):
        """(N,) int64 weights of block h, in buffers kept in the dict scratch."""
        mask = self._pack(self._mask_of(self._offset(h), self._lo))
        n = self.images.shape[0]
        x = _buffer(scratch, "x", (n,), U64)
        w = np.bitwise_count(
            np.bitwise_xor(self.images[:, 0], mask[0], out=x),
            out=_buffer(scratch, "w", (n,), np.int64),
        )
        for limb in range(1, len(mask)):
            np.bitwise_xor(self.images[:, limb], mask[limb], out=x)
            w += np.bitwise_count(x, out=_buffer(scratch, "c", (n,), np.uint8))
        return w


def _run_blocks(sweep, job, workers):
    """Yield job(h, weights of block h) for every block, in block order.

    Worker count never changes the sequence.  At most 4 * workers results
    are computed ahead of the one consumed, so a consumer that reduces as it
    goes holds a bounded number of them, and one that stops early (closing
    the generator) waits only for those.  Threads beyond the CPUs the
    process may run on only add overhead, so workers is clamped to them.
    """
    if workers > 1:
        affinity = getattr(os, "sched_getaffinity", None)
        workers = min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1)

    def run(h, scratch):
        return job(h, sweep.weights(h, scratch))

    if workers <= 1 or sweep.block_count == 1:
        scratch = {}
        for h in range(sweep.block_count):
            yield run(h, scratch)
        return
    scratches = defaultdict(dict)  # per pool thread
    window = 4 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, sweep.block_count, window):
            hs = range(start, min(start + window, sweep.block_count))
            futures = [
                pool.submit(lambda h=h: run(h, scratches[threading.get_ident()])) for h in hs
            ]
            for f in futures:
                yield f.result()


def min_weight_sweep(
    basis,
    k,
    combine,
    weights,
    workers=1,
    stop_at=None,
    block_log2=DEFAULT_BLOCK_LOG2,
):
    """(min weight, first sweep index achieving it) over the 2^k - 1 words
    after index 0 (the zero word), or None when k = 0.

    stop_at ends the sweep at the first block whose committed running
    minimum is <= stop_at.  The weights follow from combine (Sweep.weights);
    the weights parameter (lee_weights or bit_weights) stays for the callers
    that pass it.
    """
    sweep = Sweep(basis, k, combine, block_log2)
    size = sweep.block_size()

    def job(h, w):
        if h == 0:
            if len(w) == 1:
                return None
            w = w[1:]
            i = int(np.argmin(w))
            return int(w[i]), i + 1
        i = int(np.argmin(w))
        return int(w[i]), h * size + i

    best = None
    blocks = _run_blocks(sweep, job, workers)
    for r in blocks:
        if r is not None and (best is None or r < best):
            best = r
        if stop_at is not None and best is not None and best[0] <= stop_at:
            break
    blocks.close()
    return best


def weight_histogram(
    basis, k, combine, weights, max_weight, workers=1, block_log2=DEFAULT_BLOCK_LOG2
):
    """Exact counts of words by weight, as an int64 array of length max_weight+1.

    As in min_weight_sweep, combine sets the weights and the weights
    parameter stays for the callers that pass it.
    """
    sweep = Sweep(basis, k, combine, block_log2)

    def job(h, w):
        return np.bincount(w, minlength=max_weight + 1)

    total = np.zeros(max_weight + 1, dtype=np.int64)
    for counts in _run_blocks(sweep, job, workers):
        total += counts
    return total


def z4_basis_from_standard_form(sf):
    """Packed per-index-bit contributions of linalg's enumeration order."""
    return pack_rows(mixed_radix_basis(sf), sf.n, 2)


# The witness search usually stops in its first block (at index 1 for every
# dual-side LRM order with m <= 6), so small blocks keep its table build cheap.
WITNESS_BLOCK_LOG2 = 10

# Every route but the direct one pays 2^FIXED_COST_LOG2 words on top of its
# own work (the dual's or the parts' standard forms, A ∩ B, a second sweep
# set-up, the witness search).  At k = 14..16, with the route forced through
# min_lee_weight_smaller_side (one process, medians of 30 and of 40
# alternating runs, 2-vCPU x86 KVM guest), route time over direct time per
# word, less the route's units, gave F = 13.5-15.3, median 14.3-14.4, for the
# duals of LRM(3,4), LRM(4,4) and six random codes, and the Plotkin routes of
# LRM(2,5) (plain, the family benchmark's seed-1 and seed-3 (2,4) copies) and
# a random code.  F in [14.3, 15) keeps the seed-1 LRM(2,5) direct
# (plotkin/direct 1.33/1.30 ms) and LRM(3,4) on its dual (0.33/0.74 ms).
FIXED_COST_LOG2 = 14.5


def plotkin_cost(ka, kb, ki, n):
    """log2 of the work of plotkin_lee_distribution for parts of length n
    with 2^ka and 2^kb words meeting in 2^ki, in words swept: the
    2^(ka - ki + kb) words of A + B, and one unit per histogram cell and
    per product term.  Each of the 2^(ka - ki) cosets has 2n + 1 cells
    (twice that unless B ⊆ A: its head and its tail) and at most
    (2n + 1)^2 terms in H_A^T H_B.  Measured on a 2-vCPU x86 KVM guest, a
    word swept took 3.6-8 ns, a cell 1-6 ns and a term 0.7-3.5 ns.
    """
    cosets = 1 << (ka - ki)
    width = 2 * n + 1
    cells = width * (2 if ki < kb else 1)
    return math.log2((cosets << kb) + cosets * (cells + width * width))


def _plus_fixed(cost):
    """log2(2^cost + 2^FIXED_COST_LOG2), in log space: 2n - k reaches 16383."""
    return max(cost, FIXED_COST_LOG2) + math.log2(1 + 2.0 ** -abs(cost - FIXED_COST_LOG2))


def lee_route(sf, parts=None):
    """(method, log2 cost, A ∩ B) of the cheapest exact route to the Lee
    weight distribution of sf's code C, the cost being log2 of the words it
    sweeps or their equivalent, plus FIXED_COST_LOG2's on all but "direct":

    - "direct": a sweep of C's 2^k words;
    - "dual": a sweep of C⊥'s 2^(2n-k) words;
    - "plotkin": when C = {(x, x+y) : x in A, y in B} with parts = (A, B),
      codes with a standard_form, plotkin_lee_distribution at the cost of
      plotkin_cost.

    The third field is A ∩ B on the plotkin route and None otherwise.  Ties
    go to the earlier method in that list.
    """
    k = sf.log2_size
    best = ("direct", k, None)
    dual = _plus_fixed(2 * sf.n - k)
    if dual < k:
        best = ("dual", dual, None)
    # The plotkin route's int64 counts reach 2^k.  B has at most 4^(n/2)
    # words, so A has at least 2^(k-n), and the route sweeps at least A.
    if parts is not None and k < 63 and _plus_fixed(k - sf.n) < best[1]:
        a, b = (p.standard_form for p in parts)
        if _plus_fixed(a.log2_size) < best[1]:
            inter = intersection(a, b)
            cost = _plus_fixed(plotkin_cost(a.log2_size, b.log2_size, inter.log2_size, a.n))
            if cost < best[1]:
                best = ("plotkin", cost, inter)
    return best


class _Span:
    """A subgroup S of Z4^n that grows word by word, with a membership test
    that needs no row reduction of S.

    It keeps two GF(2) echelons of int bit masks, keyed by leading bit: the
    residue code {s mod 2 : s in S}, each row with a word of S that is the
    row mod 2, and the torsion code {t mod 2 : 2t in S}.  Reducing x mod 2
    against the residue rows, and x by their words, leaves x - s = 2t with s
    in S when x mod 2 lies in the residue code; x is then in S iff t mod 2
    lies in the torsion code.
    """

    def __init__(self):
        self.residue = {}
        self.torsion = {}

    def _reduce(self, x):
        """(x mod 2 reduced against the residue rows, x minus their words)."""
        bits = alpha(x)._packed
        while bits and (row := self.residue.get(bits.bit_length())):
            bits ^= row[0]
            x = add(x, negate(row[1]))
        return bits, x

    def _torsion_bits(self, even):
        bits = beta(even)._packed
        while bits and (row := self.torsion.get(bits.bit_length())):
            bits ^= row
        return bits

    def __contains__(self, x):
        bits, rest = self._reduce(x)
        return not bits and not self._torsion_bits(rest)

    def extend(self, g):
        """Grow S until it holds g; returns the words added, in order.

        Each added b is g if 2g is in S, else 2g.  So b is not in S and 2b is,
        and S ∪ (b + S) is again a subgroup, twice as large: either b mod 2
        joins the residue code, or (b - s)/2 mod 2 joins the torsion code.
        """
        added = []
        while g not in self:
            b = g if add(g, g) in self else add(g, g)
            bits, rest = self._reduce(b)
            if bits:
                self.residue[bits.bit_length()] = (bits, rest)
            else:
                t = self._torsion_bits(rest)
                self.torsion[t.bit_length()] = t
            added.append(b)
        return added


def plotkin_bit_basis(a, b, inter):
    """Words b_0..b_{K-1} whose 0/1 combinations give each word of A + B
    once, for codes A and B and their intersection inter: first
    mixed_radix_basis(inter), then words of B completing B, then words of A
    completing A + B, as _Span.extend adds them for the rows of b and a.
    Sweep index c * 2^k_B + j then runs over a coset x_c + B of B as j
    runs over its row, x_c in A, and over x_c + A ∩ B, a coset of A ∩ B in
    A, as j runs over the row's first 2^k_I indices."""
    span = _Span()
    for g in inter.rows:
        span.extend(g)
    basis = mixed_radix_basis(inter)
    for g in b.rows + a.rows:
        basis += span.extend(g)
    return basis


# Blocks of the coset sweeps.  A block's buffers (images, XOR, weights,
# cells, counts) sit in a 2 MiB L2 at 2^14 words; from 2^15 up LRM(2,6)'s
# route slows by 40% or more.  Smaller blocks cost more per word swept, and
# LRM(2,7)'s larger sweep is fastest at 2^15-2^16.  plotkin_lee_distribution,
# medians of interleaved runs on a 2-vCPU x86 KVM guest, at block_log2
# 13/14/15/16: LRM(2,6) with
# the family benchmark's seed-3 (2,4) override (B ⊆ A, 2^16 words swept)
# 1.19/1.14/1.77/2.14 ms, with its seed-1 override (B ⊄ A, 2^17 words)
# 1.88/1.76/2.47/3.37 ms; LRM(2,7) 51/32/27/28 ms, with the seed-1 copy at
# (2,4) 97/67/60/58 ms.
HISTOGRAM_BLOCK_LOG2 = 14


def coset_histograms(basis, k, low, head, max_weight, workers=1,
                     block_log2=HISTOGRAM_BLOCK_LOG2):
    """Yield pairs (H_head, H) of (rows, max_weight + 1) int64 counts by Lee
    weight, as consecutive chunks of whole rows: row c of H counts the words
    at sweep indices c * 2^low .. (c + 1) * 2^low - 1 of the packed basis,
    and row c of H_head the first 2^head of them (head <= low; H_head is H
    when head == low).

    A block spans whole rows, or lies in one row, which its blocks then sum.
    Each row bins its head and its tail apart, in one bincount of the block.
    Blocks are cut to at most 2^block_log2 / (max_weight + 1) rows, so H in
    a chunk holds no more counts than a full block holds words.
    """
    width = max_weight + 1
    split = 1 if head == low else 2  # cell groups per row: head, then tail
    rows_log2 = max(0, block_log2 - (width - 1).bit_length())
    sweep = Sweep(basis, k, z4_add, min(block_log2, low + rows_log2))
    size = sweep.block_size()
    rows = max(1, size >> low)
    group = rows * width  # the heads' cells, then the tails'
    # a block that starts a row bins by these cells; one that lies inside a
    # row's head or tail, by one offset
    tail = (np.arange(min(size, 1 << low)) >> head != 0) * group
    cells = (np.arange(0, group, width)[:, None] + tail).ravel()
    blocks_per_row = max(1, (1 << low) // size)

    def job(h, w):
        start = (h * size) % (1 << low)
        # w is the block's own scratch buffer, refilled per block
        w += cells if start == 0 else (group if start >> head else 0)
        counts = np.bincount(w, minlength=split * group).reshape(split, rows, width)
        heads = counts[0]
        return heads, heads + counts[1] if split == 2 else heads

    for h, (part, full) in enumerate(_run_blocks(sweep, job, workers)):
        if h % blocks_per_row:
            chunk = (chunk[0] + part, chunk[1] + full)
        else:
            chunk = (part, full)
        if (h + 1) % blocks_per_row == 0:
            yield chunk


def plotkin_lee_distribution(a, b, inter, workers=1):
    """Exact Lee weight counts (w = 0..4n, Python ints) of the code
    C = {(x, x+y) : x in A, y in B} of length 2n, from the standard forms
    a, b of A and B and inter of A ∩ B.

    For x in a coset D of A ∩ B in A, x + B is one coset D + B, so
    W_C = sum over D of W_D ⊛ W_{D+B} (the (u|u+v) recursion, MacWilliams
    and Sloane ch. 13).  One sweep of A + B in the basis of
    plotkin_bit_basis gives the histograms H_B[D, w] of the cosets D + B
    as its rows and H_A[D, w] of the cosets D as the rows' heads; when
    B ⊆ A the sweep is of A alone and D + B = D.  W_C[s] is the sum of
    (H_A^T H_B)[u, v] over u + v = s, reduced chunk by chunk of cosets as
    the sweep yields them, in int64 einsum over the weights that occur in
    H_B.  Each entry is at most |C| = 2^(k_A + k_B) words, so the product is
    exact below 2^63 words (lee_route keeps to that).  Raises
    ArithmeticError unless the counts sum to |C|.
    """
    ka, kb, ki = a.log2_size, b.log2_size, inter.log2_size
    basis = pack_rows(plotkin_bit_basis(a, b, inter), a.n, 2)
    max_weight = 2 * a.n
    counts = np.zeros(2 * max_weight + 1, dtype=np.int64)
    for ha, hb in coset_histograms(basis, ka + kb - ki, kb, ki, max_weight, workers):
        # H_B counts every word H_A does, so its weights cover both
        u = np.flatnonzero(hb.any(axis=0))
        np.add.at(counts, u[:, None] + u, np.einsum("cu,cv->uv", ha[:, u], hb[:, u]))
    counts = [int(c) for c in counts]
    if sum(counts) != 1 << (ka + kb):
        raise ArithmeticError(f"Plotkin counts sum to {sum(counts)}, not 2^{ka + kb}")
    return counts


def _lee_distribution(sf, parts, route, workers):
    """Exact Lee weight counts (Python ints) of sf's code along route."""
    method, _, inter = route
    if method == "plotkin":
        a, b = (p.standard_form for p in parts)
        return plotkin_lee_distribution(a, b, inter, workers=workers)
    side = dual_standard_form(sf) if method == "dual" else sf
    counts = weight_histogram(
        z4_basis_from_standard_form(side), side.log2_size, z4_add, lee_weights, 2 * sf.n,
        workers=workers,
    )
    return lee_macwilliams(counts, sf.log2_size) if method == "dual" else [int(a) for a in counts]


def lee_distribution_smaller_side(sf, budget, workers=1, parts=None):
    """Exact Lee weight counts (w = 0..2n, Python ints) of sf's code, along
    the cheapest route of lee_route (parts as there).

    The budget gates the code's own size.  On the dual route,
    lee_macwilliams turns the dual's counts into the code's.
    """
    check_budget(sf.log2_size, budget)
    return _lee_distribution(sf, parts, lee_route(sf, parts), workers)


def min_lee_weight_smaller_side(sf, budget, workers=1, parts=None):
    """(minimum nonzero Lee weight, sweep index of its first word) of sf's
    code, along the cheapest route of lee_route (parts as there).

    The budget gates the code's own size.  Every route ends in one sweep of
    the code.  On the direct route that sweep is the whole computation.  On
    the dual and plotkin routes the code's exact distribution gives the
    exact minimum d, and the sweep stops at the first block holding a word
    of weight d: as d is already proven, it misses no lighter word, and the
    index is the one the full sweep returns.
    """
    k = sf.log2_size
    check_budget(k, budget)
    if k == 0:
        raise ZeroCodeError("the zero code has no nonzero codeword")
    route = lee_route(sf, parts)
    stop_at, block_log2 = None, DEFAULT_BLOCK_LOG2
    if route[0] != "direct":
        counts = _lee_distribution(sf, parts, route, workers)
        stop_at = next(w for w, a in enumerate(counts) if w and a)
        block_log2 = WITNESS_BLOCK_LOG2
    return min_weight_sweep(
        z4_basis_from_standard_form(sf), k, z4_add, lee_weights, workers=workers,
        stop_at=stop_at, block_log2=block_log2,
    )


def _krawtchouk(w, length):
    """K_j(w; length) for j = 0..length (length >= 1): the coefficients of
    (1+z)^(length-w) (1-z)^w, by the three-term recurrence
    (j+1) K_{j+1} = (length - 2w) K_j - (length - j + 1) K_{j-1}."""
    out = [1, length - 2 * w]
    for j in range(1, length):
        out.append(((length - 2 * w) * out[j] - (length - j + 1) * out[j - 1]) // (j + 1))
    return out


def lee_macwilliams(dual_counts, k):
    """Lee weight counts of a Z4-linear code C of 2^k words, from the counts
    dual_counts[w] (w = 0..2n) of its dual C⊥.

    The MacWilliams identity for Lee enumerators,
    Lee_C(X, Y) = |C⊥|^-1 Lee_C⊥(X+Y, X-Y) (Hammons, Kumar, Calderbank, Sloane,
    Solé, IEEE Trans. IT 40(2), 1994), gives
    A_j = |C⊥|^-1 sum_w B_w K_j(w; 2n) with Krawtchouk polynomials K, in exact
    Python integers (numpy counts are converted first).  Raises ArithmeticError unless every A_j is a whole number and
    they sum to 2^k, which a wrong dual or size would break.
    """
    length = len(dual_counts) - 1
    dual_size = 1 << (length - k)
    sums = [0] * (length + 1)
    for w, b in enumerate(map(int, dual_counts)):
        if b:
            for j, kj in enumerate(_krawtchouk(w, length)):
                sums[j] += b * kj
    counts = []
    for s in sums:
        a, rem = divmod(s, dual_size)
        if rem:
            raise ArithmeticError(f"MacWilliams sum {s} is not a multiple of |C⊥| = {dual_size}")
        counts.append(a)
    if sum(counts) != 1 << k:
        raise ArithmeticError(f"MacWilliams counts sum to {sum(counts)}, not 2^{k}")
    return counts


def xor_basis_from_rows(rows, n):
    """Packed basis for a binary code sweep: index bit j toggles rows[-1-j]."""
    return pack_rows(rows, n, 1)[::-1].copy()

