"""Vectorized codeword sweeps.

Packs codewords into numpy uint64 limbs (32 two-bit Z4 lanes or 64 binary
lanes per limb) and walks the full mixed-radix enumeration in blocks.  The
Z4 sweep packs linalg's enumeration basis, so the word at sweep index t is
the t-th enumerated codeword.

Workers share only the full direct, dual-side and binary sweeps
(_fold_units): each takes the next block from one lock-guarded iterator
and folds it into a private partial (the least (weight, index), or an
int64 histogram), and the calling thread merges the partials in a fixed
order.  Both are exact in any order, so results are identical for any
worker count.  A stop-at search and the Plotkin coset sweeps run in the
calling thread, in index order.

A block's weights are one XOR and one popcount per limb: the sweep keeps
its low table as images in Hamming space (the Gray map for Z4), so the
weight of table word t plus offset c is the Hamming weight of
image(t) ^ image(-c), counted in the narrowest unsigned type that holds
the word's bits (uint8 up to three limbs).  Each worker reuses its own
kernel buffers from block to block: fresh per-block arrays cost page faults
that varied with the allocator's state from call to call.

Negation is a Lee isometry that maps a Z4-linear code onto itself, and
adding 2·1, whose Gray image is all ones, maps a code that holds it onto
itself with wt(x + 2·1) = 2n - wt(x).  So the Z4 direct and dual-side
sweeps weigh one block field of each orbit of {id, neg, +2·1, neg∘+2·1}
(Sweep.orbit), and add its counts as they are and reversed; binary sweeps
of a code with the all-ones word pair each block with its complement.  The
histogram and the least (weight, index) stay the full sweep's: reversed
counts offer only a weight, and a stop-at search names an image's index.

Route describes the three exact routes to a code's Lee weight
distribution, and lee_route picks the cheapest for what the caller wants:
the counts, or the minimum weight and its first index.  For the minimum
weight the Plotkin route needs no distribution: lee_route splits the code
into parts that carry their own witness routes, and Route.min_weight
applies d(C) = min(2·d(A), d(B)) down that tree.  A route that proves d
first weighs the word at index 1, and searches further only when it is
heavier.
"""

from __future__ import annotations

import math
import os
import threading
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ZeroCodeError
from .linalg import (
    dual_standard_form, intersection, mirror_index, mixed_radix_basis, plotkin_split,
)
from .z4core import Z4Word, _BYTE_LANES, _lane_masks, lee_weight

U64 = np.uint64
_LO = U64(0x5555555555555555)
_ONE = U64(1)
_ALL = 0xFFFFFFFFFFFFFFFF

# Blocks of the direct and dual-side sweeps.  At 2^16 words a block's table,
# XOR buffer and weights of a two-limb code (1.6 MiB) fit the 2 MiB L2.
# Paired min-weight and histogram sweeps of monomial copies of LRM(2,6)
# (2^22 words) and of its Plotkin doubling with the repetition code (2^23),
# the sum of the four, medians of 7 interleaved runs on a 2-vCPU x86 KVM
# guest, at block_log2 14/15/16/17/18/19: 2 workers 105/68-73/58-73/62-85/
# 74-82/124 ms, 1 worker 62/60/64/73/92 ms.
DEFAULT_BLOCK_LOG2 = 16


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
    limb-major (order="F") so that each limb column is contiguous.  Each
    column doubles at index bit j by basis word w_j in image space: the
    image map is XOR-linear, so an even limb of w_j (any limb of a binary
    sweep) takes one XOR with its image, and a unit limb also the image
    3 (x & w_j & lo) of its carries, x & lo being (y ^ y >> 1) & lo for
    the image y of x.  Block h
    is the table plus an offset c from the high basis, a Python int (limb l
    at bits 64l.., as in pack_rows), and its weights are the popcounts of
    images ^ mask(c), summed over limbs in the narrowest unsigned type that
    holds 64 * limbs (uint8 up to three limbs).

    units > 0 says the top 2 * units index bits are the order-4
    coefficients of unit rows, first row highest, as in
    linalg.mixed_radix_basis, so that negating a word flips the high bit of
    each pair whose low bit is set.  mirror = P, keyword-only, is the index
    of a codeword M whose image covers every word's image (2·1 of a Z4
    code, the all-ones word of a binary one): the word at t plus M lies at
    t ^ P and weighs mirror_weight less the word at t.  orbit(h) then
    weighs one block of each orbit; the defaults weigh every block once.
    """

    def __init__(self, basis, k, combine, block_log2=DEFAULT_BLOCK_LOG2, units=0, *,
                 mirror=None):
        self.combine = combine
        self._image, self._add, self._mask_of = _RINGS[combine]
        self.low_bits = min(k, block_log2)
        self.block_count = 1 << (k - self.low_bits)
        self._limbs = basis.shape[1] if len(basis) else 1
        self._lo = ((1 << 64 * self._limbs) - 1) // 3
        bits = 64 * self._limbs
        self.weight_type = (
            np.uint8 if bits < 1 << 8 else np.uint16 if bits < 1 << 16 else np.uint32
        )
        # a block's field: the q unit pairs whose two coefficient bits both
        # lie in h (h's top 2q bits), or, with none, h itself; and the low bit
        # of each coefficient in it
        q = min(units, (k - self.low_bits) // 2)
        self._field_shift = k - self.low_bits - 2 * q if q else 0
        self._odd_bits = self._lo & ((1 << 2 * q) - 1)
        self.images = np.zeros((1 << self.low_bits, self._limbs), dtype=U64, order="F")
        words = basis[: self.low_bits]
        images = self._image(words).tolist()
        odd = (words & _LO if combine is z4_add else np.zeros_like(words)).tolist()
        for l in range(self._limbs):
            column = self.images[:, l]
            for j in range(self.low_bits):
                y, x = column[: 1 << j], column[1 << j : 2 << j]
                if odd[j][l]:
                    np.right_shift(y, _ONE, out=x)
                    x ^= y
                    x &= odd[j][l]
                    x *= U64(3)
                    x ^= y
                    x ^= images[j][l]
                else:
                    np.bitwise_xor(y, images[j][l], out=x)
        high = basis[self.low_bits :]
        self._high_basis = [sum(v << 64 * l for l, v in enumerate(r)) for r in high.tolist()]
        self._mirror_field = 0
        if mirror is not None:
            self._mirror_field = mirror >> self.low_bits >> self._field_shift
            low = mirror & ((1 << self.low_bits) - 1)
            image = sum(int(v) << (64 * l) for l, v in enumerate(self.images[low]))
            self.mirror_weight = (image ^ self._mask_of(self._offset(mirror >> self.low_bits),
                                                        self._lo)).bit_count()

    def block_size(self) -> int:
        return 1 << self.low_bits

    def _negate_field(self, f):
        return f ^ (f & self._odd_bits) << 1

    def orbit(self, h):
        """(plain, mirrored): how many times block h's counts are added as
        they are and reversed (w -> mirror_weight - w); (0, 0) skips it.

        Negation keeps even coefficients and swaps 1 and 3, so it maps the
        words of the blocks with field f one to one onto those with field
        neg(f), at equal weight (neg is the identity on a field of no unit
        pair).  Adding the mirror word maps them onto the blocks with field
        f ^ (P's field), at weight mirror_weight - w.  These maps and their
        product form a group, and only the blocks whose field is the least
        of its orbit are weighed: once for each field of the orbit that id or
        neg reaches (plain), and once reversed for each other field.
        """
        f = h >> self._field_shift
        neg = self._negate_field(f)
        m = f ^ self._mirror_field
        neg_m = self._negate_field(m)
        if min(neg, m, neg_m) < f:
            return 0, 0
        # neg_m is m exactly when neg is f; m in {f, neg} leaves neg_m there too
        return 1 + (neg != f), 0 if m in (f, neg) else 1 + (neg_m != m)

    def mirror_floor(self, h):
        """No image of block h's words under the mirror, with or without
        negation, at a smaller index can improve on block h's own minimum.

        The images' fields are exactly m = h's field ^ P's field and neg(m).
        With no unit pair in the field (h itself), negation can move an
        image out of block m only when h's one bit is the high bit of a unit
        pair split with the table, and then it moves it into block h, whose
        own minimum comes first."""
        m = (h >> self._field_shift) ^ self._mirror_field
        return min(m, self._negate_field(m)) << self._field_shift + self.low_bits

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
        """(N,) weights of block h, of weight_type, in buffers kept in the
        dict scratch."""
        mask = self._pack(self._mask_of(self._offset(h), self._lo))
        n = self.images.shape[0]
        x = _buffer(scratch, "x", (n,), U64)
        w = np.bitwise_count(
            np.bitwise_xor(self.images[:, 0], mask[0], out=x),
            out=_buffer(scratch, "w", (n,), self.weight_type),
        )
        for limb in range(1, len(mask)):
            np.bitwise_xor(self.images[:, limb], mask[limb], out=x)
            w += np.bitwise_count(x, out=_buffer(scratch, "c", (n,), np.uint8))
        return w


def _fold_units(units, fold, workers):
    """Per-thread partials of fold over the iterator units, in a fixed order:
    the calling thread's first, then each started thread's (None for one
    that took no unit), for the full sweeps of min_weight_sweep and
    weight_histogram.

    fold(acc, unit, scratch) returns the partial acc (None before a thread's
    first unit) with unit folded in, using buffers kept in the thread's own
    dict scratch.  The first unit runs in the calling thread, and threads
    start only if units has more, so a one-block sweep starts none.  The
    calling thread and workers - 1 started ones then each take the next
    unit left, under one lock, until none is left.  Threads beyond the CPUs
    the process may run on only add overhead, so workers is clamped to
    them.  The units are taken as they run, never listed.  An exception in
    any thread stops the others taking units and is raised here once all
    have ended, so no partial is silently lost.
    """
    scratch = {}
    acc = fold(None, next(units), scratch)
    unit = next(units, None)
    if unit is None:
        return [acc]
    units = chain([unit], units)
    if workers > 1:
        affinity = getattr(os, "sched_getaffinity", None)
        workers = min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers <= 1:
        for unit in units:
            acc = fold(acc, unit, scratch)
        return [acc]
    lock = threading.Lock()
    errors = []
    partials = [acc] + [None] * (workers - 1)

    def take():
        with lock:
            return None if errors else next(units, None)

    def run(i, scratch):
        try:
            while (unit := take()) is not None:
                partials[i] = fold(partials[i], unit, scratch)
        except BaseException as e:
            errors.append(e)

    threads = [threading.Thread(target=run, args=(i, {})) for i in range(1, workers)]
    try:
        for t in threads:
            t.start()
    except BaseException as e:
        errors.append(e)
    run(0, scratch)
    for t in threads:
        if t.ident is not None:
            t.join()
    if errors:
        raise errors[0]
    return partials


def _counted_blocks(sweep):
    """(h, plain, mirrored) for the blocks h of sweep that orbit(h) weighs,
    in order; block 0 always is."""
    return ((h, *c) for h in range(sweep.block_count) if (c := sweep.orbit(h))[0])


def min_weight_sweep(
    basis,
    k,
    combine,
    weights,
    workers=1,
    stop_at=None,
    block_log2=DEFAULT_BLOCK_LOG2,
    units=0,
    *,
    mirror=None,
):
    """(min weight, first sweep index achieving it) over the 2^k - 1 words
    after index 0 (the zero word), or None when k = 0.

    stop_at makes the call a search: it weighs the blocks in index order,
    in the calling thread, and returns at the first block whose own minimum
    is <= stop_at, with that block's result: it lies below every earlier
    block's.  The weights follow from combine (Sweep.weights); the weights
    parameter (lee_weights or bit_weights) stays for the callers that pass
    it.  units and mirror (Sweep's) weigh one block of each orbit; a block
    h with mirrored images also offers their least weight d (mirror_weight
    less its greatest) as (d, mirror_floor(h), -1), behind the words of
    weight d up to that index.  If an offer is the minimum, a search with
    stop_at=d and no mirror, in the same blocks, names its first index.
    mirror needs the whole sweep, so it refuses stop_at, and a basis of
    independent words, so that only index 0 holds the zero word.

    Without stop_at, workers share the blocks (_fold_units).
    """
    if mirror is not None and stop_at is not None:
        raise ValueError("mirror pairs blocks of the whole sweep; it cannot stop early")
    sweep = Sweep(basis, k, combine, block_log2, units, mirror=mirror)
    size = sweep.block_size()

    def fold(best, unit, scratch):
        h, _, mirrored = unit
        w = sweep.weights(h, scratch)
        first = 1 if h == 0 else 0  # index 0 is the zero word
        if len(w) > first:
            i = first + int(np.argmin(w[first:]))
            r = (int(w[i]), h * size + i)
            best = r if best is None or r < best else best
        if mirrored:
            d = sweep.mirror_weight - int(w.max())  # 0: the image of 2·1, the zero word
            if d and (best is None or (d, sweep.mirror_floor(h)) < best):
                best = (d, sweep.mirror_floor(h), -1)  # an offer: the search names it
        return best

    if stop_at is not None:
        best, scratch = None, {}
        for unit in _counted_blocks(sweep):
            best = fold(best, unit, scratch)
            if best is not None and best[0] <= stop_at:
                return best
        return best
    partials = _fold_units(_counted_blocks(sweep), fold, workers)
    best = min((p for p in partials if p is not None), default=None)
    if best is not None and len(best) > 2:
        return min_weight_sweep(basis, k, combine, weights, stop_at=best[0],
                                block_log2=block_log2, units=units)
    return best


def _weight_counts(w, max_weight):
    """np.bincount(w, minlength=max_weight + 1) of a block's weights.

    Byte-wide weights of a block of at least as many words as the
    (max_weight + 1) * 256 cells hi * 256 + lo (a power of two, so of even
    length) are binned in pairs, through their uint16 view, at half the
    length that bincount widens to intp; the row sums count the high bytes
    and the column sums the low ones.  Below that size the cells' sums cost
    more than they save: on a 2-vCPU x86 KVM guest, real blocks of n = 16,
    32 and 64 codes broke even at 2^13, 2^13-2^14 and 2^15 words, and at
    2^16 words took 0.44, 0.61 and 0.65 of the plain bincount's time.
    """
    cells = (max_weight + 1) << 8
    if w.dtype != np.uint8 or len(w) < cells:
        return np.bincount(w, minlength=max_weight + 1)
    pairs = np.bincount(w.view(np.uint16), minlength=cells).reshape(-1, 256)
    return pairs.sum(axis=1) + pairs[:, : max_weight + 1].sum(axis=0)


def weight_histogram(
    basis, k, combine, weights, max_weight, workers=1, block_log2=DEFAULT_BLOCK_LOG2, units=0,
    *, mirror=None,
):
    """Exact counts of words by weight, as an int64 array of length max_weight+1.

    As in min_weight_sweep, combine sets the weights, the weights parameter
    stays for the callers that pass it, and units and mirror weigh one block
    of each orbit: a block's counts are added plain times and, reversed,
    mirrored times (Sweep.orbit).  Each thread sums its blocks' counts, and
    the sums are added at the end.  Raises ArithmeticError unless the
    counts sum to 2^k.
    """
    sweep = Sweep(basis, k, combine, block_log2, units, mirror=mirror)

    def fold(total, unit, scratch):
        h, plain, mirrored = unit
        counts = _weight_counts(sweep.weights(h, scratch), max_weight)
        if mirrored:
            # no word weighs more than the mirror word, so the rest is zero
            top = sweep.mirror_weight
            counts[: top + 1] = plain * counts[: top + 1] + mirrored * counts[top::-1]
        elif plain > 1:
            counts *= plain
        return counts if total is None else np.add(total, counts, out=total)

    partials = _fold_units(_counted_blocks(sweep), fold, workers)
    counts = sum(p for p in partials if p is not None)
    if int(counts.sum()) != 1 << k:
        raise ArithmeticError(f"sweep counts sum to {int(counts.sum())}, not 2^{k}")
    return counts


def z4_basis_from_standard_form(sf):
    """Packed per-index-bit contributions of linalg's enumeration order."""
    return pack_rows(mixed_radix_basis(sf), sf.n, 2)


# _LANE_TEXT[b] is the text of the four Z4 lanes in byte b, lowest lane first
_LANE_TEXT = np.frombuffer(_BYTE_LANES.encode("ascii"), dtype=np.uint8).reshape(256, 4)
# Blocks of codeword_lines hold at most 2^TEXT_BLOCK_LOG2 bytes of text
# (512 KiB): 2^5 words of the longest code file (2^13 lanes), 2^14 of
# LRM(2,5)'s.  Text of LRM(2,5) and of random codes with n = 16..8192 and
# k = 10..20 came at 133-313 MB/s with 1 MiB blocks and 151-321 MB/s with
# 512 KiB ones (best of 5, in one process, on a 2-vCPU x86 KVM guest).
TEXT_BLOCK_LOG2 = 19


def codeword_lines(sf):
    """The codewords of sf's code in the frozen order, one line of lane
    digits each, as one str per block of the Sweep over its enumeration
    basis.  A block is the largest (at most DEFAULT_BLOCK_LOG2) whose text
    stays within 2^TEXT_BLOCK_LOG2 bytes.  The budget is the caller's to
    check."""
    n, k = sf.n, sf.log2_size
    if k == 0:  # a Sweep of no basis words has one limb, whatever n is
        yield "0" * n + "\n"
        return
    block_log2 = min(DEFAULT_BLOCK_LOG2, TEXT_BLOCK_LOG2 - n.bit_length())
    sweep = Sweep(z4_basis_from_standard_form(sf), k, z4_add, block_log2)
    text = np.full((sweep.block_size(), n + 1), ord("\n"), dtype=np.uint8)
    for h in range(sweep.block_count):
        words = np.ascontiguousarray(sweep.block(h), dtype="<u8")  # the table is limb-major
        lanes = _LANE_TEXT[words.view(np.uint8)]
        text[:, :n] = lanes.reshape(len(text), -1)[:, :n]
        yield text.tobytes().decode("ascii")


def _sweep_mirror(sf):
    """linalg.mirror_index(sf) for a direct sweep of more than one block,
    the only kind it can pair, else None."""
    return mirror_index(sf) if sf.log2_size > DEFAULT_BLOCK_LOG2 else None


# Route.witness searches only when the word at index 1 is heavier than the
# proved d, which no LRM order tried (up to LRM(7,14)) has needed, and a
# search usually stops in its first block, so small blocks keep its table
# build cheap.
WITNESS_BLOCK_LOG2 = 10

# Every route but the direct one pays 2^FIXED_COST_LOG2 words on top of its
# own work (the dual's standard form or plotkin_split, A ∩ B, a second sweep
# set-up, the witness search).  At k = 14..16, with the route forced through
# Route.witness (one process, medians of 30 and of 40 alternating runs,
# 2-vCPU x86 KVM guest), route time over direct time per word, less the
# route's units, gave F = 13.5-15.3, median 14.3-14.4, for the duals of
# LRM(3,4), LRM(4,4) and six random codes, and the Plotkin routes of LRM(2,5)
# (plain, the family benchmark's seed-1 and seed-3 (2,4) copies) and a
# random code.  F in [14.3, 15) keeps the seed-1 LRM(2,5) direct
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


def _log2_sum(a, b):
    """log2(2^a + 2^b), in log space: 2n - k reaches 16383."""
    return max(a, b) + math.log2(1 + 2.0 ** -abs(a - b))


def _plus_fixed(cost):
    """log2(2^cost + 2^FIXED_COST_LOG2)."""
    return _log2_sum(cost, FIXED_COST_LOG2)


class Route(NamedTuple):
    """One exact route to the Lee weight distribution of sf's code C, or to
    its minimum weight, and its cost: log2 of the words it sweeps or their
    equivalent, plus FIXED_COST_LOG2's on all but "direct".

    - "direct": a sweep of C's 2^k words;
    - "dual": a sweep of C⊥'s 2^(2n-k) words (linalg.dual_standard_form),
      which lee_macwilliams turns into C's counts;
    - "plotkin": for C = {(x, x+y) : x in A, y in B}, with A and B read
      off C's own rows by linalg.plotkin_split.  Priced for the counts,
      parts is the standard forms (a, b, A ∩ B), and the route is one
      sweep of A + B (A itself when B ⊆ A) whose index rows are the cosets
      of B and whose row heads are the cosets of A ∩ B in A.  Their
      per-coset histograms combine, one chunk of cosets at a time, in one
      int64 product, into C's counts (plotkin_lee_distribution), at the
      cost of plotkin_cost.  Priced for the witness, parts is A's and B's
      own witness Routes, and min_weight walks them.
      parts is None on the other routes.

    Direct and dual-side sweeps weigh one block field of each orbit
    (Sweep.orbit).
    """

    method: str
    cost: float
    sf: object
    parts: tuple | None

    def counts(self, workers=1):
        """Exact Lee weight counts (w = 0..2n, Python ints) of C."""
        if self.method == "plotkin":
            return plotkin_lee_distribution(*self.parts)
        dual = self.method == "dual"
        side = dual_standard_form(self.sf) if dual else self.sf
        counts = weight_histogram(
            z4_basis_from_standard_form(side), side.log2_size, z4_add, lee_weights,
            2 * side.n, workers=workers, units=side.k1, mirror=_sweep_mirror(side),
        )
        return lee_macwilliams(counts, self.sf.log2_size) if dual else [int(a) for a in counts]

    def min_weight(self, workers=1):
        """Minimum nonzero Lee weight d of C, C not {0}.

        The direct route takes its witness's weight, and the dual route and
        the Plotkin counts their first nonzero count.  The Plotkin route
        priced for the witness takes each part route's own min_weight, and
        d(C) = min(2·d(A), d(B)), which holds for any A and B:
        - a nonzero (x, x) weighs 2·wt(x) >= 2·d(A);
        - with y nonzero, wt(x) + wt(x + y) >= wt(y) >= d(B), by the Lee
          triangle inequality;
        - (x_A, x_A) and (0, y_B), for least words x_A and y_B, reach the
          two bounds.
        A side with no nonzero word is left out.
        """
        if self.method == "direct":
            return self.witness(workers)[0]
        if self.method == "plotkin" and isinstance(self.parts[0], Route):
            return min(f * part.min_weight(workers)
                       for f, part in zip((2, 1), self.parts) if part.sf.log2_size)
        return next(w for w, a in enumerate(self.counts(workers)) if w and a)

    def witness(self, workers=1):
        """(minimum nonzero Lee weight, sweep index of its first word) of C.

        On the direct route the orbit-paired full sweep is the whole
        computation, with a stop-at search of its own when an image may
        come first.  On the others min_weight proves the minimum d first.
        The word at index 1, the first nonzero one, is then weighed alone:
        at weight d it is the witness.  If it is heavier, a sweep of C in
        WITNESS_BLOCK_LOG2 blocks stops at the first block holding a word of
        weight d: it misses no lighter word, and the index is the one the
        full sweep returns.  Raises ArithmeticError if the word at index 1
        or the search finds another weight, which a wrong proof of d would
        give.
        """
        sf = self.sf
        if sf.log2_size == 0:
            raise ZeroCodeError("the zero code has no nonzero codeword")
        basis = mixed_radix_basis(sf)
        if self.method == "direct":
            return min_weight_sweep(
                pack_rows(basis, sf.n, 2), sf.log2_size, z4_add, lee_weights, workers=workers,
                units=sf.k1, mirror=_sweep_mirror(sf),
            )
        d = self.min_weight(workers)
        found = lee_weight(basis[0]), 1
        if found[0] > d:
            found = min_weight_sweep(
                pack_rows(basis, sf.n, 2), sf.log2_size, z4_add, lee_weights, workers=workers,
                stop_at=d, block_log2=WITNESS_BLOCK_LOG2, units=sf.k1,
            )
        if found[0] != d:
            raise ArithmeticError(f"the {self.method} route proved d = {d}, "
                                  f"but the search found weight {found[0]}")
        return found


def lee_route(sf, witness=False):
    """The cheapest Route for sf's code, a function of the code alone, to
    its counts or, with witness, to its Route.witness.  The Plotkin route is
    priced when linalg.plotkin_split finds C = plotkin(A, B): for the counts
    by plotkin_cost, and for the witness by the parts' own witness routes,
    lee_route(part, witness=True), kept as its parts, whose costs add.
    Ties go to the earlier method in Route's list."""
    k = sf.log2_size
    best = Route("direct", k, sf, None)
    dual = _plus_fixed(2 * sf.n - k)
    if dual < k:
        best = Route("dual", dual, sf, None)
    if witness:
        # a part X's route costs at least min(k_X, _plus_fixed(0)), and one
        # part has k_X >= k/2: when that cannot win, C is not split
        if _plus_fixed(min(k / 2, _plus_fixed(0))) < best.cost and (split := plotkin_split(sf)):
            parts = tuple(lee_route(x, witness=True) for x in split)
            cost = _plus_fixed(_log2_sum(*(x.cost for x in parts)))
            if cost < best.cost:
                best = Route("plotkin", cost, sf, parts)
        return best
    # The plotkin route's int64 counts reach 2^k.  B has at most 4^(n/2)
    # words, so A has at least 2^(k-n), and the route sweeps at least A:
    # when that cannot win, C is not split at all.
    if k < 63 and _plus_fixed(k - sf.n) < best.cost and (split := plotkin_split(sf)):
        a, b = split
        if _plus_fixed(a.log2_size) < best.cost:
            inter = intersection(a, b)
            cost = _plus_fixed(plotkin_cost(a.log2_size, b.log2_size, inter.log2_size, a.n))
            if cost < best.cost:
                best = Route("plotkin", cost, sf, (a, b, inter))
    return best


class _Span:
    """A subgroup S of Z4^n that grows word by word, with a membership test
    that needs no row reduction of S.

    It keeps two GF(2) echelons on packed lanes (lane i at bits 2i, 2i+1),
    keyed by leading bit: the residue code {s mod 2 : s in S}, as words of S
    (stored negated) whose odd lanes are the rows, and the torsion code
    {t mod 2 : 2t in S}, as masks of lane low bits.  Reducing x by the
    residue words leaves x - s with s in S and no odd lane when x mod 2 lies
    in the residue code; x - s = 2t is then in S iff t mod 2, the high bits
    of its lanes, lies in the torsion code.
    """

    def __init__(self, n):
        self.lo = _lane_masks(n)[0]
        self.residue = {}
        self.torsion = {}

    def _reduce(self, x):
        """The packed x less residue words until none leads its odd lanes."""
        lo = self.lo
        while (odd := x & lo) and (neg := self.residue.get(odd.bit_length())):
            x = ((x & neg & lo) << 1) ^ x ^ neg
        return x

    def _torsion_bits(self, even):
        bits = (even >> 1) & self.lo
        while bits and (row := self.torsion.get(bits.bit_length())):
            bits ^= row
        return bits

    def __contains__(self, x):
        rest = self._reduce(x)
        return not rest & self.lo and not self._torsion_bits(rest)

    def extend(self, g):
        """Grow S until it holds g; returns the words added, in order.

        Each added b is g if 2g is in S, else 2g.  So b is not in S and 2b is,
        and S ∪ (b + S) is again a subgroup, twice as large: either b mod 2
        joins the residue code, or (b - s)/2 mod 2 joins the torsion code.
        """
        added = []
        x = g._packed
        while x not in self:
            double = (x & self.lo) << 1
            b = x if double in self else double
            rest = self._reduce(b)
            if odd := rest & self.lo:
                self.residue[odd.bit_length()] = rest ^ odd << 1  # -rest
            else:
                t = self._torsion_bits(rest)
                self.torsion[t.bit_length()] = t
            added.append(Z4Word._raw(g.n, b))
        return added


def plotkin_bit_basis(a, b, inter):
    """Words b_0..b_{K-1} whose 0/1 combinations give each word of A + B
    once, for codes A and B and their intersection inter: first
    mixed_radix_basis(inter), then words of B completing B, then words of A
    completing A + B, as _Span.extend adds them for the rows of b and a.
    Sweep index c * 2^k_B + j then runs over a coset x_c + B of B as j
    runs over its row, x_c in A, and over x_c + A ∩ B, a coset of A ∩ B in
    A, as j runs over the row's first 2^k_I indices.  When inter is b
    itself (B ⊆ A, as intersection returns it), b's rows add nothing."""
    span = _Span(a.n)
    for g in inter.rows:
        span.extend(g)
    basis = mixed_radix_basis(inter)
    for g in a.rows if inter is b else b.rows + a.rows:
        basis += span.extend(g)
    return basis


# Blocks of the coset sweeps.  A block's buffers (images, XOR, weights,
# cells, counts) sit in a 2 MiB L2 at 2^14 words; from 2^15 up LRM(2,6)'s
# route slows by 40% or more.  Smaller blocks cost more per word swept, and
# LRM(2,7)'s larger sweep is fastest at 2^15-2^16.  plotkin_lee_distribution,
# medians of interleaved runs on a 2-vCPU x86 KVM guest, at block_log2
# 13/14/15/16: LRM(2,6) with the family benchmark's seed-3 (2,4) override
# (B ⊆ A, 2^16 words swept) 1.19/1.14/1.77/2.14 ms, with its seed-1
# override (B ⊄ A, 2^17 words) 1.88/1.76/2.47/3.37 ms; LRM(2,7)
# 51/32/27/28 ms, with the seed-1 copy at (2,4) 97/67/60/58 ms.
HISTOGRAM_BLOCK_LOG2 = 14


def coset_histograms(basis, k, low, head, max_weight, fold, block_log2=HISTOGRAM_BLOCK_LOG2):
    """fold(acc, row, H_head, H) folded over consecutive chunks of whole
    rows, in order, from acc = None; returns the last acc.  H_head and H
    are (rows, max_weight + 1) int64 counts by Lee weight of rows row,
    row + 1, ...: row c of H counts the words at sweep indices
    c * 2^low .. (c + 1) * 2^low - 1 of the packed basis, and row c of
    H_head the first 2^head of them (head <= low; H_head is H when
    head == low).

    A block spans whole rows, or lies in one row, which its blocks then sum
    into one chunk.  Each row bins its head and its tail apart, in one
    bincount of the block.  Blocks are cut to at most 2^block_log2 /
    (max_weight + 1) rows, so H in a chunk holds no more counts than a
    full block holds words.  It runs in the calling thread.
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
    acc, scratch = None, {}
    for h in range(sweep.block_count):
        start = h * size & ((1 << low) - 1)  # in its row; 0 for a block of whole rows
        # widened out of the narrow weights before the cell offsets are added
        cell = cells if start == 0 else (group if start >> head else 0)
        w = np.add(sweep.weights(h, scratch), cell, dtype=np.intp)
        binned = np.bincount(w, minlength=split * group)
        counts = binned if start == 0 else counts + binned  # then one row's cells
        if start + size >= 1 << low:  # the chunk's last block
            counts = counts.reshape(split, rows, width)
            heads = counts[0]
            full = heads + counts[1] if split == 2 else heads
            acc = fold(acc, h * size >> low, heads, full)
    return acc


def plotkin_lee_distribution(a, b, inter):
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
    the sweep bins them, in the calling thread (coset_histograms), in int64
    einsum over the weights that occur in H_B.  Each entry is at most
    |C| = 2^(k_A + k_B) words, so the product is exact below 2^63 words
    (lee_route keeps to that).  Raises ArithmeticError unless the counts
    sum to |C|.
    """
    ka, kb, ki = a.log2_size, b.log2_size, inter.log2_size
    basis = pack_rows(plotkin_bit_basis(a, b, inter), a.n, 2)
    max_weight = 2 * a.n

    def product(counts, row, ha, hb):
        if counts is None:
            counts = np.zeros(2 * max_weight + 1, dtype=np.int64)
        # H_B counts every word H_A does, so its weights cover both
        u = np.flatnonzero(hb.any(axis=0))
        np.add.at(counts, u[:, None] + u, np.einsum("cu,cv->uv", ha[:, u], hb[:, u]))
        return counts

    counts = [int(c) for c in coset_histograms(basis, ka + kb - ki, kb, ki, max_weight, product)]
    if sum(counts) != 1 << (ka + kb):
        raise ArithmeticError(f"Plotkin counts sum to {sum(counts)}, not 2^{ka + kb}")
    return counts


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

