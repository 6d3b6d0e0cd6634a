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
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ZeroCodeError
from .linalg import check_budget, dual_standard_form, mixed_radix_basis

U64 = np.uint64
_LO = U64(0x5555555555555555)
_ONE = U64(1)

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
            out[r, l] = (p >> (64 * l)) & 0xFFFFFFFFFFFFFFFF
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


def z4_negate(words):
    """Lane-wise negation mod 4: lane (b, a) -> (b^a, a)."""
    return words ^ ((words & _LO) << _ONE)


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


def _identity(words):
    return words


# combine -> (image, negation) carrying its ring into Hamming space, where
# wt(x + c) = w_H(image(x) ^ image(-c)).  For Z4 this is the Gray isometry
# (Hammons, Kumar, Calderbank, Sloane, Solé, IEEE Trans. IT 40(2), 1994);
# binary words are their own images and negatives.
_ISOMETRIES = {z4_add: (gray_lanes, z4_negate), xor_add: (_identity, _identity)}


class Sweep:
    """Full enumeration of 2^k coefficient combinations of basis words.

    The low table holds the images of the first 2^block_log2 words, stored
    limb-major (order="F") so that each limb column is contiguous.  Block h
    is the table plus an offset c from the high basis, and its weights are
    the popcounts of image_table ^ image(-c), summed over limbs.
    """

    def __init__(self, basis, k, combine, block_log2=DEFAULT_BLOCK_LOG2):
        self.k = k
        self.combine = combine
        self._image, self._negate = _ISOMETRIES[combine]
        self.low_bits = min(k, block_log2)
        self.block_count = 1 << (k - self.low_bits)
        limbs = basis.shape[1] if len(basis) else 1
        table = np.zeros((1 << self.low_bits, limbs), dtype=U64, order="F")
        for j in range(self.low_bits):
            half = 1 << j
            combine(table[:half], basis[j][None, :], out=table[half : 2 * half])
        self._images = self._image(table)
        self._high_basis = basis[self.low_bits :]

    def block_size(self) -> int:
        return 1 << self.low_bits

    def _offset(self, h):
        """(1, limbs) word at sweep index h * block_size."""
        offset = np.zeros((1, self._images.shape[1]), dtype=U64)
        j = 0
        while h:
            if h & 1:
                offset = self.combine(offset, self._high_basis[j][None, :])
            h >>= 1
            j += 1
        return offset

    def block(self, h):
        """Packed words for sweep indices [h * block_size, (h+1) * block_size)."""
        return self.combine(self._image(self._images), self._offset(h))

    def _mask(self, h):
        """image(-c) for block h's offset c, one scalar per limb.  Block 0's
        offset is zero, which both rings map to zero."""
        offset = self._offset(h)
        return (self._image(self._negate(offset)) if h else offset)[0]

    def weights(self, h, scratch):
        """(N,) int64 weights of block h, in buffers kept in the dict scratch."""
        mask = self._mask(h)
        n = self._images.shape[0]
        x = _buffer(scratch, "x", (n,), U64)
        w = np.bitwise_count(
            np.bitwise_xor(self._images[:, 0], mask[0], out=x),
            out=_buffer(scratch, "w", (n,), np.int64),
        )
        for limb in range(1, len(mask)):
            np.bitwise_xor(self._images[:, limb], mask[limb], out=x)
            w += np.bitwise_count(x, out=_buffer(scratch, "c", (n,), np.uint8))
        return w


def _run_blocks(sweep, job, workers, stop_check=None):
    """Apply job(h, weights of block h) to every block, committing results in
    block order.

    Returns the list of per-block results (prefix only, if stop_check cuts
    the sweep short).  Worker count never changes the committed sequence.
    Threads beyond the CPU count only add overhead, so workers is clamped to
    it.
    """
    workers = min(workers, os.cpu_count() or 1)

    def run(h, scratch):
        return job(h, sweep.weights(h, scratch))

    results = []
    if workers <= 1 or sweep.block_count == 1:
        scratch = {}
        for h in range(sweep.block_count):
            r = run(h, scratch)
            results.append(r)
            if stop_check is not None and stop_check(r):
                break
        return results
    scratches = defaultdict(dict)  # per pool thread
    window = 4 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        stopped = False
        for start in range(0, sweep.block_count, window):
            hs = range(start, min(start + window, sweep.block_count))
            futures = [
                pool.submit(lambda h=h: run(h, scratches[threading.get_ident()])) for h in hs
            ]
            for f in futures:
                r = f.result()
                if stopped:
                    continue
                results.append(r)
                if stop_check is not None and stop_check(r):
                    stopped = True
            if stopped:
                break
    return results


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

    def stop_check(r):
        nonlocal best
        if r is not None and (best is None or r < best):
            best = r
        return stop_at is not None and best is not None and best[0] <= stop_at

    _run_blocks(sweep, job, workers, stop_check)
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


def collect_words(basis, k, combine, block_log2=DEFAULT_BLOCK_LOG2):
    """All 2^k packed words as one (N, limbs) array, in sweep order."""
    sweep = Sweep(basis, k, combine, block_log2)
    return np.concatenate([sweep.block(h) for h in range(sweep.block_count)], axis=0)


def z4_basis_from_standard_form(sf):
    """Packed per-index-bit contributions of linalg's enumeration order."""
    return pack_rows(mixed_radix_basis(sf), sf.n, 2)


def z4_sweep_basis(sf, budget):
    """(packed basis, k) for sweeping the 2^k words of sf, within the budget."""
    k = sf.log2_size
    check_budget(k, budget)
    return z4_basis_from_standard_form(sf), k


def min_lee_weight_sweep(sf, budget, workers=1):
    """(minimum nonzero Lee weight, sweep index of its first word) of sf's
    code, by a sweep of all its words."""
    basis, k = z4_sweep_basis(sf, budget)
    if k == 0:
        raise ZeroCodeError("the zero code has no nonzero codeword")
    return min_weight_sweep(basis, k, z4_add, lee_weights, workers=workers)


# The witness search usually stops in its first block (at index 1 for every
# dual-side LRM order with m <= 6), so small blocks keep its table build cheap.
WITNESS_BLOCK_LOG2 = 10

# Codes of at most 2^14 words sweep directly even when their dual is smaller:
# the dual route's fixed cost (the dual built in Python ints, a second sweep
# set-up, the witness search) exceeds a whole sweep of the code.  Measured in
# one process, median of 40 alternating runs on a 2-vCPU x86 KVM guest, for
# LRM(2,4), LRM(3,4) and random codes with n = 8 and 10: direct/dual were
# 76-133/150-241 us at k = 11..13, 134-234/140-237 us at k = 14 and
# 196-299/133-218 us at k = 15.
DIRECT_MAX_LOG2 = 14


def _dual_is_cheaper(sf):
    """Whether the smaller-side routes sweep the dual: it has fewer words
    (|C⊥| = 4^n / |C|) and the code has more than 2^DIRECT_MAX_LOG2."""
    k = sf.log2_size
    return 2 * sf.n - k < k and k > DIRECT_MAX_LOG2


def lee_distribution_smaller_side(sf, budget, workers=1):
    """Exact Lee weight counts (w = 0..2n, Python ints) of sf's code,
    computed from whichever of the code and its dual has fewer words.

    The budget gates the code's own size.  When _dual_is_cheaper, a sweep of
    the dual gives the dual's counts and lee_macwilliams turns them into the
    code's; otherwise the code itself is swept.
    """
    k = sf.log2_size
    check_budget(k, budget)
    side = dual_standard_form(sf) if _dual_is_cheaper(sf) else sf
    counts = weight_histogram(
        z4_basis_from_standard_form(side), side.log2_size, z4_add, lee_weights, 2 * sf.n,
        workers=workers,
    )
    return lee_macwilliams(counts, k) if side is not sf else [int(a) for a in counts]


def min_lee_weight_smaller_side(sf, budget, workers=1):
    """(minimum nonzero Lee weight, sweep index of its first word) of sf's
    code, computed from whichever of the code and its dual has fewer words.

    The budget gates the code's own size.  When _dual_is_cheaper,
    lee_distribution_smaller_side gives the code's exact distribution, hence
    the exact minimum d; a sweep of the code that stops at the first block
    holding a word of weight d then finds the witness.  As d is already
    proven, stopping there misses no lighter word, and the index is the one
    the full sweep returns.  Otherwise this is min_lee_weight_sweep.
    """
    if not _dual_is_cheaper(sf):
        return min_lee_weight_sweep(sf, budget, workers=workers)
    counts = lee_distribution_smaller_side(sf, budget, workers=workers)
    d = next(w for w, a in enumerate(counts) if w and a)
    return min_weight_sweep(
        z4_basis_from_standard_form(sf), sf.log2_size, z4_add, lee_weights, workers=workers,
        stop_at=d, block_log2=WITNESS_BLOCK_LOG2,
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

