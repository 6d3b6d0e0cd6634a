"""Reference answers that do not use the code under test.

Everything here is written from the definitions: Z4 words are tuples of
symbols 0..3, the Gray map sends a symbol s to beta = s >> 1 and
gamma = (s ^ (s >> 1)) & 1 (full beta block, then full gamma block), and the
LRM(r,m) generators follow the Plotkin recursion (repetition code at r=0,
unit vectors at r=m, {(g,g)} + {(0,h)} in between).  The benchmark checks
every answer of the program against these functions, so none of them may
import z4rm.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def theorem_params(r, m):
    """(n, k, d) claimed for LRM(r,m): length 2^(m-1), size 2^k, Lee distance 2^(m-r)."""
    return 1 << (m - 1), sum(math.comb(m, i) for i in range(r + 1)), 1 << (m - r)


def qrm_k(r, m):
    return 2 * sum(math.comb(m - 1, i) for i in range(r + 1))


def lrm_rows(r, m, overrides=None):
    """Generator rows of LRM(r,m) by the Plotkin recursion; overrides maps (r,m) -> rows."""
    if overrides and (r, m) in overrides:
        return [tuple(row) for row in overrides[(r, m)]]
    n = 1 << (m - 1)
    if r == 0:
        return [(2,) * n]
    if r == m:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    left = lrm_rows(r, m - 1, overrides)
    right = lrm_rows(r - 1, m - 1, overrides)
    zero = (0,) * (n // 2)
    return [g + g for g in left] + [zero + h for h in right]


def plotkin_rows(left, right):
    zero = (0,) * len(left[0])
    return [tuple(g) + tuple(g) for g in left] + [zero + tuple(h) for h in right]


def rm_rows(r, m):
    """Binary RM(r,m) generator rows as bit tuples: monomials of degree <= r
    (graded, then lexicographic) evaluated at points j = 0..2^m-1, where
    variable v_i (i = 1..m) is bit m-i of j."""
    npts = 1 << m
    var = [[(j >> (m - i)) & 1 for j in range(npts)] for i in range(1, m + 1)]
    rows = []
    for degree in range(r + 1):
        for subset in itertools.combinations(range(m), degree):
            rows.append(tuple(int(all(var[i][j] for i in subset)) for j in range(npts)))
    return rows


def monomial(rows, perm, signs):
    """Coordinate i goes to position perm[i], multiplied by signs[i] (1 or 3 = -1)."""
    out = []
    for row in rows:
        y = [0] * len(row)
        for i, s in enumerate(row):
            y[perm[i]] = (signs[i] * s) % 4
        out.append(tuple(y))
    return out


def random_monomial(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, 3)) for _ in range(n)]


def lee_weight(word):
    return sum(min(s, 4 - s) for s in word)


def gray_bits(word):
    """Gray image as a 0/1 string: beta block then gamma block."""
    beta = "".join(str(s >> 1) for s in word)
    gamma = "".join(str((s ^ (s >> 1)) & 1) for s in word)
    return beta + gamma


def combine(rows, coeffs):
    n = len(rows[0])
    return tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % 4 for i in range(n))


class Z4Span:
    """Row span of Z4 generator rows: size, membership and enumeration.

    Rows with a unit entry are used as order-4 pivots (forward elimination
    only, so pivot rows are zero at earlier pivot columns); what remains is
    even and is reduced over GF(2) after halving.
    """

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        self.n = len(rows[0])
        self.units = []
        for col in range(self.n):
            piv = next((r for r in rows if r[col] % 2), None)
            if piv is None:
                continue
            rows.remove(piv)
            piv = [(piv[col] * x) % 4 for x in piv]  # 1*1 = 3*3 = 1 mod 4
            rows = [[(x - r[col] * p) % 4 for x, p in zip(r, piv)] for r in rows]
            self.units.append((col, piv))
        self.twos = []  # (col, halved row) with GF(2) pivot col
        for r in rows:
            if any(x % 2 for x in r):
                raise AssertionError("odd entry survived unit elimination")
            self._add_two([x // 2 for x in r])

    def _reduce2(self, b):
        for col, row in self.twos:
            if b[col]:
                b = [x ^ y for x, y in zip(b, row)]
        return b

    def _add_two(self, b):
        b = self._reduce2(b)
        lead = next((i for i, x in enumerate(b) if x), None)
        if lead is None:
            return
        self.twos = [(c, [x ^ y for x, y in zip(row, b)] if row[lead] else row)
                     for c, row in self.twos]
        self.twos.append((lead, b))

    @property
    def log2_size(self):
        return 2 * len(self.units) + len(self.twos)

    def contains(self, word):
        x = list(word)
        for col, piv in self.units:
            c = x[col]
            if c:
                x = [(a - c * p) % 4 for a, p in zip(x, piv)]
        if any(a % 2 for a in x):
            return False
        return not any(self._reduce2([a // 2 for a in x]))

    def words(self):
        """(2^k, n) uint8 array of every codeword."""
        out = np.zeros((1, self.n), dtype=np.uint8)
        for _, piv in self.units:
            p = np.array(piv, dtype=np.uint8)
            out = np.concatenate([(out + c * p) % 4 for c in range(4)])
        for _, b in self.twos:
            p = 2 * np.array(b, dtype=np.uint8)
            out = np.concatenate([out, (out + p) % 4])
        return out


def lee_distribution(words, n):
    w = np.minimum(words, 4 - words).sum(axis=1, dtype=np.int64)
    return tuple(int(x) for x in np.bincount(w, minlength=2 * n + 1))


def gray_array(words):
    """(N, 2n) uint8 Gray images of an (N, n) uint8 word array."""
    return np.concatenate([words >> 1, (words ^ (words >> 1)) & 1], axis=1)


def gf2_rank(bits):
    """GF(2) rank of the rows of a 0/1 uint8 array."""
    a = np.packbits(bits, axis=1)
    rank = 0
    for col in range(bits.shape[1]):
        byte, mask = col // 8, np.uint8(0x80 >> (col % 8))
        hit = np.flatnonzero(a[:, byte] & mask)
        if not len(hit):
            continue
        piv = a[hit[0]].copy()
        a[hit] ^= piv
        rank += 1
    return rank


def image_is_linear(span):
    """Whether the Gray image is XOR-closed: it holds 2^k words including 0,
    so it is linear exactly when its GF(2) span has dimension k."""
    return gf2_rank(gray_array(span.words())) == span.log2_size


def binary_distribution(rows, low_log2=14):
    """Hamming weight distribution of the GF(2) span of independent bit rows,
    enumerated block by block so memory stays small."""
    n = len(rows[0])
    packed = [sum(b << i for i, b in enumerate(row)) for row in rows]
    limbs = -(-n // 64)
    as_limbs = np.array([[(p >> (64 * j)) & (2**64 - 1) for j in range(limbs)] for p in packed],
                        dtype=np.uint64)
    low = min(len(rows), low_log2)
    table = np.zeros((1, limbs), dtype=np.uint64)
    for row in as_limbs[:low]:
        table = np.concatenate([table, table ^ row])
    counts = np.zeros(n + 1, dtype=np.int64)
    high = as_limbs[low:]
    for h in range(1 << len(high)):
        offset = np.zeros(limbs, dtype=np.uint64)
        for j in range(len(high)):
            if h >> j & 1:
                offset ^= high[j]
        w = np.bitwise_count(table ^ offset).sum(axis=1, dtype=np.int64)
        counts += np.bincount(w, minlength=n + 1)
    return tuple(int(x) for x in counts)


def krawtchouk(j, i, n):
    return sum((-1) ** s * math.comb(i, s) * math.comb(n - i, j - s) for s in range(j + 1))


def macwilliams(dist):
    """Weight distribution of the dual of a binary linear code, from its own."""
    n = len(dist) - 1
    size = sum(dist)
    out = []
    for j in range(n + 1):
        total = sum(a * krawtchouk(j, i, n) for i, a in enumerate(dist) if a)
        if total % size:
            raise AssertionError("MacWilliams transform is not integral")
        out.append(total // size)
    return tuple(out)


def rm_distribution(r, m):
    """Weight distribution of RM(r,m), from the smaller of the code and its
    dual RM(m-r-1,m)."""
    k = sum(math.comb(m, i) for i in range(r + 1))
    dual_r = m - r - 1
    if dual_r >= 0 and 2**m - k < k:
        return macwilliams(binary_distribution(rm_rows(dual_r, m)))
    return binary_distribution(rm_rows(r, m))


def doubled_with_repetition(dist):
    """Lee distribution of plotkin(C, {0, 2...2}) from that of C (length n):
    (x, x) weighs 2 wt(x) and (x, x + 2...2) always weighs 2n."""
    n2 = len(dist) - 1
    out = [0] * (2 * n2 + 1)
    for w, a in enumerate(dist):
        out[2 * w] += a
    out[n2] += sum(dist)
    return tuple(out)
