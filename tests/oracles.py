"""Lane-by-lane reference versions of the packed set-up code.

Each function here is the plain form of a library routine that now runs on
packed lanes: standard_form reads and writes one Z4 symbol at a time,
low_table doubles a sweep table with the ring's own combine on whole rows,
and plotkin_bit_basis reduces in alpha/beta bit masks.  The property tests
assert that the library's results equal these, byte for byte.
"""

import numpy as np

from z4rm import _engine
from z4rm.linalg import StandardForm, mixed_radix_basis
from z4rm.z4core import Z4Word, add, alpha, beta, negate


def _scale(w, c):
    if c == 0:
        return Z4Word.zero(w.n)
    if c == 1:
        return w
    if c == 2:
        return add(w, w)
    return negate(w)  # 3*w == -w mod 4


def standard_form(g):
    """Row reduction one symbol at a time: leftmost pivot column, topmost
    pivot row."""
    rows = list(g.rows)
    n = g.n
    p = 0
    unit_cols = []
    for col in range(n):
        if p == len(rows):
            break
        pivot = next((i for i in range(p, len(rows)) if rows[i][col] in (1, 3)), None)
        if pivot is None:
            continue
        rows[p], rows[pivot] = rows[pivot], rows[p]
        if rows[p][col] == 3:
            rows[p] = _scale(rows[p], 3)
        for j in range(len(rows)):
            if j != p and rows[j][col]:
                rows[j] = add(rows[j], _scale(negate(rows[p]), rows[j][col]))
        unit_cols.append(col)
        p += 1
    k1 = p
    two_cols = []
    for col in range(n):
        if p == len(rows):
            break
        pivot = next((i for i in range(p, len(rows)) if rows[i][col] == 2), None)
        if pivot is None:
            continue
        rows[p], rows[pivot] = rows[pivot], rows[p]
        for j in range(len(rows)):
            if j != p and rows[j][col] in (2, 3):
                rows[j] = add(rows[j], negate(rows[p]))
        two_cols.append(col)
        p += 1
    zero = Z4Word.zero(n)
    assert all(r == zero for r in rows[p:]), "nonzero row survived reduction"
    return StandardForm(
        n=n, k1=k1, k2=p - k1, rows=tuple(rows[:p]),
        unit_cols=tuple(unit_cols), two_cols=tuple(two_cols),
    )


def low_table(basis, low_bits, combine):
    """Images of the first 2^low_bits words of a sweep, each level the
    combine of the table so far with the next basis row."""
    limbs = basis.shape[1] if len(basis) else 1
    table = np.zeros((1 << low_bits, limbs), dtype=np.uint64, order="F")
    for j in range(low_bits):
        half = 1 << j
        combine(table[:half], basis[j][None, :], out=table[half : 2 * half])
    return _engine.gray_lanes(table) if combine is _engine.z4_add else table


class Span:
    """A growing subgroup S of Z4^n, as two GF(2) echelons of alpha and beta
    bit masks keyed by leading bit: the residue code with a word of S per
    row, and the torsion code."""

    def __init__(self):
        self.residue = {}
        self.torsion = {}

    def _reduce(self, x):
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
    """mixed_radix_basis(inter), then the words Span.extend adds for the
    rows of b and then of a."""
    span = Span()
    for g in inter.rows:
        span.extend(g)
    basis = mixed_radix_basis(inter)
    for g in b.rows + a.rows:
        basis += span.extend(g)
    return basis
