"""Lane-by-lane reference versions of the packed library code.

Each function here is the plain form of a library routine that now runs on
packed lanes: the lane readers have one literal width per word type;
digits and from_string turn a word into text and back one lane at a time;
standard_form, residue, dual_standard_form, syndromes and intersection read
and write one Z4 symbol at a time; low_table doubles a sweep table with the
ring's own combine on whole rows; plotkin_bit_basis reduces in
alpha/beta bit masks; and plotkin_split enumerates the code.  The property
tests assert that the library's results equal these, byte for byte.
"""

import numpy as np

from z4rm import _engine
from z4rm.linalg import GeneratorMatrix, StandardForm, mixed_radix_basis
from z4rm.z4core import Z4Word, add, alpha, beta, negate


def z4_lane(w, i):
    if not 0 <= i < w.n:
        raise IndexError(i)
    return (w._packed >> (2 * i)) & 3


def z4_lanes(w):
    p = w._packed
    for _ in range(w.n):
        yield p & 3
        p >>= 2


def bit_lane(w, i):
    if not 0 <= i < w.n:
        raise IndexError(i)
    return (w._packed >> i) & 1


def bit_lanes(w):
    p = w._packed
    for _ in range(w.n):
        yield p & 1
        p >>= 1


def digits(w):
    """One str per lane, lowest lane first."""
    lanes = z4_lanes(w) if isinstance(w, Z4Word) else bit_lanes(w)
    return "".join(str(s) for s in lanes)


def from_string(cls, text):
    """The word of class cls whose lanes are the characters of text, each
    checked in turn; the errors are the library's."""
    alphabet = "0123"[: 1 << cls._WIDTH]
    for i, c in enumerate(text):
        if c not in alphabet:
            raise ValueError(f"bad {cls._LANE} character {c!r} at position {i}")
    return cls(int(c) for c in text)


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


def residue(sf, x):
    """(t, rest): x less each unit row times its lane at the pivot, then
    less each even row whose pivot lane is 2, with t the frozen-order index
    of what was taken away."""
    t = 0
    for i, col in enumerate(sf.unit_cols):
        c = x[col]
        t = t << 2 | c
        if c:
            x = add(x, _scale(negate(sf.rows[i]), c))
    for j, col in enumerate(sf.two_cols):
        e = x[col] == 2
        t = t << 1 | e
        if e:
            x = add(x, negate(sf.rows[sf.k1 + j]))
    return t, x


def membership(sf, x):
    return residue(sf, x)[1] == Z4Word.zero(sf.n)


def mirror_index(sf):
    t, rest = residue(sf, Z4Word([2] * sf.n))
    return t if rest == Z4Word.zero(sf.n) else None


def dual_standard_form(sf):
    """[[-(B+AC)^T, C^T, I], [2A^T, 2I, 0]], one symbol at a time."""
    k1, k2 = sf.k1, sf.k2
    unit_rows, two_rows = sf.rows[:k1], sf.rows[k1:]
    free = sf.column_permutation[k1 + k2 :]
    dual_units = []
    for col in free:
        c = [row[col] // 2 for row in two_rows]  # column of C
        symbols = [0] * sf.n
        for u, row in zip(sf.unit_cols, unit_rows):
            b_plus_ac = row[col] + sum(row[t] * cj for t, cj in zip(sf.two_cols, c))
            symbols[u] = -b_plus_ac % 4
        for t, cj in zip(sf.two_cols, c):
            symbols[t] = cj
        symbols[col] = 1
        dual_units.append(Z4Word(symbols))
    dual_twos = []
    for t in sf.two_cols:
        symbols = [0] * sf.n
        for u, row in zip(sf.unit_cols, unit_rows):
            symbols[u] = 2 * row[t] % 4
        symbols[t] = 2
        dual_twos.append(Z4Word(symbols))
    return StandardForm(
        n=sf.n, k1=len(free), k2=k2, rows=tuple(dual_units + dual_twos),
        unit_cols=tuple(free), two_cols=sf.two_cols,
    )


def syndromes(sf, ys):
    """v = y less y[u] times each unit row; then v[c] - sum_t v[t] (s_t[c] / 2)
    at each free column c and 2 v[t] at each pivot-2 column t."""
    pivots = set(sf.unit_cols + sf.two_cols)
    free = [c for c in range(sf.n) if c not in pivots]
    halves = [(t, [x // 2 for x in s]) for t, s in zip(sf.two_cols, sf.rows[sf.k1:])]
    out = []
    for y in ys:
        for row, col in zip(sf.rows, sf.unit_cols):
            if y[col]:
                y = add(y, _scale(negate(row), y[col]))
        v = list(y)
        out.append([(v[c] - sum(v[t] * h[c] for t, h in halves)) % 4 for c in free]
                   + [2 * v[t] % 4 for t in sf.two_cols])
    return out


def intersection(a, b):
    """The image under B's rows of the kernel of the syndrome matrix of B's
    rows against A; B itself when that matrix is zero."""
    m = sorted({row for row in zip(*syndromes(a, b.rows)) if any(row)})
    if not m:
        return b
    words = []
    for c in dual_standard_form(standard_form(GeneratorMatrix([Z4Word(row) for row in m]))).rows:
        w = Z4Word.zero(a.n)
        for cj, row in zip(c, b.rows):
            if cj:
                w = add(w, _scale(row, cj))
        words.append(w)
    return standard_form(GeneratorMatrix(words, n=a.n))


def plotkin_split(words):
    """The projections A = {x : (x, z) in C} and B = {z - x : (x, z) in C}
    of the code C given as the list of all its words, as sets of lane
    tuples, when C = {(x, x + y) : x in A, y in B}; None when a word of that
    set is missing from C, or the length is odd.  C lies in the set, so a
    missing word is met within |C| + 1 tries."""
    n = words[0].n
    if n % 2:
        return None
    h = n // 2
    code = {tuple(z4_lanes(w)) for w in words}
    a = {w[:h] for w in code}
    b = {tuple((z - x) % 4 for x, z in zip(w[:h], w[h:])) for w in code}
    for x in a:
        for y in b:
            if x + tuple((s + t) % 4 for s, t in zip(x, y)) not in code:
                return None
    return a, b
