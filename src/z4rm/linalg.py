"""Generator-matrix linear algebra over Z4.

A linear quaternary code is the row span of a generator matrix.  Row
reduction brings the matrix to the block shape [[I A B], [0 2I 2C]] (up to
a recorded column permutation): k1 rows with unit pivots and k2 rows with
pivot 2 and only even entries.  The code then has exactly 4^k1 * 2^k2
codewords, reachable by a mixed-radix coefficient sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DimensionError
from .z4core import Z4Word, _lane_masks, add

__all__ = [
    "DEFAULT_BUDGET",
    "GeneratorMatrix",
    "StandardForm",
    "standard_form",
    "log2_size",
    "membership",
    "enumerate_codewords",
    "codeword_at",
    "mirror_index",
    "check_budget",
    "dual_standard_form",
    "intersection",
    "plotkin_split",
]

# log2 of the largest codeword count the enumeration paths will sweep
DEFAULT_BUDGET = 28


def _add_times(x: int, c: int, y: int, lo: int) -> int:
    """x + c·y on packed lanes, for c in 1..3 (2y is 2 at y's odd lanes)."""
    two = (y & lo) << 1
    y = y if c == 1 else two if c == 2 else y ^ two
    return ((x & y & lo) << 1) ^ x ^ y


class GeneratorMatrix:
    """Immutable sequence of equal-length Z4 generator rows."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Z4Word], n: int | None = None):
        rows = tuple(rows)
        if rows:
            row_n = rows[0].n
            for r in rows:
                if r.n != row_n:
                    raise DimensionError(
                        f"row length {r.n} differs from first row length {row_n}"
                    )
            if n is not None and n != row_n:
                raise DimensionError(f"declared length {n} but rows have length {row_n}")
            n = row_n
        elif n is None:
            raise ValueError("an empty generator matrix needs an explicit length")
        elif n < 1:
            raise ValueError("length must be positive")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_strings(cls, rows: Sequence[str], n: int | None = None) -> "GeneratorMatrix":
        return cls([Z4Word.from_string(r) for r in rows], n=n)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorMatrix is immutable")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Z4Word]:
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratorMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"GeneratorMatrix([{', '.join(r.digits() for r in self.rows)}], n={self.n})"


@dataclass(frozen=True)
class StandardForm:
    """Reduced generator rows plus the pivot bookkeeping.

    rows[:k1] carry unit pivots at unit_cols, rows[k1:] carry pivot 2 at
    two_cols and have only even entries.  Rows stay in original coordinate
    order; column_permutation lists pivot columns first so that permuting
    coordinates by it exposes the [[I A B], [0 2I 2C]] block shape.
    """

    n: int
    k1: int
    k2: int
    rows: tuple
    unit_cols: tuple
    two_cols: tuple

    @property
    def column_permutation(self) -> tuple:
        pivots = self.unit_cols + self.two_cols
        taken = set(pivots)
        return pivots + tuple(c for c in range(self.n) if c not in taken)

    @property
    def log2_size(self) -> int:
        return 2 * self.k1 + self.k2


def standard_form(g: GeneratorMatrix) -> StandardForm:
    """Deterministic row reduction: leftmost pivot column, topmost pivot row.

    It runs on the packed ints, all lanes at once.  The rows below the
    pivots have only even lanes at the columns passed, so the next unit
    pivot is the lowest odd lane of their OR; once none is left, they are
    even, and the next pivot 2 is the lowest bit of their OR.  Every other
    row less c times the pivot row, for its lane c there, is ORed up anew.
    """
    rows = [r._packed for r in g.rows]
    if not rows:  # n may be huge
        return StandardForm(n=g.n, k1=0, k2=0, rows=(), unit_cols=(), two_cols=())
    lo = _lane_masks(g.n)[0]
    below = 0
    for r in rows:
        below |= r
    p = 0
    unit_cols, two_cols = [], []
    # c is the lane (0..3) at a unit pivot, the high bit (0, 1) at a pivot 2,
    # whose row is its own negative: subtracting it clears even entries and
    # reduces odd ones mod 2
    for mask, top, cols in ((lo, 3, unit_cols), (-1, 1, two_cols)):
        while bits := below & mask:
            bit = bits & -bits
            shift = bit.bit_length() - 1
            i = p
            while not rows[i] & bit:
                i += 1
            row = rows[i]
            rows[i] = rows[p]
            if row & bit << 1:  # a unit pivot 3 (an even row has no odd lane)
                row ^= (row & lo) << 1  # -row, pivot 1
            rows[p] = row
            minus = (None, row ^ (row & lo) << 1, (row & lo) << 1, row)  # -c*row
            below = 0
            for j, x in enumerate(rows):
                if j != p:
                    if c := x >> shift & top:
                        y = minus[c]
                        x = rows[j] = ((x & y & lo) << 1) ^ x ^ y
                    if j > p:
                        below |= x
            cols.append(shift >> 1)
            p += 1
    assert not any(rows[p:]), "nonzero row survived reduction"
    return StandardForm(
        n=g.n,
        k1=len(unit_cols),
        k2=len(two_cols),
        rows=tuple(Z4Word._raw(g.n, r) for r in rows[:p]),
        unit_cols=tuple(unit_cols),
        two_cols=tuple(two_cols),
    )


def log2_size(g: GeneratorMatrix) -> int:
    """log2 of the codeword count: 2*k1 + k2."""
    return standard_form(g).log2_size


def _reduce(sf: StandardForm, x: int) -> tuple:
    """(t, rest) with x = codeword_at(sf, t) + rest, for the packed word x:
    x less c times each unit row, c its lane at the row's pivot, plus (XOR)
    each even row whose pivot lane then has its high bit set.  x is in the
    code iff rest is 0; rest is 0 at the unit pivots, 0 or 1 at the others."""
    lo = _lane_masks(sf.n)[0]
    t = 0
    for col, row in zip(sf.unit_cols, sf.rows):
        t = t << 2 | (c := x >> 2 * col & 3)
        if c:
            x = _add_times(x, 4 - c, row._packed, lo)
    for col, row in zip(sf.two_cols, sf.rows[sf.k1 :]):
        t = t << 1 | (e := x >> 2 * col + 1 & 1)
        if e:
            x ^= row._packed
    return t, x


def membership(g: GeneratorMatrix | StandardForm, x: Z4Word) -> bool:
    """True iff x is a Z4-linear combination of the generator rows."""
    sf = g if isinstance(g, StandardForm) else standard_form(g)
    if x.n != sf.n:
        raise DimensionError(f"word length {x.n} does not match code length {sf.n}")
    return not _reduce(sf, x._packed)[1]


def mixed_radix_basis(sf: StandardForm) -> list:
    """Word added when index bit p flips, LSB first.

    The enumeration index packs the order-4 coefficients of the unit-pivot
    rows (first row most significant, two bits each) above the order-2
    coefficients of the even rows (one bit each).  This is the one
    definition of the frozen enumeration order; the sweep engine packs the
    same basis.
    """
    basis = []
    for j in range(sf.k2 - 1, -1, -1):
        basis.append(sf.rows[sf.k1 + j])
    for i in range(sf.k1 - 1, -1, -1):
        row = sf.rows[i]
        basis.append(row)
        basis.append(add(row, row))
    return basis


def mirror_index(sf: StandardForm) -> int | None:
    """Index P of the all-2 word 2·1 in the frozen enumeration order
    (_reduce's t: 2 on each unit coefficient), or None when the code does
    not hold it.  Adding 2·1 to the word at index t gives the word at t ^ P,
    and its negative lies at t with the high bit of each unit pair whose
    low bit is set flipped.
    """
    lo, full = _lane_masks(sf.n)
    t, rest = _reduce(sf, full ^ lo)
    return None if rest else t


def dual_standard_form(sf: StandardForm) -> StandardForm:
    """Standard form of the dual code {y : x . y = 0 mod 4 for every x in C}.

    In the permuted coordinates that expose C's block shape [[I A B], [0 2I 2C]],
    the dual is generated by [[-(B+AC)^T, C^T, I], [2A^T, 2I, 0]]: one unit row
    per free column and one even row per pivot-2 column, so it has 4^n / |C|
    words.  The rows are returned in original coordinates, already in block
    shape, with the free columns as unit pivots.  The dual of the full space
    is the zero code.
    """
    k1, k2 = sf.k1, sf.k2
    lo = _lane_masks(sf.n)[0]
    halves = [(2 * t, row._packed >> 1) for t, row in zip(sf.two_cols, sf.rows[k1:])]
    # each unit row plus A's entries (its lanes at the pivot-2 columns, 0 or
    # 1) times the halved even rows: B + AC at the free columns, 2A at those
    units = []
    for u, row in zip(sf.unit_cols, sf.rows):
        row = row._packed
        for t, half in halves:
            if row >> t & 1:
                row = _add_times(row, 1, half, lo)
        units.append((2 * u, row))
    free = sf.column_permutation[k1 + k2 :]
    rows = []
    for s in [2 * col for col in free]:
        w = 1 << s | sum((half >> s & 1) << t for t, half in halves)  # I, C^T
        rows.append(w | sum((-(row >> s) & 3) << u for u, row in units))  # -(B + AC)^T
    rows += [2 << t | sum((row >> t & 3) << u for u, row in units) for t, _ in halves]
    return StandardForm(
        n=sf.n,
        k1=len(free),
        k2=k2,
        rows=tuple(Z4Word._raw(sf.n, w) for w in rows),
        unit_cols=tuple(free),
        two_cols=sf.two_cols,
    )


def _syndromes(sf: StandardForm, ys: Sequence[Z4Word]) -> list:
    """Images of the words ys under a Z4-linear map whose kernel is sf's code.

    Subtracting y[u] times each unit row leaves v, zero at the unit
    columns; y is in the code iff v is a sum of the pivot-2 rows s_t, with
    coefficient v[t] / 2 at each pivot-2 column t.  So the map gives
    2 v[t] for each t, and v[c] - sum_t v[t] (s_t[c] / 2) for each free
    column c: all are 0 mod 4 iff y is in the code.  _reduce's rest is v
    with the even part of each v[t] s_t / 2 taken, so less s_t / 2 at each
    odd t it holds the free lanes, and v[t] & 1 at each t.
    """
    lo = _lane_masks(sf.n)[0]
    free = sf.column_permutation[sf.k1 + sf.k2 :]
    halves = [(2 * t, row._packed >> 1) for t, row in zip(sf.two_cols, sf.rows[sf.k1 :])]
    out = []
    for y in ys:
        v = _reduce(sf, y._packed)[1]
        odd = [v >> t & 1 for t, _ in halves]
        for o, (_, half) in zip(odd, halves):
            if o:
                v = _add_times(v, 3, half, lo)
        out.append([v >> 2 * c & 3 for c in free] + [2 * o for o in odd])
    return out


def intersection(a: StandardForm, b: StandardForm) -> StandardForm:
    """Standard form of the code A ∩ B, for codes A and B of one length.

    A word y = sum c_j b_j of the rows b_j of B lies in A iff its syndrome
    (_syndromes, Z4-linear) is zero, that is iff M c = 0 for the matrix M
    whose column j is the syndrome of b_j.  So A ∩ B is the image of the
    kernel of M, which is the dual of M's row space: codes of length
    len(b.rows), not n.  B itself when each row of B reduces to 0 against A.
    """
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    if not any(_reduce(a, row._packed)[1] for row in b.rows):
        return b
    m = sorted({row for row in zip(*_syndromes(a, b.rows)) if any(row)})
    lo = _lane_masks(a.n)[0]
    words = []
    for c in dual_standard_form(standard_form(GeneratorMatrix([Z4Word(row) for row in m]))).rows:
        w = 0
        for j, row in enumerate(b.rows):
            if cj := c._packed >> 2 * j & 3:
                w = _add_times(w, cj, row._packed, lo)
        words.append(Z4Word._raw(a.n, w))
    return standard_form(GeneratorMatrix(words, n=a.n))


def plotkin_split(sf: StandardForm) -> tuple | None:
    """Standard forms (a, b) of codes A and B with C = {(x, x+y) : x in A,
    y in B}, for sf's code C, or None when C is no such code.

    Each row of sf is (u, v), u its low n/2 lanes (as codes.plotkin packs
    x).  A is spanned by the u and B by the v - u, so C lies in plotkin(A,
    B), which has |A|·|B| words: C is plotkin(A, B) iff k_A + k_B = k.
    Then (0, v - u) is in C for every row; the first row's is tested before
    any part is reduced.
    """
    if sf.n % 2:
        return None
    h = sf.n // 2
    lo, full = _lane_masks(h)
    halves = [(r._packed & full, r._packed >> 2 * h) for r in sf.rows]
    diffs = [_add_times(v, 3, u, lo) for u, v in halves]
    if diffs and _reduce(sf, diffs[0] << 2 * h)[1]:
        return None
    a = standard_form(GeneratorMatrix([Z4Word._raw(h, u) for u, _ in halves], n=h))
    b = standard_form(GeneratorMatrix([Z4Word._raw(h, w) for w in diffs], n=h))
    return (a, b) if a.log2_size + b.log2_size == sf.log2_size else None


def check_budget(k: int, budget: int) -> None:
    """Refuse to enumerate a code of 2^k words when k exceeds the budget."""
    if k > budget:
        raise CapacityError(
            f"code has 2^{k} words but the budget allows 2^{budget}",
            required=k,
            configured=budget,
        )


def enumerate_codewords(
    g: GeneratorMatrix | StandardForm, budget: int = DEFAULT_BUDGET
) -> Iterator[Z4Word]:
    """Yield every codeword exactly once, in the frozen mixed-radix order."""
    sf = g if isinstance(g, StandardForm) else standard_form(g)
    k = sf.log2_size
    check_budget(k, budget)
    return _codeword_stream(sf, k)


def codeword_at(sf: StandardForm, t: int) -> Z4Word:
    """The codeword at index t of the frozen enumeration order."""
    if not 0 <= t < 1 << sf.log2_size:
        raise IndexError(f"index {t} outside a code of 2^{sf.log2_size} words")
    w = Z4Word.zero(sf.n)
    for b, row in enumerate(mixed_radix_basis(sf)):
        if t >> b & 1:
            w = add(w, row)
    return w


def _codeword_stream(sf: StandardForm, k: int) -> Iterator[Z4Word]:
    basis = mixed_radix_basis(sf)
    zero = Z4Word.zero(sf.n)
    suffix = [zero] * (k + 1)  # suffix[b]: contribution of index bits >= b
    yield zero
    for t in range(1, 1 << k):
        b = (t & -t).bit_length() - 1  # lowest set bit: all lower bits just cleared
        w = add(suffix[b + 1], basis[b])
        for i in range(b + 1):
            suffix[i] = w
        yield w
