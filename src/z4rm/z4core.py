"""Arithmetic over Z4 vectors, the Lee metric, and the Gray map.

Words are stored bit-packed in a single Python int: a Z4Word keeps two bits
per coordinate (coordinate i in bits 2i and 2i+1), a BitWord keeps one bit
per coordinate.  Both share one class body, _PackedWord, and differ only in
the lane width, the text of a word and their own algebra.  All arithmetic
runs word-parallel on the packed integers; the observable behaviour is
plain coordinatewise arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, TypeVar

from .errors import DimensionError

__all__ = [
    "Z4Word",
    "BitWord",
    "add",
    "negate",
    "lee_weight",
    "lee_distance",
    "alpha",
    "beta",
    "gamma",
    "gray",
    "gray_inverse",
    "hamming_distance",
]


@lru_cache(maxsize=None)
def _lane_masks(n):
    """(lo, full) masks for n two-bit lanes: 0b0101..01 and 0b1111..11."""
    full = (1 << (2 * n)) - 1
    return full // 3, full


@lru_cache(maxsize=None)
def _mask_ladder(n):
    """Masks keeping the low 2^j bits of each 2^(j+1)-bit block, wide enough for 2n bits."""
    width = 2 * n
    masks = []
    block = 1
    while block < 2 * width:
        pattern = (1 << block) - 1
        mask = 0
        pos = 0
        while pos < 2 * width:
            mask |= pattern << pos
            pos += 2 * block
        masks.append(mask)
        block *= 2
    return tuple(masks)


def _gather_even_bits(x, n):
    # bit 2i of x -> bit i of the result
    masks = _mask_ladder(n)
    x &= masks[0]
    for j in range(1, len(masks)):
        x = (x | (x >> (1 << (j - 1)))) & masks[j]
    return x


def _spread_bits(x, n):
    # bit i of x -> bit 2i of the result (inverse of _gather_even_bits)
    masks = _mask_ladder(n)
    for j in range(len(masks) - 1, 0, -1):
        x = (x | (x << (1 << (j - 1)))) & masks[j - 1]
    return x


_W = TypeVar("_W", bound="_PackedWord")

# lane values by lane width: a frozenset tests membership as fast as a
# chained 0 <= s <= 3, where a tuple made from_string about 10% slower
_LANE_VALUES = {w: frozenset(range(1 << w)) for w in (1, 2)}


class _PackedWord:
    """Immutable fixed-length word: n lanes of _WIDTH bits in one Python int,
    lane i at bits _WIDTH*i and up.

    Subclasses set the lane width and the lane name used in error messages,
    and add their own algebra and digits(), the word's text from one
    format() call (base 2, or base 16 with two lanes to a hex digit);
    from_string() reads it back with one int() call in base 2^_WIDTH.
    CPython exempts these power-of-two bases from its int/str digit limit.
    The library reads words as packed ints, so the one __getitem__/__iter__
    pair here, which reads the width from the class, serves only callers
    outside the package.
    """

    __slots__ = ("n", "_packed")
    _WIDTH: int  # bits per lane
    _LANE: str  # a lane's name in error messages: "symbol" or "bit"
    _VALUES: str  # the lane values, as error messages state them

    def __init__(self, lanes: Iterable[int]):
        width = self._WIDTH
        values = _LANE_VALUES[width]
        packed = 0
        n = 0
        for s in lanes:
            if s not in values:
                raise ValueError(f"{self._LANE} {s!r} at position {n} is not {self._VALUES}")
            packed |= s << (width * n)
            n += 1
        if n == 0:
            raise ValueError(f"a {type(self).__name__} needs at least one coordinate")
        _set_n(self, n)
        _set_packed(self, packed)

    @classmethod
    def _raw(cls: type[_W], n: int, packed: int) -> _W:
        w = object.__new__(cls)
        _set_n(w, n)
        _set_packed(w, packed)
        return w

    @classmethod
    def zero(cls: type[_W], n: int) -> _W:
        if n < 1:
            raise ValueError("length must be positive")
        return cls._raw(n, 0)

    @classmethod
    def from_string(cls: type[_W], digits: str) -> _W:
        alphabet = "0123"[: 1 << cls._WIDTH]
        # checked first: int() also takes "_", spaces, a sign and non-ASCII digits
        if digits and not digits.strip(alphabet):
            return cls._raw(len(digits), int(digits[::-1], 1 << cls._WIDTH))
        for i, c in enumerate(digits):
            if c not in alphabet:
                raise ValueError(f"bad {cls._LANE} character {c!r} at position {i}")
        return cls(())  # digits is "": too short

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        width = self._WIDTH
        return self._packed >> width * i & (1 << width) - 1

    def __iter__(self) -> Iterator[int]:
        width = self._WIDTH
        mask = (1 << width) - 1
        p = self._packed
        for _ in range(self.n):
            yield p & mask
            p >>= width

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self._WIDTH, self.n, self._packed))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.digits()!r})"


# the slots' own setters, past the __setattr__ that refuses every write and
# faster than object.__setattr__
_set_n = _PackedWord.n.__set__
_set_packed = _PackedWord._packed.__set__

# The text of a packed Z4Word's lanes, lower lane first: _NIBBLE_LANES[v]
# for the two lanes of a hex digit v, which digits() translates through
# _HEX_LANES, and _BYTE_LANES[4*b : 4*b + 4] for the four of a byte b, which
# _engine.codeword_lines reads.
_NIBBLE_LANES = [f"{v & 3}{v >> 2}" for v in range(16)]
_HEX_LANES = str.maketrans({f"{v:x}": lanes for v, lanes in enumerate(_NIBBLE_LANES)})
_BYTE_LANES = "".join(_NIBBLE_LANES[b & 15] + _NIBBLE_LANES[b >> 4] for b in range(256))


class Z4Word(_PackedWord):
    """Immutable fixed-length vector over the integers mod 4."""

    __slots__ = ()
    _WIDTH = 2
    _LANE = "symbol"
    _VALUES = "in 0..3"

    def __add__(self, other: "Z4Word") -> "Z4Word":
        return add(self, other)

    def __neg__(self) -> "Z4Word":
        return negate(self)

    def digits(self) -> str:
        n = self.n
        return format(self._packed, f"0{(n + 1) // 2}x")[::-1].translate(_HEX_LANES)[:n]


class BitWord(_PackedWord):
    """Immutable fixed-length binary vector."""

    __slots__ = ()
    _WIDTH = 1
    _LANE = "bit"
    _VALUES = "0 or 1"

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return BitWord._raw(self.n, self._packed ^ other._packed)

    def weight(self) -> int:
        return self._packed.bit_count()

    def digits(self) -> str:
        return format(self._packed, f"0{self.n}b")[::-1]


def add(x: Z4Word, y: Z4Word) -> Z4Word:
    """Coordinatewise sum mod 4."""
    if x.n != y.n:
        raise DimensionError(f"length mismatch: {x.n} vs {y.n}")
    a, b = x._packed, y._packed
    lo = _lane_masks(x.n)[0]
    # per-lane add: carries from the low bit stay inside their lane
    return Z4Word._raw(x.n, (a ^ b) ^ (((a & b) & lo) << 1))


def negate(x: Z4Word) -> Z4Word:
    """Coordinatewise additive inverse mod 4: swaps 1 and 3, so each lane
    whose low bit is set flips its high bit."""
    lo = _lane_masks(x.n)[0]
    return Z4Word._raw(x.n, x._packed ^ ((x._packed & lo) << 1))


def lee_weight(x: Z4Word) -> int:
    """Sum of the per-symbol Lee weights 0,1,2,1 for symbols 0,1,2,3."""
    lo = _lane_masks(x.n)[0]
    hi = (x._packed >> 1) & lo
    return hi.bit_count() + (hi ^ (x._packed & lo)).bit_count()


def lee_distance(x: Z4Word, y: Z4Word) -> int:
    """Lee weight of the coordinatewise difference x - y."""
    return lee_weight(add(x, negate(y)))


def alpha(x: Z4Word) -> BitWord:
    """Componentwise map 0,1,2,3 -> 0,1,0,1 (the mod-2 reduction)."""
    return BitWord._raw(x.n, _gather_even_bits(x._packed, x.n))


def beta(x: Z4Word) -> BitWord:
    """Componentwise map 0,1,2,3 -> 0,0,1,1."""
    return BitWord._raw(x.n, _gather_even_bits(x._packed >> 1, x.n))


def gamma(x: Z4Word) -> BitWord:
    """Componentwise map 0,1,2,3 -> 0,1,1,0."""
    return BitWord._raw(x.n, _gather_even_bits(x._packed ^ (x._packed >> 1), x.n))


def gray(x: Z4Word) -> BitWord:
    """Isometric embedding of a length-n Z4 word into 2n bits.

    Output is the full beta block followed by the full gamma block
    (block layout, not interleaved), so Hamming weight equals Lee weight.
    """
    p = x._packed
    b = _gather_even_bits(p >> 1, x.n)
    g = _gather_even_bits(p ^ (p >> 1), x.n)
    return BitWord._raw(2 * x.n, b | (g << x.n))


def gray_inverse(b: BitWord) -> Z4Word:
    """Inverse of :func:`gray`; requires even length."""
    if b.n % 2:
        raise DimensionError(f"length {b.n} is odd; Gray images have even length")
    n = b.n // 2
    bb = b._packed & ((1 << n) - 1)
    gg = b._packed >> n
    # symbol low bit = beta xor gamma, high bit = beta
    return Z4Word._raw(n, _spread_bits(bb ^ gg, n) | (_spread_bits(bb, n) << 1))


def hamming_distance(a: BitWord, b: BitWord) -> int:
    """Number of coordinates where the two words differ."""
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    return (a._packed ^ b._packed).bit_count()
