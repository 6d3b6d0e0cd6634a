"""Code constructions: Plotkin doubling, the LRM(r,m) family, binary
Reed-Muller reference generators, and the closed-form parameter claims.

LRM(r,m) is a quaternary linear code of length 2^(m-1) whose Gray image
has the parameters of the binary Reed-Muller code RM(r,m).  The family is
built by induction: repetition code at r=0, the full space Z4^(2^(m-1)) at
r=m, and Plotkin doubling {(x, x+y)} in between.  Any node of the
recursion can be replaced by a user-supplied code with the same
parameters, which is how family members with nonlinear Gray images are
realized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from . import _engine
from .errors import CapacityError, DimensionError, OverrideError
from .linalg import DEFAULT_BUDGET, GeneratorMatrix, check_budget, membership, standard_form
from .z4core import BitWord, Z4Word

__all__ = [
    "RMOrder",
    "CodeParams",
    "Z4Code",
    "plotkin",
    "lrm",
    "rm_binary",
    "theorem1_params",
    "qrm_log2_size",
    "shipped_nonlinear_base",
]


# Each step of m doubles the code length 2^(m-1), and the work done before
# any budget check grows faster: `verify 1 14` (2^15 words of length 2^13,
# a low table that quadruples per step) took 0.5 s and 158 MB, against 62 MB
# at m = 13 (2-vCPU x86 KVM guest).  So lrm stops at m = 14.
MAX_M = 14
# rm_binary builds RM(r,m), of length 2^m, with no budget: `z4rm rm 1 16`
# took 3 s and `z4rm rm 1 18` 42 s on the same guest, so its m stops at 16.
MAX_RM_M = 16


class RMOrder(NamedTuple):
    r: int
    m: int


def check_order(r: int, m: int) -> RMOrder:
    if m < 1 or not 0 <= r <= m:
        raise ValueError(f"invalid order (r={r}, m={m}): need 0 <= r <= m and m >= 1")
    return RMOrder(r, m)


@dataclass(frozen=True)
class CodeParams:
    """Length, log2 of size, and minimum distance of a code.

    n counts quaternary coordinates unless binary=True; d is the minimum
    Lee distance for quaternary codes and Hamming distance for binary ones.
    """

    n: int
    k: int
    d: int
    binary: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("length must be positive")
        if self.k < 0:
            raise ValueError("log2 size must be nonnegative")
        if self.k >= 1 and self.d < 1:
            raise ValueError("a code with at least two words has distance >= 1")


class Z4Code:
    """Quaternary linear code given by generator rows.

    The label is a human-readable construction trace; every override
    applied along an LRM recursion shows up in it.  parts is (A, B) on a
    code that plotkin built as {(x, x+y) : x in A, y in B}, and None on
    every other code.
    """

    parts = None

    def __init__(self, generators: GeneratorMatrix | Iterable[Z4Word], label: str = "",
                 n: int | None = None):
        if not isinstance(generators, GeneratorMatrix):
            generators = GeneratorMatrix(generators, n=n)
        self.generators = generators
        self.label = label

    @property
    def n(self) -> int:
        return self.generators.n

    @cached_property
    def standard_form(self):
        return standard_form(self.generators)

    @cached_property
    def _min_lee_weight(self) -> int:
        """Exact minimum nonzero Lee weight, along the cheapest route of
        _engine.lee_route.  It gates no budget: the caller checks one first."""
        return _engine.lee_route(self.standard_form, self.parts).witness()[0]

    @property
    def log2_size(self) -> int:
        return self.standard_form.log2_size

    @property
    def type_counts(self) -> tuple:
        sf = self.standard_form
        return (sf.k1, sf.k2)

    def contains(self, x: Z4Word) -> bool:
        return membership(self.standard_form, x)

    def __repr__(self) -> str:
        label = f", label={self.label!r}" if self.label else ""
        return f"Z4Code(n={self.n}, rows={len(self.generators)}{label})"


def _concat(a: Z4Word, b: Z4Word) -> Z4Word:
    return Z4Word._raw(a.n + b.n, a._packed | (b._packed << (2 * a.n)))


def plotkin(c1: Z4Code, c2: Z4Code, label: str | None = None) -> Z4Code:
    """Doubling construction: the code {(x, x+y) : x in c1, y in c2}.

    Generated by {(g, g)} for generators g of c1 plus {(0, h)} for
    generators h of c2, so sizes multiply.
    """
    if c1.n != c2.n:
        raise DimensionError(f"length mismatch: {c1.n} vs {c2.n}")
    zero = Z4Word.zero(c1.n)
    rows = [_concat(g, g) for g in c1.generators]
    rows += [_concat(zero, h) for h in c2.generators]
    if label is None:
        label = f"plotkin[{c1.label or '?'};{c2.label or '?'}]"
    code = Z4Code(GeneratorMatrix(rows, n=2 * c1.n), label=label)
    code.parts = (c1, c2)
    return code


def theorem1_params(r: int, m: int) -> CodeParams:
    """Claimed LRM(r,m) parameters: (2^(m-1), 2^k, 2^(m-r)) with k the
    partial binomial sum over m."""
    check_order(r, m)
    k = sum(math.comb(m, i) for i in range(r + 1))
    return CodeParams(n=1 << (m - 1), k=k, d=1 << (m - r))


def qrm_log2_size(r: int, m: int) -> int:
    """log2 size of the same-length quaternary Reed-Muller code QRM:
    twice the partial binomial sum over m-1."""
    check_order(r, m)
    return 2 * sum(math.comb(m - 1, i) for i in range(r + 1))


def _repetition(r: int, m: int) -> Z4Code:
    n = 1 << (m - 1)
    return Z4Code([Z4Word([2] * n)], label=f"LRM(0,{m}):rep")


def _full_space(m: int) -> Z4Code:
    n = 1 << (m - 1)
    rows = [Z4Word._raw(n, 1 << (2 * i)) for i in range(n)]
    return Z4Code(GeneratorMatrix(rows, n=n), label=f"LRM({m},{m}):full")


def _validate_override(code: Z4Code, r: int, m: int, budget: int) -> None:
    want = theorem1_params(r, m)
    if code.n != want.n:
        raise OverrideError(
            f"override at ({r},{m}) has length {code.n}, expected {want.n}"
        )
    if code.log2_size != want.k:
        raise OverrideError(
            f"override at ({r},{m}) has log2 size {code.log2_size}, expected {want.k}"
        )
    try:
        check_budget(code.log2_size, budget)
    except CapacityError as e:
        raise CapacityError(
            f"override at ({r},{m}): {e}", required=e.required, configured=e.configured
        ) from e
    d = code._min_lee_weight  # one sweep per override object, however many orders use it
    if d != want.d:
        raise OverrideError(
            f"override at ({r},{m}) has minimum Lee weight {d}, expected {want.d}"
        )


def lrm(
    r: int,
    m: int,
    overrides: Mapping[tuple, Z4Code] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Z4Code:
    """Build the LRM(r,m) family member, honoring per-node overrides.

    An override replaces the whole subtree at its (r,m) node and is
    validated against theorem1_params there: length, size and the exact
    minimum distance.  An override larger than the budget raises
    CapacityError, on every call.  Each node is built (and each override
    validated) once per call, however many paths of the recursion reach it,
    and an override object's minimum distance is swept once, on its first
    validation.  m is at most MAX_M.
    """
    check_order(r, m)
    if m > MAX_M:
        raise ValueError(f"level m={m} exceeds MAX_M = {MAX_M}")
    built = {}

    def node(r, m):
        if (r, m) not in built:
            built[r, m] = build(r, m)
        return built[r, m]

    def build(r, m):
        code = overrides.get((r, m)) if overrides else None
        if code is not None:
            _validate_override(code, r, m, budget)
            return Z4Code(
                code.generators,
                label=f"LRM({r},{m}):override[{code.label or 'unlabeled'}]",
            )
        if r == 0:
            return _repetition(r, m)
        if r == m:
            return _full_space(m)
        left = node(r, m - 1)
        right = node(r - 1, m - 1)
        return plotkin(left, right, label=f"LRM({r},{m}):plotkin[{left.label};{right.label}]")

    return node(r, m)


def rm_binary(r: int, m: int) -> tuple:
    """Generator rows of the binary Reed-Muller code RM(r,m).

    Rows are evaluation vectors, over the 2^m points of Z2^m, of all
    monomials in v_1..v_m of degree at most r.  Points are ordered by the
    integer value of (v_1..v_m) with v_1 most significant; monomials are
    graded by degree, then lexicographic.  m is at most MAX_RM_M.
    """
    check_order(r, m)
    if m > MAX_RM_M:
        raise ValueError(f"level m={m} exceeds MAX_RM_M = {MAX_RM_M}")
    npts = 1 << m
    var_rows = []
    for i in range(1, m + 1):
        bits = 0
        for j in range(npts):
            bits |= ((j >> (m - i)) & 1) << j
        var_rows.append(bits)
    ones = (1 << npts) - 1
    rows = []
    for degree in range(r + 1):
        for subset in itertools.combinations(range(m), degree):
            bits = ones
            for i in subset:
                bits &= var_rows[i]
            rows.append(BitWord._raw(npts, bits))
    return tuple(rows)


def shipped_nonlinear_base() -> Z4Code:
    """The packaged length-8 quaternary code with extended-perfect
    parameters (8, 2^11, 4) and a nonlinear Gray image.

    Found by exhaustive search (analysis.search_nonlinear_base); valid as
    an override at node (2,4), where it makes every enclosing family
    member's Gray image nonlinear while preserving all claimed parameters.
    """
    from importlib.resources import files

    from .fileformat import parse_code

    text = files("z4rm").joinpath("data/nonlinear_ep_n8_k11.z4code").read_text("ascii")
    return parse_code(text)
