"""Parity-block encoding and the one decode behind recover, verify and locate.

k data values sit at x = 0..k-1 on the unique polynomial of degree <= k-1
through them; parity blocks are further samples of that polynomial at
x = k, k+1, ...  Any k distinct blocks reconstruct the polynomial and hence
the originals, bit-exactly.

Both kernels work on Python ints: the values are scaled by the lcm of their
denominators, and each output is one Fraction(numerator, denominator).
encode extends the forward-difference table of the scaled values, k*m
integer additions.  Decoding evaluates the polynomial through k blocks with
integer barycentric Lagrange over one common denominator (_interpolate_at),
O(k) integer operations per target however large its index.

Decoding is one function, _decode: fit the k lowest-index blocks, find the
blocks off that fit, and only if asked and too many blocks are off, locate
the corruption by a Berlekamp-Welch solve.  The solve only names positions
to refit, so it runs first modulo the prime p = 2**61 - 1 on word-size ints;
the exact refit through its positions must reach the quorum, and only when
it does not, or p divides a denominator, is the solve repeated over the
rationals.  The values and suspects are always exact.  recover, verify and
locate_corruption are three views of it: recover insists nothing is off,
verify reports what is off, and locate_corruption locates and names the
outliers as suspects.  Location answers whenever the number of corrupted
blocks e satisfies n >= k + 2e, and its answer is then the unique polynomial
agreeing with the most blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .errors import (
    AmbiguityError,
    DuplicateIndexError,
    EmptyInputError,
    InconsistentBlocksError,
    InputError,
    InsufficientBlocksError,
    InsufficientRedundancyError,
    MixedDatasetError,
)

DEFAULT_MAX_PARITY = 1024


class BlockRole(Enum):
    ORIGINAL = "original"
    PARITY = "parity"


@dataclass(frozen=True)
class CodedBlock:
    """One sample (index, value) of the interpolant, tagged with its role."""

    index: int
    value: Fraction
    role: BlockRole
    k: int
    dataset_id: str

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"threshold k must be >= 1, got {self.k}")
        if self.index < 0:
            raise ValueError(f"block index must be >= 0, got {self.index}")
        expected = BlockRole.ORIGINAL if self.index < self.k else BlockRole.PARITY
        if self.role is not expected:
            raise ValueError(
                f"index {self.index} with k={self.k} must have role {expected.value}"
            )


def make_block(index: int, value: Fraction, k: int, dataset_id: str) -> CodedBlock:
    """Build a block with the role implied by its index."""
    role = BlockRole.ORIGINAL if index < k else BlockRole.PARITY
    return CodedBlock(index, Fraction(value), role, k, dataset_id)


@dataclass(frozen=True)
class RecoverySet:
    """A bag of distinct-index blocks from one dataset, ready for recovery."""

    blocks: tuple[CodedBlock, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.k < 1:
            raise ValueError(f"threshold k must be >= 1, got {self.k}")
        ids = {b.dataset_id for b in self.blocks}
        if len(ids) > 1:
            raise MixedDatasetError(f"blocks span several datasets: {sorted(ids)}")
        thresholds = {b.k for b in self.blocks}
        if any(t != self.k for t in thresholds):
            raise MixedDatasetError(
                f"blocks disagree on threshold: {sorted(thresholds)} vs k={self.k}"
            )
        indices = [b.index for b in self.blocks]
        if len(set(indices)) != len(indices):
            raise DuplicateIndexError(f"duplicate block indices: {sorted(indices)}")


@dataclass(frozen=True)
class VerifyReport:
    consistent: bool
    residual_indices: tuple[int, ...]


@dataclass(frozen=True)
class CorrectionResult:
    recovered: tuple[Fraction, ...]
    suspects: tuple[int, ...]


def original_blocks(values: Sequence[Fraction], dataset_id: str) -> list[CodedBlock]:
    """Wrap k data values as the original blocks at indices 0..k-1."""
    if not values:
        raise EmptyInputError("no values to wrap")
    k = len(values)
    return [make_block(i, v, k, dataset_id) for i, v in enumerate(values)]


def encode(values: Sequence[Fraction], m: int, dataset_id: str) -> list[CodedBlock]:
    """Sample m parity blocks at indices k..k+m-1 from the interpolant.

    Deterministic: equal inputs always produce equal blocks.
    """
    if not values:
        raise EmptyInputError("no values to encode")
    if m < 0:
        raise InputError(f"parity count must be >= 0, got {m}")
    if m > DEFAULT_MAX_PARITY:
        raise InputError(f"parity count {m} exceeds sanity limit {DEFAULT_MAX_PARITY}")
    k = len(values)
    row, scale = _scaled([Fraction(v) for v in values])
    # the last entry of each order of forward differences, highest order first;
    # the (k-1)-th difference of a degree <= k-1 polynomial is constant, so a
    # prefix sum over them advances every order one step, the last entry
    # becoming the next sample
    tail = []
    while row:
        tail.append(row[-1])
        row = [b - a for a, b in zip(row, row[1:])]
    tail.reverse()
    blocks = []
    for j in range(m):
        tail = list(accumulate(tail))
        blocks.append(make_block(k + j, Fraction(tail[-1], scale), k, dataset_id))
    return blocks


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times L, the lcm of their denominators, as ints; and L."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _interpolate_at(
    xs: Sequence[int], ys: Sequence[Fraction], targets: Iterable[int]
) -> list[Fraction]:
    """Values at integer targets of the polynomial of degree < len(xs) through (xs, ys).

    Barycentric Lagrange (Berrut & Trefethen, SIAM Review 2004) in integers: with
    D_j = prod_{i != j} (x_j - x_i), W the lcm of the D_j, L the lcm of the ys'
    denominators and Y_j = L*y_j,

        p(t) = sum_j (W/D_j) * Y_j * prod_{i != j} (t - x_i)  /  (W*L),

    O(k) integer operations and one Fraction per target.  A node returns its y.
    """
    scaled, scale = _scaled(ys)
    products = [math.prod(xj - xi for xi in xs if xi != xj) for xj in xs]
    common = math.lcm(*products)
    weights = [common // d * y for d, y in zip(products, scaled)]
    nodes = dict(zip(xs, ys))
    values = []
    for t in targets:
        if t in nodes:
            values.append(nodes[t])
            continue
        ell = math.prod(t - x for x in xs)
        total = sum(w * (ell // (t - x)) for w, x in zip(weights, xs))
        values.append(Fraction(total, common * scale))
    return values


def _gauss_jordan(rows: list[list], inverse: Callable, canonical: Callable) -> list[int]:
    """Reduce an augmented matrix to reduced row echelon form in place; its pivot columns.

    The entries lie in a field: inverse(v) is the reciprocal of a nonzero entry,
    and canonical(row) is the row with every entry in canonical form, so that an
    entry is zero exactly when it is falsy.
    """
    pivots: list[int] = []
    for col in range(len(rows[0]) - 1):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inverse(rows[r][col])
        rows[r] = top = canonical([v * scale for v in rows[r]])
        for i, row in enumerate(rows):  # the pivot row is zero left of col
            factor = row[col]
            if i != r and factor:
                row[col:] = canonical([a - factor * b for a, b in zip(row[col:], top[col:])])
        pivots.append(col)
    return pivots


# The two fields the error locator is solved in, as (lift, inverse, canonical):
# lift maps a Fraction into the field, the rest is as _gauss_jordan takes it.
# GF(p) for the Mersenne prime p = 2**61 - 1 keeps every entry a word-size int;
# its lift raises ValueError when p divides the denominator.
_P = 2**61 - 1
_MOD_P = (
    lambda y: y.numerator * pow(y.denominator, -1, _P) % _P,
    lambda v: pow(v, -1, _P),
    lambda row: [v % _P for v in row],
)
_RATIONALS = (Fraction, lambda v: 1 / Fraction(v), lambda row: row)


def _error_free_positions(
    xs: Sequence[int], ys: Sequence, k: int, inverse: Callable, canonical: Callable
) -> list[int]:
    """Berlekamp-Welch: positions of the points (xs, ys) where the error locator E is nonzero.

    With e = (n-k)//2, solves Q(x_i) = y_i*E(x_i) (deg Q < e+k, E monic of degree
    e) by Gauss-Jordan elimination in the ys' field, given by inverse and
    canonical as _gauss_jordan takes them, free unknowns zero.  Over the
    rationals, if a P of degree < k is off at most e points, every solution has
    Q = P*E, so P passes through the >= n-e points where E is nonzero.  Without
    such a P the system may have no solution; it is read as if solved, and the
    caller's refit finds no quorum.  Modulo p the same holds of the residues,
    but a corruption by a multiple of p is invisible there, so the caller
    certifies the positions by its exact refit.
    """
    e = (len(xs) - k) // 2
    # columns: Q's e+k coefficients, E's lower e, then the right-hand side y*x**e
    rows = [canonical([x**j for j in range(e + k)] + [-y * x**j for j in range(e)] + [y * x**e])
            for x, y in zip(xs, ys)]
    pivots = _gauss_jordan(rows, inverse, canonical)
    solved = {col: row[-1] for col, row in zip(pivots, rows)}
    # E's coefficients, highest degree first, evaluated by Horner's rule
    locator = [1, *(solved.get(col, 0) for col in reversed(range(e + k, 2 * e + k)))]
    at = canonical([reduce(lambda acc, c: acc * x + c, locator, 0) for x in xs])
    return [i for i, v in enumerate(at) if v]


def _decode(
    recovery_set: RecoverySet, *, search: bool = False
) -> tuple[list[Fraction], tuple[int, ...]]:
    """Fit the k lowest-index blocks; with search, locate corrupted blocks.

    Returns (the k originals, indices of the blocks off the fit).  When searching
    and fewer than the quorum n - (n-k)//2 lie on the first fit, refits k positions
    that Berlekamp-Welch finds error-free modulo p; when that refit misses the
    quorum too, or p divides a denominator, refits the positions found over the
    rationals, and raises AmbiguityError if that misses it as well.  Two
    polynomials reaching the quorum share k blocks, so one that does is the best,
    whichever field named its positions.
    """
    k = recovery_set.k
    blocks = sorted(recovery_set.blocks, key=lambda b: b.index)
    n = len(blocks)
    if n < k:
        raise InsufficientBlocksError(f"need {k} blocks, have {n}")

    def fit(positions: Sequence[int]) -> tuple[list[Fraction], set[int]]:
        """The originals, and the positions of the blocks on the fit through positions."""
        chosen = set(positions)
        rest = [i for i in range(n) if i not in chosen]
        values = _interpolate_at(
            [blocks[i].index for i in positions],
            [blocks[i].value for i in positions],
            [*range(k), *(blocks[i].index for i in rest)],
        )
        on = {i for i, v in zip(rest, values[k:]) if v == blocks[i].value}
        return values[:k], on | chosen

    originals, agree = fit(range(k))
    quorum = n - (n - k) // 2
    if search and len(agree) < quorum:
        xs, ys = [b.index for b in blocks], [b.value for b in blocks]
        for lift, inverse, canonical in (_MOD_P, _RATIONALS):
            try:
                lifted = [lift(y) for y in ys]
            except ValueError:  # p divides a denominator
                continue
            positions = _error_free_positions(xs, lifted, k, inverse, canonical)
            originals, agree = fit(positions[:k])
            if len(agree) >= quorum:
                break
        else:
            raise AmbiguityError(f"no polynomial agrees with at least {quorum} of {n} blocks")
    return originals, tuple(b.index for i, b in enumerate(blocks) if i not in agree)


def recover(recovery_set: RecoverySet) -> list[Fraction]:
    """Reconstruct the original k values from any k consistent blocks.

    Interpolates through the k lowest-index blocks, then insists every
    provided block lies on that polynomial; extra blocks that disagree raise
    InconsistentBlocksError (callers should fall back to locate_corruption).
    """
    originals, residuals = _decode(recovery_set)
    if residuals:
        raise InconsistentBlocksError(
            f"blocks at indices {list(residuals)} are off the interpolant", residuals
        )
    return originals


def verify(recovery_set: RecoverySet) -> VerifyReport:
    """Report which blocks disagree with the k lowest-index blocks' interpolant."""
    _, residuals = _decode(recovery_set)
    return VerifyReport(consistent=not residuals, residual_indices=residuals)


def locate_corruption(recovery_set: RecoverySet) -> CorrectionResult:
    """Find the polynomial consistent with the most blocks; outliers are suspects.

    Needs more than k blocks, even when they agree; answers when the e corrupted
    blocks satisfy n >= k + 2e.  Raises AmbiguityError when no polynomial agrees
    with n - (n-k)//2 blocks, even if one agrees with more than any other.
    """
    n, k = len(recovery_set.blocks), recovery_set.k
    if n <= k:
        raise InsufficientRedundancyError(
            f"corruption location needs more than k={k} blocks, have {n}"
        )
    originals, suspects = _decode(recovery_set, search=True)
    return CorrectionResult(recovered=tuple(originals), suspects=suspects)
