"""Parity-block encoding and the one decode behind recover, verify and locate.

k data values sit at x = 0..k-1 on the unique polynomial of degree <= k-1
through them; parity blocks are further samples of that polynomial at
x = k, k+1, ...  Any k distinct blocks reconstruct the polynomial and hence
the originals, bit-exactly.

Decoding is one function, _decode: fit the k lowest-index blocks, find the
blocks off that fit, and only if asked and too many blocks are off, locate
the corruption by one Berlekamp-Welch solve over the rationals.  recover,
verify and locate_corruption are three views of it: recover insists nothing
is off, verify reports what is off, and locate_corruption locates and names
the outliers as suspects.  Location answers whenever the number of corrupted
blocks e satisfies n >= k + 2e, and its answer is then the unique polynomial
agreeing with the most blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

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
from .poly import Point, Polynomial, evaluate, evaluate_many, interpolate

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


def encode(
    values: Sequence[Fraction],
    m: int,
    dataset_id: str,
    *,
    max_parity: int = DEFAULT_MAX_PARITY,
) -> list[CodedBlock]:
    """Sample m parity blocks at indices k..k+m-1 from the interpolant.

    Deterministic: equal inputs always produce equal blocks.
    """
    if not values:
        raise EmptyInputError("no values to encode")
    if m < 0:
        raise InputError(f"parity count must be >= 0, got {m}")
    if m > max_parity:
        raise InputError(f"parity count {m} exceeds sanity limit {max_parity}")
    k = len(values)
    p = interpolate([Point(Fraction(i), Fraction(v)) for i, v in enumerate(values)])
    parity_values = evaluate_many(p, [Fraction(k + j) for j in range(m)])
    return [make_block(k + j, v, k, dataset_id) for j, v in enumerate(parity_values)]


def _error_free_positions(points: Sequence[Point], k: int) -> list[int]:
    """Berlekamp-Welch: positions of the points where the error locator E is nonzero.

    With e = (n-k)//2, solves Q(x_i) = y_i*E(x_i) (deg Q < e+k, E monic of degree
    e) by Gauss-Jordan elimination, free unknowns zero.  If a P of degree < k is
    off at most e points, every solution has Q = P*E, so P passes through the
    >= n-e points where E is nonzero.  Without such a P the system may have no
    solution; it is read as if solved, and the caller's refit finds no quorum.
    """
    n, e = len(points), (len(points) - k) // 2
    # columns: Q's e+k coefficients, E's lower e, then the right-hand side y*x**e
    rows = [[x**j for j in range(e + k)] + [-y * x**j for j in range(e)] + [y * x**e]
            for x, y in points]
    pivots: list[int] = []
    for col in range(2 * e + k):
        r = len(pivots)
        pivot = next((i for i in range(r, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i, row in enumerate(rows):  # the pivot row is zero left of col
            if i != r and row[col]:
                row[col:] = [a - row[col] * b for a, b in zip(row[col:], rows[r][col:])]
        pivots.append(col)
    solved = {col: row[-1] for col, row in zip(pivots, rows)}
    locator = Polynomial([solved.get(col, 0) for col in range(e + k, 2 * e + k)] + [1])
    return [i for i, point in enumerate(points) if evaluate(locator, point.x)]


def _decode(
    recovery_set: RecoverySet, *, search: bool = False
) -> tuple[Polynomial, tuple[int, ...]]:
    """Fit the k lowest-index blocks; with search, locate corrupted blocks.

    Returns (polynomial, indices of the blocks off it).  When searching and fewer
    than the quorum n - (n-k)//2 lie on the first fit, refits k positions that
    Berlekamp-Welch finds error-free; AmbiguityError if that misses it too.  Two
    polynomials reaching the quorum share k blocks, so one that does is the best.
    """
    k = recovery_set.k
    blocks = sorted(recovery_set.blocks, key=lambda b: b.index)
    n = len(blocks)
    if n < k:
        raise InsufficientBlocksError(f"need {k} blocks, have {n}")

    points = [Point(Fraction(b.index), b.value) for b in blocks]

    def fit(positions):
        return interpolate([points[i] for i in positions])

    def agreement(p) -> frozenset[int]:
        """Positions of the blocks whose value lies on p."""
        return frozenset(i for i, (x, y) in enumerate(points) if evaluate(p, x) == y)

    p = fit(range(k))
    agree = agreement(p)
    quorum = n - (n - k) // 2
    if search and len(agree) < quorum:
        p = fit(_error_free_positions(points, k)[:k])
        agree = agreement(p)
        if len(agree) < quorum:
            raise AmbiguityError(f"no polynomial agrees with at least {quorum} of {n} blocks")
    return p, tuple(b.index for i, b in enumerate(blocks) if i not in agree)


def _originals(p: Polynomial, k: int) -> list[Fraction]:
    """The k original values: the polynomial p evaluated at 0..k-1."""
    return evaluate_many(p, [Fraction(i) for i in range(k)])


def recover(recovery_set: RecoverySet) -> list[Fraction]:
    """Reconstruct the original k values from any k consistent blocks.

    Interpolates through the k lowest-index blocks, then insists every
    provided block lies on that polynomial; extra blocks that disagree raise
    InconsistentBlocksError (callers should fall back to locate_corruption).
    """
    p, residuals = _decode(recovery_set)
    if residuals:
        raise InconsistentBlocksError(
            f"blocks at indices {list(residuals)} are off the interpolant", residuals
        )
    return _originals(p, recovery_set.k)


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
    p, suspects = _decode(recovery_set, search=True)
    return CorrectionResult(recovered=tuple(_originals(p, k)), suspects=suspects)
