"""Parity-block encoding and the one decode behind recover, verify and locate.

k data values sit at x = 0..k-1 on the unique polynomial of degree <= k-1
through them; parity blocks are further samples of that polynomial at
x = k, k+1, ...  Any k distinct blocks reconstruct the polynomial and hence
the originals, bit-exactly.

Decoding is one function, _decode: fit the k lowest-index blocks, find the
blocks off that fit, and only if asked and some block is off, search for
the polynomial agreeing with the most blocks.  recover, verify and
locate_corruption are three views of it: recover insists nothing is off,
verify reports what is off, and locate_corruption searches and names the
outliers as suspects.  The search is exhaustive over k-subsets, intended
for desk-scale sets (at most 16 blocks): its answer is guaranteed unique
when the number of corrupted blocks e satisfies n >= k + 2e.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, islice
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
DEFAULT_MAX_LOCATE_BLOCKS = 16


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


def _check_search_size(n: int, k: int, max_blocks: int) -> None:
    """The exhaustive search needs more than k and at most max_blocks blocks."""
    if n <= k:
        raise InsufficientRedundancyError(
            f"corruption location needs more than k={k} blocks, have {n}"
        )
    if n > max_blocks:
        raise InputError(f"{n} blocks exceeds the exhaustive-search limit {max_blocks}")


def _decode(
    recovery_set: RecoverySet,
    *,
    search: bool = False,
    max_blocks: int = DEFAULT_MAX_LOCATE_BLOCKS,
) -> tuple[Polynomial, tuple[int, ...]]:
    """Fit the k lowest-index blocks; with search, find the best-agreeing polynomial.

    Returns (polynomial, indices of the blocks off it).  The search runs only
    when some block is off the first fit.  It interpolates k-subsets
    exhaustively, skipping any subset inside an already-found candidate's
    agreement set, which by uniqueness of interpolation would reproduce that
    candidate.  Raises AmbiguityError when two distinct polynomials tie for
    maximal agreement, which needs n < k + 2e.
    """
    k = recovery_set.k
    blocks = sorted(recovery_set.blocks, key=lambda b: b.index)
    n = len(blocks)
    if n < k:
        raise InsufficientBlocksError(f"need {k} blocks, have {n}")

    def fit(positions):
        return interpolate([Point(Fraction(blocks[i].index), blocks[i].value) for i in positions])

    def agreement(p) -> frozenset[int]:
        """Positions of the blocks whose value lies on p."""
        return frozenset(
            i for i, b in enumerate(blocks) if evaluate(p, Fraction(b.index)) == b.value
        )

    p = fit(range(k))
    agree = agreement(p)
    if search and len(agree) < n:
        _check_search_size(n, k, max_blocks)
        candidates = {p: agree}  # polynomial -> agreement set
        # only agreement sets larger than k can strictly contain another k-subset
        prunable = [agree] if len(agree) > k else []
        # the first k-subset is the fit already made above
        for subset in islice(combinations(range(n), k), 1, None):
            if any(seen.issuperset(subset) for seen in prunable):
                continue
            q = fit(subset)
            if q in candidates:
                continue
            candidates[q] = seen = agreement(q)
            if len(seen) > k:
                prunable.append(seen)
        best = max(len(seen) for seen in candidates.values())
        winners = [q for q, seen in candidates.items() if len(seen) == best]
        if len(winners) > 1:
            raise AmbiguityError(
                f"{len(winners)} distinct polynomials each agree with {best} of {n} blocks"
            )
        p, agree = winners[0], candidates[winners[0]]
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


def locate_corruption(
    recovery_set: RecoverySet,
    *,
    max_blocks: int = DEFAULT_MAX_LOCATE_BLOCKS,
) -> CorrectionResult:
    """Find the polynomial consistent with the most blocks; outliers are suspects.

    Needs more than k and at most max_blocks blocks, even when they agree.
    Raises AmbiguityError when two distinct polynomials tie for maximal
    agreement, which can only happen when n < k + 2e.
    """
    _check_search_size(len(recovery_set.blocks), recovery_set.k, max_blocks)
    p, suspects = _decode(recovery_set, search=True, max_blocks=max_blocks)
    return CorrectionResult(recovered=tuple(_originals(p, recovery_set.k)), suspects=suspects)
