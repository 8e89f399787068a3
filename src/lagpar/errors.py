"""Exception taxonomy.

Three CLI-relevant families hang off :class:`LagparError`:

* :class:`InputError`: bad arguments or malformed data supplied by the
  caller (CLI exit code 2),
* :class:`RecoveryError`: recovery is impossible or failed validation
  (CLI exit code 3),
* :class:`AmbiguityError`: too many blocks are corrupted to locate them
  unambiguously (CLI exit code 4).
"""

from __future__ import annotations


class LagparError(Exception):
    """Base class for all library errors."""


class InputError(LagparError):
    """Invalid argument or malformed input data."""


class DuplicateXError(InputError):
    """Two interpolation points share an x-coordinate."""


class EmptyInputError(InputError):
    """An operation that needs at least one value received none."""


class BadRationalError(InputError):
    """Text does not match the canonical rational encoding."""


class BadDatasetIdError(InputError):
    """Dataset id fails the [A-Za-z0-9_-]{1,64} rule."""


class DuplicateDatasetError(InputError):
    """Dataset id already present in a store."""


class MixedDatasetError(InputError):
    """Blocks in one recovery set disagree on dataset id or threshold."""


class DuplicateIndexError(InputError):
    """Two blocks in one recovery set share an index."""


class MissingInputError(InputError):
    """An indicator references a data point that was not supplied."""


class ZeroDenominatorError(InputError):
    """A ratio indicator's denominator inputs sum to zero."""


class UnknownTargetError(InputError):
    """Fault injection addressed a dataset, block, or offset that does not exist."""


class RecoveryError(LagparError):
    """Base class for failures that leave data unrecovered."""


class InsufficientBlocksError(RecoveryError):
    """Fewer than k blocks available for reconstruction."""


class InsufficientRedundancyError(RecoveryError):
    """Corruption location needs more than k blocks to say anything."""


class InconsistentBlocksError(RecoveryError):
    """More than k blocks supplied and they do not lie on one polynomial."""

    def __init__(self, message: str, residual_indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.residual_indices = residual_indices


class ManifestMissingError(RecoveryError):
    """No reachable store holds a readable manifest for the dataset."""


class ManifestConflictError(RecoveryError):
    """The two manifest replicas are both readable and differ."""


class UnrecoverableError(RecoveryError):
    """Fewer than k digest-valid blocks survive across both stores."""


class ValidationFailedError(RecoveryError):
    """Reconstructed values do not match the manifest digests."""

    def __init__(self, message: str, suspects: tuple[int, ...] = ()):
        super().__init__(message)
        self.suspects = suspects


class StoreUnreachableError(RecoveryError):
    """The store is flagged unreachable or its root is gone."""


class StoreUnwritableError(RecoveryError):
    """A file write into the store failed."""


class StoreLockedError(RecoveryError):
    """Another writer holds the store's advisory lock."""


class AmbiguityError(LagparError):
    """No polynomial agrees with n - (n-k)//2 of n blocks, even if one agrees with the most."""
