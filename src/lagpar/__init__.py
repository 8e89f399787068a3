"""lagpar: exact-rational parity coding over polynomial interpolation.

k data values sit at x = 0..k-1 on the unique degree <= k-1 polynomial
through them; parity blocks are extra samples of that polynomial.  Any k
surviving blocks reconstruct the originals bit-exactly, corrupted blocks
can be located by Berlekamp-Welch decoding, and a two-tier file store plus
CLI drive the whole workflow.
"""

from .blocks import (
    BlockRole,
    CodedBlock,
    CorrectionResult,
    RecoverySet,
    VerifyReport,
    encode,
    locate_corruption,
    make_block,
    original_blocks,
    recover,
    verify,
)
from .errors import (
    AmbiguityError,
    BadDatasetIdError,
    BadRationalError,
    DuplicateDatasetError,
    DuplicateIndexError,
    DuplicateXError,
    EmptyInputError,
    InconsistentBlocksError,
    InputError,
    InsufficientBlocksError,
    InsufficientRedundancyError,
    LagparError,
    ManifestConflictError,
    ManifestMissingError,
    MissingInputError,
    MixedDatasetError,
    RecoveryError,
    StoreLockedError,
    StoreUnreachableError,
    StoreUnwritableError,
    UnknownTargetError,
    UnrecoverableError,
    ValidationFailedError,
    ZeroDenominatorError,
)
from .indicators import IndicatorDef, IndicatorKind, compute_indicator
from .poly import Point, Polynomial, evaluate, evaluate_many, interpolate, lagrange_basis
from .rationals import Rational, format_rational, parse_rational, parse_user_rational
from .storage import (
    DatasetManifest,
    DeleteBlock,
    FlipByte,
    Provenance,
    RecoveryResult,
    Store,
    StoreStatus,
    Unreachable,
    block_digest,
    block_line,
    collect_recovery_set,
    health_check,
    inject_fault,
    parse_kv_line,
    recover_dataset,
    render_block_file,
    render_manifest,
    store_dataset,
)

__version__ = "0.1.0"
