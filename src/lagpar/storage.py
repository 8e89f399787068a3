"""File-backed primary/secondary stores and the store/recover workflow.

A store is a directory.  Each dataset lives in its own subdirectory holding
one file per block plus a manifest (all UTF-8, LF line endings, bit-exact):

    <root>/<dataset_id>/block_<index>.plyd
        PLYD1
        dataset=<id> k=<int> m=<int>
        block index=<int> role=<original|parity> value=<num>/<den>

    <root>/<dataset_id>/manifest.plym
        PLYM1
        digest index=<int> sha256=<64 hex>      (one line per block, ascending)
        created=<ISO-8601 UTC>

    <root>/.unreachable                          (fault flag honored everywhere)

A block's digest is the SHA-256 of its canonical block line (the third line
of the block file, without the newline).  The framing lines are protected by
strict parsing instead: the dataset must match the directory, the index must
match the filename, the role must match the threshold, and k+m must equal
the manifest's digest count, so any single-byte change to a block file is
detected either by the digest or by a framing check.

Originals are written to the primary store, parity blocks to the secondary,
and the manifest to both; the manifest is written last, after every block,
each file via temp-file-plus-rename, so a visible manifest never references
blocks that were not fully written.  One writer per store at a time via an
advisory flock on <root>/.lock; readers need no lock.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .blocks import (
    DEFAULT_MAX_PARITY,
    BlockRole,
    CodedBlock,
    RecoverySet,
    _decode,
    _originals,
    encode,
    make_block,
    original_blocks,
)
from .errors import (
    BadDatasetIdError,
    BadRationalError,
    DuplicateDatasetError,
    InputError,
    ManifestMissingError,
    StoreLockedError,
    StoreUnreachableError,
    StoreUnwritableError,
    UnknownTargetError,
    UnrecoverableError,
    ValidationFailedError,
)
from .rationals import format_rational, parse_rational

BLOCK_MAGIC = "PLYD1"
MANIFEST_MAGIC = "PLYM1"
MANIFEST_NAME = "manifest.plym"
CREATED_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

_DATASET_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}\Z")
_INT = r"(?:0|[1-9][0-9]*)"
_META_RE = re.compile(rf"dataset=([A-Za-z0-9_-]{{1,64}}) k=({_INT}) m=({_INT})\Z")
_BLOCK_LINE_RE = re.compile(rf"block index=({_INT}) role=(original|parity) value=([^ ]+)\Z")
_BLOCK_FILENAME_RE = re.compile(rf"block_({_INT})\.plyd\Z")
_DIGEST_LINE_RE = re.compile(rf"digest index=({_INT}) sha256=([0-9a-f]{{64}})\Z")
_CREATED_RE = re.compile(r"created=([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z)\Z")
_TAG_RE = re.compile(r"[a-z][a-z0-9_-]*\Z")
_KEY_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class _FormatError(Exception):
    """Internal: a file deviates from its bit-exact format."""


@dataclass(frozen=True)
class Store:
    """Handle to one store root directory."""

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))

    def dataset_dir(self, dataset_id: str) -> Path:
        return self.root / dataset_id

    def block_path(self, dataset_id: str, index: int) -> Path:
        return self.dataset_dir(dataset_id) / f"block_{index}.plyd"

    def manifest_path(self, dataset_id: str) -> Path:
        return self.dataset_dir(dataset_id) / MANIFEST_NAME

    @property
    def flag_path(self) -> Path:
        return self.root / ".unreachable"

    @property
    def lock_path(self) -> Path:
        return self.root / ".lock"


@dataclass(frozen=True)
class DatasetManifest:
    """Per-dataset integrity contract: threshold, parity count, block digests."""

    dataset_id: str
    k: int
    m: int
    block_digests: Mapping[int, str]
    created_at: str

    def __post_init__(self):
        if not _DATASET_ID_RE.match(self.dataset_id):
            raise BadDatasetIdError(f"bad dataset id: {self.dataset_id!r}")
        if self.k < 1 or self.m < 0:
            raise ValueError(f"bad thresholds: k={self.k} m={self.m}")
        if sorted(self.block_digests) != list(range(self.k + self.m)):
            raise ValueError("digests must cover exactly indices 0..k+m-1")
        if not all(re.fullmatch(r"[0-9a-f]{64}", d) for d in self.block_digests.values()):
            raise ValueError("digests must be 64 lowercase hex characters")
        _validate_created(self.created_at)


@dataclass(frozen=True)
class StoreStatus:
    reachable: bool
    datasets_present: tuple[str, ...]
    corrupt_files: tuple[Path, ...]


class Provenance(Enum):
    PRIMARY = "primary"
    RECONSTRUCTED = "reconstructed"


@dataclass(frozen=True)
class RecoveryResult:
    values: tuple[Fraction, ...]
    provenance: Provenance
    suspects: tuple[int, ...]


@dataclass(frozen=True)
class Unreachable:
    pass


@dataclass(frozen=True)
class DeleteBlock:
    dataset_id: str
    index: int


@dataclass(frozen=True)
class FlipByte:
    dataset_id: str
    index: int
    offset: int


Fault = Unreachable | DeleteBlock | FlipByte


# ---------------------------------------------------------------------------
# Canonical encodings
# ---------------------------------------------------------------------------


def block_line(block: CodedBlock) -> str:
    """The canonical one-line encoding of a block (digest input, CLI output)."""
    return f"block index={block.index} role={block.role.value} value={format_rational(block.value)}"


def block_digest(block: CodedBlock) -> str:
    return hashlib.sha256(block_line(block).encode("utf-8")).hexdigest()


def render_block_file(block: CodedBlock, m: int) -> str:
    return (
        f"{BLOCK_MAGIC}\n"
        f"dataset={block.dataset_id} k={block.k} m={m}\n"
        f"{block_line(block)}\n"
    )


def render_manifest(manifest: DatasetManifest) -> str:
    lines = [MANIFEST_MAGIC]
    for index in sorted(manifest.block_digests):
        lines.append(f"digest index={index} sha256={manifest.block_digests[index]}")
    lines.append(f"created={manifest.created_at}")
    return "\n".join(lines) + "\n"


def parse_kv_line(line: str) -> tuple[str, dict[str, str]]:
    """Parse one machine-readable line: a tag followed by key=value tokens.

    This is the grammar every machine-mode CLI line and every block/digest
    line conforms to.  Values may be empty but never contain spaces.
    """
    tokens = line.split(" ")
    tag = tokens[0]
    if not _TAG_RE.match(tag):
        raise ValueError(f"bad tag in line: {line!r}")
    pairs: dict[str, str] = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or not _KEY_RE.match(key) or key in pairs:
            raise ValueError(f"bad key=value token {token!r} in line: {line!r}")
        pairs[key] = value
    return tag, pairs


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime(CREATED_FORMAT)


def _validate_created(ts: str) -> None:
    try:
        datetime.strptime(ts, CREATED_FORMAT)
    except ValueError as exc:
        raise InputError(f"bad created timestamp: {ts!r}") from exc


def _parse_block_text(text: str) -> tuple[CodedBlock, int]:
    """Strictly parse a block file body; any deviation raises _FormatError."""
    parts = text.split("\n")
    if len(parts) != 4 or parts[3] != "":
        raise _FormatError("block file must be exactly three LF-terminated lines")
    if parts[0] != BLOCK_MAGIC:
        raise _FormatError(f"bad magic: {parts[0]!r}")
    meta = _META_RE.match(parts[1])
    if meta is None:
        raise _FormatError(f"bad metadata line: {parts[1]!r}")
    dataset_id, k_text, m_text = meta.groups()
    body = _BLOCK_LINE_RE.match(parts[2])
    if body is None:
        raise _FormatError(f"bad block line: {parts[2]!r}")
    index_text, role_text, value_text = body.groups()
    try:
        value = parse_rational(value_text)
    except BadRationalError as exc:
        raise _FormatError(str(exc)) from exc
    try:
        block = CodedBlock(
            index=int(index_text),
            value=value,
            role=BlockRole(role_text),
            k=int(k_text),
            dataset_id=dataset_id,
        )
    except ValueError as exc:
        raise _FormatError(str(exc)) from exc
    return block, int(m_text)


def _parse_manifest_text(text: str) -> tuple[dict[int, str], str]:
    """Strictly parse a manifest body into (digest map, created timestamp)."""
    parts = text.split("\n")
    if len(parts) < 4 or parts[-1] != "":
        raise _FormatError("manifest must end with LF and hold at least one digest")
    if parts[0] != MANIFEST_MAGIC:
        raise _FormatError(f"bad magic: {parts[0]!r}")
    created_match = _CREATED_RE.match(parts[-2])
    if created_match is None:
        raise _FormatError(f"bad created line: {parts[-2]!r}")
    try:
        datetime.strptime(created_match.group(1), CREATED_FORMAT)
    except ValueError as exc:
        raise _FormatError(str(exc)) from exc
    digests: dict[int, str] = {}
    for position, line in enumerate(parts[1:-2]):
        match = _DIGEST_LINE_RE.match(line)
        if match is None or int(match.group(1)) != position:
            raise _FormatError(f"bad digest line at position {position}: {line!r}")
        digests[position] = match.group(2)
    return digests, created_match.group(1)


# ---------------------------------------------------------------------------
# Low-level store access
# ---------------------------------------------------------------------------


@contextmanager
def _write_lock(store: Store) -> Iterator[None]:
    """Advisory one-writer-per-store lock (flock on <root>/.lock)."""
    store.root.mkdir(parents=True, exist_ok=True)
    fd = os.open(store.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise StoreLockedError(f"another writer holds {store.lock_path}") from exc
        yield
    finally:
        os.close(fd)


def _atomic_write(path: Path, text: str) -> None:
    """Write via temp file + rename so partially written files are never visible."""
    tmp = path.parent / f".tmp-{os.getpid()}-{path.name}"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(text.encode("utf-8"))
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreUnwritableError(f"cannot write {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _is_reachable(store: Store) -> bool:
    return store.root.is_dir() and not store.flag_path.exists()


def _read_raw_manifest(store: Store, dataset_id: str) -> dict[int, str] | None:
    """Digest map from the store's manifest, or None if absent/corrupt."""
    path = store.manifest_path(dataset_id)
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    try:
        digests, _ = _parse_manifest_text(text)
    except _FormatError:
        return None
    return digests


def _checked_block(
    path: Path, dataset_id: str, index: int, digests: Mapping[int, str]
) -> CodedBlock | None:
    """Parse and validate a block file; None means erasure-grade invalid.

    Valid means: strict format, dataset matches the directory, index matches
    the filename, k+m matches the manifest's digest count, and the canonical
    line hashes to the manifest's digest for this index.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    try:
        block, m = _parse_block_text(text)
    except _FormatError:
        return None
    if block.dataset_id != dataset_id or block.index != index:
        return None
    if block.k + m != len(digests):
        return None
    if block_digest(block) != digests.get(index):
        return None
    return block


def _block_files(store: Store, dataset_id: str) -> list[tuple[int, Path]]:
    """(index, path) for every well-named block file of a dataset, ascending."""
    directory = store.dataset_dir(dataset_id)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        match = _BLOCK_FILENAME_RE.match(path.name)
        if match and path.is_file():
            found.append((int(match.group(1)), path))
    return sorted(found)


# ---------------------------------------------------------------------------
# Store operations
# ---------------------------------------------------------------------------


def store_dataset(
    values: Sequence[Fraction],
    m: int,
    dataset_id: str,
    primary: Store,
    secondary: Store,
    *,
    created_at: str | None = None,
    max_parity: int = DEFAULT_MAX_PARITY,
    crash_hook: Callable[[str], None] | None = None,
) -> DatasetManifest:
    """Write originals to primary, parity to secondary, the manifest to both.

    Atomic per store: every file goes through temp+rename and the manifest is
    written only after all blocks, so a crash never leaves a manifest that
    references unwritten blocks.  crash_hook, if given, is called after each
    completed write with a stage label (test hook for exactly that property).
    """
    if not _DATASET_ID_RE.match(dataset_id):
        raise BadDatasetIdError(f"bad dataset id: {dataset_id!r}")
    if primary.root.resolve() == secondary.root.resolve():
        raise InputError("primary and secondary stores must be different directories")
    values = [Fraction(v) for v in values]
    originals = original_blocks(values, dataset_id)
    parity = encode(values, m, dataset_id, max_parity=max_parity)
    k = len(values)
    created = created_at if created_at is not None else _utc_now()
    digests = {b.index: block_digest(b) for b in [*originals, *parity]}
    manifest = DatasetManifest(dataset_id, k, m, digests, created)

    named = (("primary", primary), ("secondary", secondary))
    for name, store in named:
        if store.flag_path.exists():
            raise StoreUnreachableError(f"{name} store {store.root} is unreachable")
    hook = crash_hook if crash_hook is not None else (lambda stage: None)
    with _write_lock(primary), _write_lock(secondary):
        for name, store in named:
            if store.manifest_path(dataset_id).exists():
                raise DuplicateDatasetError(f"dataset {dataset_id!r} already in {name} store")
        for block in originals:
            _atomic_write(primary.block_path(dataset_id, block.index), render_block_file(block, m))
            hook(f"primary:block:{block.index}")
        for block in parity:
            _atomic_write(secondary.block_path(dataset_id, block.index), render_block_file(block, m))
            hook(f"secondary:block:{block.index}")
        manifest_text = render_manifest(manifest)
        _atomic_write(primary.manifest_path(dataset_id), manifest_text)
        hook("primary:manifest")
        _atomic_write(secondary.manifest_path(dataset_id), manifest_text)
        hook("secondary:manifest")
    return manifest


def health_check(store: Store) -> StoreStatus:
    """Inspect a store: reachability, datasets present, digest-invalid files.

    Never raises.  A dataset is present iff its manifest file exists; block
    files are checked against the manifest and flagged when they fail any
    format, framing, or digest check.  Missing blocks are erasures, not
    corruption, and are not flagged.
    """
    if not _is_reachable(store):
        return StoreStatus(reachable=False, datasets_present=(), corrupt_files=())
    datasets: list[str] = []
    corrupt: list[Path] = []
    for directory in sorted(p for p in store.root.iterdir() if p.is_dir()):
        if not _DATASET_ID_RE.match(directory.name):
            continue
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            continue
        datasets.append(directory.name)
        digests = _read_raw_manifest(store, directory.name)
        if digests is None:
            corrupt.append(manifest_path)
            continue
        for path in sorted(directory.iterdir()):
            if path.name == MANIFEST_NAME or not path.is_file() or path.name.startswith("."):
                continue
            match = _BLOCK_FILENAME_RE.match(path.name)
            if match is None:
                corrupt.append(path)
                continue
            index = int(match.group(1))
            if index not in digests or _checked_block(path, directory.name, index, digests) is None:
                corrupt.append(path)
    return StoreStatus(
        reachable=True, datasets_present=tuple(datasets), corrupt_files=tuple(corrupt)
    )


@dataclass(frozen=True)
class _Gathered:
    digests: dict[int, str]
    recovery_set: RecoverySet  # every digest-valid block, ascending by index
    suspects: set[int]
    primary_intact: bool  # primary manifest and all k originals valid in primary


def _gather(dataset_id: str, primary: Store, secondary: Store) -> _Gathered:
    """Collect every digest-valid block of a dataset from both stores.

    Present-but-invalid block files become suspects and are discarded as
    erasures.  The threshold k is adopted by majority vote over the valid
    blocks' own metadata (its sum with m is pinned to the manifest's digest
    count per block); dissenting blocks are demoted to suspects.
    """
    if not _DATASET_ID_RE.match(dataset_id):
        raise BadDatasetIdError(f"bad dataset id: {dataset_id!r}")
    named = (("primary", primary), ("secondary", secondary))
    reachable = {name: _is_reachable(store) for name, store in named}
    raw = {
        name: _read_raw_manifest(store, dataset_id) if reachable[name] else None
        for name, store in named
    }
    digests = raw["primary"] if raw["primary"] is not None else raw["secondary"]
    if digests is None:
        raise ManifestMissingError(f"no reachable store has a manifest for {dataset_id!r}")

    valid: dict[int, CodedBlock] = {}
    primary_valid: set[int] = set()
    suspects: set[int] = set()
    for name, store in named:
        if not reachable[name]:
            continue
        for index, path in _block_files(store, dataset_id):
            if index not in digests:
                continue
            block = _checked_block(path, dataset_id, index, digests)
            if block is None:
                suspects.add(index)
                continue
            valid.setdefault(index, block)
            if name == "primary":
                primary_valid.add(index)
    if not valid:
        raise UnrecoverableError(f"no digest-valid blocks for {dataset_id!r}")

    votes = Counter(block.k for block in valid.values())
    k = max(votes, key=lambda kk: (votes[kk], -kk))
    for index in [i for i, b in valid.items() if b.k != k]:
        suspects.add(index)
        del valid[index]
    primary_intact = raw["primary"] is not None and all(
        i in primary_valid and i in valid for i in range(k)
    )
    return _Gathered(
        digests=dict(digests),
        recovery_set=RecoverySet(tuple(valid[i] for i in sorted(valid)), k),
        suspects=suspects,
        primary_intact=primary_intact,
    )


def collect_recovery_set(dataset_id: str, primary: Store, secondary: Store) -> RecoverySet:
    """All digest-valid blocks of a dataset across both stores, as one set."""
    return _gather(dataset_id, primary, secondary).recovery_set


def recover_dataset(dataset_id: str, primary: Store, secondary: Store) -> RecoveryResult:
    """Return the dataset's values, reconstructing from parity when needed.

    Step 1: with a healthy primary whose originals all pass their digests,
    return them as-is.  Step 2: otherwise gather every digest-valid block
    from both stores (invalid-but-present files become suspects and are
    discarded as erasures).  Step 3: decode them once, with the corruption
    search on, so surplus blocks that disagree become suspects.  Step 4:
    recompute the reconstructed originals' digests against the manifest;
    any mismatch raises ValidationFailedError.
    """
    gathered = _gather(dataset_id, primary, secondary)
    recovery_set, suspects = gathered.recovery_set, gathered.suspects
    k = recovery_set.k

    if gathered.primary_intact:
        originals = tuple(b.value for b in recovery_set.blocks[:k])
        return RecoveryResult(values=originals, provenance=Provenance.PRIMARY, suspects=())

    if len(recovery_set.blocks) < k:
        raise UnrecoverableError(
            f"only {len(recovery_set.blocks)} digest-valid blocks for {dataset_id!r}, need {k}"
        )
    p, off = _decode(recovery_set, search=True)
    values = _originals(p, k)
    suspects.update(off)

    mismatched = [
        i for i in range(k)
        if block_digest(make_block(i, values[i], k, dataset_id)) != gathered.digests.get(i)
    ]
    if mismatched:
        suspects.update(mismatched)
        raise ValidationFailedError(
            f"reconstructed originals fail digest validation at {mismatched}",
            tuple(sorted(suspects)),
        )
    return RecoveryResult(
        values=tuple(values),
        provenance=Provenance.RECONSTRUCTED,
        suspects=tuple(sorted(suspects)),
    )


def inject_fault(store: Store, fault: Fault) -> None:
    """Deterministically apply one fault to a store (test harness)."""
    if not store.root.is_dir():
        raise UnknownTargetError(f"store root missing: {store.root}")
    with _write_lock(store):
        if isinstance(fault, Unreachable):
            store.flag_path.touch()
            return
        path = store.block_path(fault.dataset_id, fault.index)
        if not path.is_file():
            raise UnknownTargetError(
                f"no block {fault.index} of dataset {fault.dataset_id!r} in {store.root}"
            )
        if isinstance(fault, DeleteBlock):
            path.unlink()
            return
        if isinstance(fault, FlipByte):
            data = bytearray(path.read_bytes())
            if not 0 <= fault.offset < len(data):
                raise UnknownTargetError(
                    f"offset {fault.offset} outside file of {len(data)} bytes"
                )
            data[fault.offset] ^= 0xFF
            path.write_bytes(bytes(data))
            return
        raise InputError(f"unknown fault: {fault!r}")
