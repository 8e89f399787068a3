"""File-backed primary/secondary stores and the store/recover workflow.

A store is a directory.  Each dataset lives in its own subdirectory holding
one file per block plus a manifest (all UTF-8, LF line endings, bit-exact):

    <root>/<dataset_id>/block_<index>.plyd
        PLYD2
        block index=<int> role=<original|parity> value=<num>/<den>

    <root>/<dataset_id>/manifest.plym
        PLYM2
        dataset=<id> k=<int> m=<int>
        digest index=<int> sha256=<64 hex>      (one line per block, ascending)
        created=<YYYY-MM-DDTHH:MM:SSZ>            (zero-padded UTC)
        sha256=<64 hex>                           (the seal: SHA-256 of every byte above)

    <root>/.unreachable                          (fault flag honored everywhere)

Each fact lives in one place.  The manifest alone holds k and m; the
dataset id is also the directory name, and a block's index is also its
file name, which its block line must repeat.  A block's digest, in the
manifest, is the SHA-256 of its block line, and its role must match the
manifest's k.  The seal covers the rest of the manifest, so a changed byte
makes a manifest unreadable and a block file invalid.  Stores in the older
PLYM1/PLYD1 format are not read: their manifests are unreadable.

Each format has one reader: _checked_block for block files, _parse_manifest
for manifests.  Of the two manifest replicas, identical bytes are parsed
once; otherwise an unreadable replica gives way to the other, and two
readable replicas that differ raise ManifestConflictError.  _scan reads a
dataset directory once against the manifest; health_check flags what it
rejects, and recover gathers its valid blocks, from the primary alone when
the primary is intact.

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
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .blocks import (
    BlockRole,
    CodedBlock,
    RecoverySet,
    _decode,
    encode,
    make_block,
    original_blocks,
)
from .errors import (
    BadDatasetIdError,
    BadRationalError,
    DuplicateDatasetError,
    InputError,
    ManifestConflictError,
    ManifestMissingError,
    StoreLockedError,
    StoreUnreachableError,
    StoreUnwritableError,
    UnknownTargetError,
    UnrecoverableError,
    ValidationFailedError,
)
from .rationals import format_rational, parse_rational

BLOCK_MAGIC = "PLYD2"
_BLOCK_MAGIC_BYTES = BLOCK_MAGIC.encode("ascii")
MANIFEST_MAGIC = "PLYM2"
MANIFEST_NAME = "manifest.plym"
CREATED_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

_DATASET_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}\Z")
_INT = r"(?:0|[1-9][0-9]*)"
_HEAD_RE = re.compile(rf"dataset=(\S+) k=({_INT}) m=({_INT})\Z")
_BLOCK_LINE_RE = re.compile(rf"block index=({_INT}) role=(original|parity) value=([^ ]+)\Z")
_BLOCK_FILENAME_RE = re.compile(rf"block_({_INT})\.plyd\Z")
_DIGEST_LINE_RE = re.compile(rf"digest index=({_INT}) sha256=([0-9a-f]{{64}})\Z")
_CREATED_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z\Z"
)
_TAG_RE = re.compile(r"[a-z][a-z0-9_-]*\Z")
_KEY_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


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
    """A dataset's manifest: threshold, parity count, block digests, as written and as read."""

    dataset_id: str
    k: int
    m: int
    block_digests: Mapping[int, str]
    created_at: str


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


def render_block_file(block: CodedBlock) -> str:
    return f"{BLOCK_MAGIC}\n{block_line(block)}\n"


def render_manifest(manifest: DatasetManifest) -> str:
    lines = [MANIFEST_MAGIC, f"dataset={manifest.dataset_id} k={manifest.k} m={manifest.m}"]
    for index in sorted(manifest.block_digests):
        lines.append(f"digest index={index} sha256={manifest.block_digests[index]}")
    lines.append(f"created={manifest.created_at}")
    body = "\n".join(lines) + "\n"
    return f"{body}sha256={hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


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


def _valid_created(ts: str) -> bool:
    """Whether ts is a zero-padded UTC YYYY-MM-DDTHH:MM:SSZ naming a real instant."""
    match = _CREATED_RE.match(ts)
    if match is None:
        return False
    try:
        datetime(*map(int, match.groups()))
    except ValueError:
        return False
    return True


def same_directory(a: Path, b: Path) -> bool:
    """Whether two store roots name one directory.

    Existing roots are the same when they are the same file (device and
    inode), whatever path, symlink or mount leads to each.  Only when a
    root is missing are the two paths compared with symlinks resolved.
    """
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


# ---------------------------------------------------------------------------
# Low-level store access
# ---------------------------------------------------------------------------


@contextmanager
def _write_lock(store: Store) -> Iterator[None]:
    """Advisory one-writer-per-store lock (flock on <root>/.lock)."""
    try:
        store.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(store.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError as exc:
        raise StoreUnwritableError(f"cannot write {store.lock_path}: {exc}") from exc
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise StoreLockedError(f"another writer holds {store.lock_path}") from exc
        yield
    finally:
        os.close(fd)


def _atomic_write(path: Path, text: str) -> None:
    """Write via temp file + rename so partially written files are never visible.

    The directory must exist.  The temp file is removed only if the write fails.
    """
    tmp = path.parent / f".tmp-{os.getpid()}-{path.name}"
    try:
        try:
            tmp.write_bytes(text.encode("utf-8"))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise StoreUnwritableError(f"cannot write {path}: {exc}") from exc


def _is_reachable(store: Store) -> bool:
    return store.root.is_dir() and not store.flag_path.exists()


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _parse_manifest(data: bytes | None, dataset_id: str) -> DatasetManifest | None:
    """The manifest in data, or None if absent, unsealed, malformed or another dataset's."""
    body, _, seal = (data or b"").rpartition(b"sha256=")
    if seal != f"{hashlib.sha256(body).hexdigest()}\n".encode("ascii"):
        return None
    parts = body.decode("utf-8", errors="replace").split("\n")  # every field is ASCII-checked
    head = _HEAD_RE.match(parts[1]) if len(parts) > 4 and parts[0] == MANIFEST_MAGIC else None
    if head is None or head.group(1) != dataset_id or parts[-1] != "":
        return None
    k, m = int(head.group(2)), int(head.group(3))
    tag, _, created = parts[-2].partition("=")
    if k < 1 or len(parts) != k + m + 4 or tag != "created" or not _valid_created(created):
        return None
    digests: dict[int, str] = {}
    for position, line in enumerate(parts[2:-2]):
        match = _DIGEST_LINE_RE.match(line)
        if match is None or int(match.group(1)) != position:
            return None
        digests[position] = match.group(2)
    return DatasetManifest(dataset_id, k, m, digests, created)


def _checked_block(path: str, index: int, manifest: DatasetManifest) -> CodedBlock | None:
    """Parse and validate a block file; None means erasure-grade invalid.

    Valid means: exactly two LF-terminated lines, the second of which hashes
    to the manifest's digest for this index and is in the strict format,
    with the index of the filename and the role the manifest's k implies.
    The digest is checked over the raw line, before parsing: the strict
    format admits one spelling per block, so a line that parses is
    block_line(block) byte for byte.
    """
    try:
        with open(path, "rb") as file:
            parts = file.read().split(b"\n")
    except OSError:
        return None
    if len(parts) != 3 or parts[0] != _BLOCK_MAGIC_BYTES or parts[2] != b"":
        return None
    if hashlib.sha256(parts[1]).hexdigest() != manifest.block_digests[index]:
        return None
    try:
        body = _BLOCK_LINE_RE.match(parts[1].decode("utf-8"))
    except UnicodeDecodeError:
        return None
    if body is None:
        return None
    index_text, role_text, value_text = body.groups()
    try:
        block = CodedBlock(
            index=int(index_text),
            value=parse_rational(value_text),
            role=BlockRole(role_text),
            k=manifest.k,
            dataset_id=manifest.dataset_id,
        )
    except (BadRationalError, ValueError):
        return None
    return block if block.index == index else None


def _scan(
    store: Store, manifest: DatasetManifest
) -> tuple[dict[int, CodedBlock], list[tuple[Path, int | None]]]:
    """Check each file of a dataset directory once against its manifest.

    Returns the valid blocks by index, and every other file (the manifest
    and dot-files aside) with the block index its name gives, or None if its
    name is not a block file name.  Only block files whose index has a
    digest are read.
    """
    valid: dict[int, CodedBlock] = {}
    others: list[tuple[Path, int | None]] = []
    digests = manifest.block_digests
    directory = store.dataset_dir(manifest.dataset_id)
    try:
        with os.scandir(directory) as entries:
            files = sorted(
                (entry.name, entry.path)
                for entry in entries
                if entry.name != MANIFEST_NAME
                and not entry.name.startswith(".")
                and entry.is_file()
            )
    except OSError:  # no dataset directory here: every block is an erasure
        return valid, others
    for name, path in files:
        match = _BLOCK_FILENAME_RE.match(name)
        index = int(match.group(1)) if match else None
        block = _checked_block(path, index, manifest) if index in digests else None
        if block is None:
            others.append((directory / name, index))
        else:
            valid[index] = block
    return valid, others


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
    if same_directory(primary.root, secondary.root):
        raise InputError("primary and secondary stores must be different directories")
    created = created_at if created_at is not None else _utc_now()
    if not _valid_created(created):
        raise InputError(f"bad created timestamp: {created!r}")
    values = [Fraction(v) for v in values]
    originals = original_blocks(values, dataset_id)
    parity = encode(values, m, dataset_id)
    k = len(values)
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
        for _, store in named:
            directory = store.dataset_dir(dataset_id)
            try:
                directory.mkdir(exist_ok=True)
            except OSError as exc:
                raise StoreUnwritableError(f"cannot write {directory}: {exc}") from exc
        for block in originals:
            _atomic_write(primary.block_path(dataset_id, block.index), render_block_file(block))
            hook(f"primary:block:{block.index}")
        for block in parity:
            _atomic_write(secondary.block_path(dataset_id, block.index), render_block_file(block))
            hook(f"secondary:block:{block.index}")
        manifest_text = render_manifest(manifest)
        _atomic_write(primary.manifest_path(dataset_id), manifest_text)
        hook("primary:manifest")
        _atomic_write(secondary.manifest_path(dataset_id), manifest_text)
        hook("secondary:manifest")
    return manifest


def health_check(store: Store) -> StoreStatus:
    """Inspect a store: reachability, datasets present, digest-invalid files.

    Never raises.  A dataset is present iff its manifest file exists; an
    unreadable manifest is flagged, and otherwise block files are checked
    against it and flagged when they fail any format, index, role or digest
    check.  Missing blocks are erasures, not corruption, and are not flagged.
    """
    if not _is_reachable(store):
        return StoreStatus(reachable=False, datasets_present=(), corrupt_files=())
    datasets: list[str] = []
    corrupt: list[Path] = []
    with os.scandir(store.root) as entries:
        names = sorted(
            entry.name for entry in entries if _DATASET_ID_RE.match(entry.name) and entry.is_dir()
        )
    for name in names:
        manifest_path = store.manifest_path(name)
        if not manifest_path.is_file():
            continue
        datasets.append(name)
        manifest = _parse_manifest(_read(manifest_path), name)
        if manifest is None:
            corrupt.append(manifest_path)
            continue
        _, others = _scan(store, manifest)
        corrupt.extend(path for path, _ in others)
    return StoreStatus(
        reachable=True, datasets_present=tuple(datasets), corrupt_files=tuple(corrupt)
    )


@dataclass(frozen=True)
class _Gathered:
    manifest: DatasetManifest
    valid: dict[int, CodedBlock]  # every valid block by index; the primary's copy wins
    suspects: set[int]
    primary_intact: bool  # primary manifest replica readable and all k originals valid in primary


def _gather(dataset_id: str, primary: Store, secondary: Store, *, lazy: bool) -> _Gathered:
    """Read the dataset's manifest, then its valid blocks, primary first.

    The manifest replicas are read as bytes.  Identical bytes are parsed
    once; otherwise an unreadable replica gives way to the other, and two
    readable replicas that differ raise ManifestConflictError.  With lazy,
    an intact primary ends the gathering and the secondary is not scanned.
    Present-but-invalid block files become suspects and are discarded as
    erasures; files whose index has no digest are ignored.
    """
    if not _DATASET_ID_RE.match(dataset_id):
        raise BadDatasetIdError(f"bad dataset id: {dataset_id!r}")
    stores = [store if _is_reachable(store) else None for store in (primary, secondary)]
    raw = [store and _read(store.manifest_path(dataset_id)) for store in stores]
    own = _parse_manifest(raw[0], dataset_id)
    other = own if raw[1] == raw[0] else _parse_manifest(raw[1], dataset_id)
    if own is None and other is None:
        raise ManifestMissingError(f"no reachable store has a readable manifest for {dataset_id!r}")
    if own is not None and other is not None and own != other:
        raise ManifestConflictError(f"the two manifest replicas of {dataset_id!r} differ")
    manifest = own or other

    def scan(store: Store | None) -> tuple[dict[int, CodedBlock], set[int]]:
        if store is None:
            return {}, set()
        found, others = _scan(store, manifest)
        return found, {i for _, i in others if i in manifest.block_digests}

    valid, suspects = scan(stores[0])
    primary_intact = own is not None and all(i in valid for i in range(manifest.k))
    if not (lazy and primary_intact):
        found, more = scan(stores[1])
        valid, suspects = {**found, **valid}, suspects | more
    return _Gathered(manifest, valid, suspects, primary_intact)


def collect_recovery_set(dataset_id: str, primary: Store, secondary: Store) -> RecoverySet:
    """All digest-valid blocks of a dataset across both stores, as one set."""
    gathered = _gather(dataset_id, primary, secondary, lazy=False)
    valid = gathered.valid
    return RecoverySet(tuple(valid[i] for i in sorted(valid)), gathered.manifest.k)


def recover_dataset(dataset_id: str, primary: Store, secondary: Store) -> RecoveryResult:
    """Return the dataset's values, reconstructing from parity when needed.

    Step 1: with a primary whose manifest replica is readable and whose
    originals all pass their digests, return them as-is; the secondary's
    blocks are not read.  Step 2: otherwise gather every digest-valid block
    from both stores (invalid-but-present files become suspects and are
    discarded as erasures).  Step 3: decode them once, with the corruption
    search on, so surplus blocks that disagree become suspects.  Step 4:
    recompute the reconstructed originals' digests against the manifest;
    any mismatch raises ValidationFailedError.
    """
    gathered = _gather(dataset_id, primary, secondary, lazy=True)
    valid, suspects, k = gathered.valid, gathered.suspects, gathered.manifest.k

    if gathered.primary_intact:
        originals = tuple(valid[i].value for i in range(k))
        return RecoveryResult(values=originals, provenance=Provenance.PRIMARY, suspects=())

    if len(valid) < k:
        raise UnrecoverableError(f"only {len(valid)} valid blocks for {dataset_id!r}, need {k}")
    values, off = _decode(RecoverySet(tuple(valid.values()), k), search=True)
    suspects.update(off)

    digests = gathered.manifest.block_digests
    mismatched = [
        i for i in range(k) if block_digest(make_block(i, values[i], k, dataset_id)) != digests[i]
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
        if not _DATASET_ID_RE.match(fault.dataset_id):
            raise BadDatasetIdError(f"bad dataset id: {fault.dataset_id!r}")
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
