import errno
import fcntl
import hashlib
import os
import random
import re
import sys
from datetime import datetime
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from lagpar import (
    AmbiguityError,
    BadDatasetIdError,
    BadRationalError,
    BlockRole,
    CodedBlock,
    DatasetManifest,
    DeleteBlock,
    DuplicateDatasetError,
    FlipByte,
    InputError,
    ManifestConflictError,
    ManifestMissingError,
    Provenance,
    Store,
    StoreStatus,
    StoreLockedError,
    StoreUnreachableError,
    StoreUnwritableError,
    UnknownTargetError,
    UnrecoverableError,
    Unreachable,
    ValidationFailedError,
    block_digest,
    collect_recovery_set,
    health_check,
    inject_fault,
    format_rational,
    make_block,
    parse_kv_line,
    parse_rational,
    recover_dataset,
    render_block_file,
    store_dataset,
    verify,
)
from lagpar.cli import main
from lagpar.storage import (
    CREATED_FORMAT,
    MANIFEST_NAME,
    _checked_block,
    _parse_manifest,
    _valid_created,
)
from conftest import file_events, random_values, rewrite_manifest

F = Fraction

CARBON = [F(300), F(400), F(300), F(3000)]
TS = "2026-01-01T00:00:00Z"


def store_carbon(primary, secondary, m=2, dataset_id="carbon"):
    return store_dataset(CARBON, m, dataset_id, primary, secondary, created_at=TS)


# --- store_dataset ----------------------------------------------------------


def test_store_layout_and_parity_values(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    assert sorted(p.name for p in primary.dataset_dir("carbon").iterdir()) == [
        "block_0.plyd",
        "block_1.plyd",
        "block_2.plyd",
        "block_3.plyd",
        "manifest.plym",
    ]
    assert sorted(p.name for p in secondary.dataset_dir("carbon").iterdir()) == [
        "block_4.plyd",
        "block_5.plyd",
        "manifest.plym",
    ]
    # parity values frozen from the Vandermonde oracle
    assert "value=11500/1" in secondary.block_path("carbon", 4).read_text()
    assert "value=28800/1" in secondary.block_path("carbon", 5).read_text()
    # manifest replicated byte-for-byte
    assert (
        primary.manifest_path("carbon").read_bytes()
        == secondary.manifest_path("carbon").read_bytes()
    )


def test_block_file_is_bit_exact(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    text = primary.block_path("carbon", 0).read_text()
    assert text == "PLYD2\nblock index=0 role=original value=300/1\n"


def test_store_duplicate_dataset_rejected(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    with pytest.raises(DuplicateDatasetError):
        store_carbon(primary, secondary)


def test_store_bad_dataset_id(store_pair):
    primary, secondary = store_pair
    for bad in ("", "has space", "a" * 65, "semi;colon"):
        with pytest.raises(BadDatasetIdError):
            store_dataset([F(1)], 1, bad, primary, secondary)


def test_store_requires_distinct_roots(tmp_path):
    store = Store(tmp_path / "one")
    with pytest.raises(InputError):
        store_dataset([F(1)], 1, "d", store, Store(tmp_path / "one"))


def test_store_refuses_an_aliased_root(aliased_roots):
    primary, secondary = aliased_roots
    with pytest.raises(InputError, match="must be different directories"):
        store_dataset([F(1)], 1, "d", Store(primary), Store(secondary), created_at=TS)


def test_store_to_distinct_roots_behind_symlinks(tmp_path):
    for name in ("p", "s"):
        (tmp_path / name).mkdir()
        (tmp_path / f"{name}-link").symlink_to(tmp_path / name)
    primary, secondary = Store(tmp_path / "p-link"), Store(tmp_path / "s-link")
    store_carbon(primary, secondary)
    assert recover_dataset("carbon", primary, secondary).values == tuple(CARBON)
    assert (tmp_path / "s" / "carbon" / "block_5.plyd").is_file()


def test_store_makes_each_directory_once_and_removes_nothing(store_pair):
    primary, secondary = store_pair
    with file_events() as events:
        store_carbon(primary, secondary)
    made = [path for event, path in events if event == "os.mkdir"]
    dataset_dirs = [store.dataset_dir("carbon") for store in store_pair]
    assert sorted(made) == sorted([primary.root, secondary.root, *dataset_dirs])
    assert [path for event, path in events if event == "os.remove"] == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_stored_files_get_the_default_mode_under_the_umask(store_pair, umask):
    old = os.umask(umask)
    try:
        store_carbon(*store_pair)
    finally:
        os.umask(old)
    for store in store_pair:
        for path in store.dataset_dir("carbon").iterdir():
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path


def test_short_writes_still_write_whole_files(tmp_path, monkeypatch):
    reference = (Store(tmp_path / "rp"), Store(tmp_path / "rs"))
    store_carbon(*reference)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:3])))
    stores = (Store(tmp_path / "p"), Store(tmp_path / "s"))
    store_carbon(*stores)
    monkeypatch.undo()
    for store, ref in zip(stores, reference):
        written = {p.name: p.read_bytes() for p in store.dataset_dir("carbon").iterdir()}
        assert written == {p.name: p.read_bytes() for p in ref.dataset_dir("carbon").iterdir()}


def test_failed_write_leaves_no_temp_file(store_pair, monkeypatch):
    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full)
    with pytest.raises(StoreUnwritableError, match=re.escape(os.strerror(errno.ENOSPC))):
        store_carbon(*store_pair)
    monkeypatch.undo()
    assert [list(store.dataset_dir("carbon").iterdir()) for store in store_pair] == [[], []]



def _planted_temp_name(store, name):
    return store.dataset_dir("carbon") / f".tmp-{os.getpid()}-{name}"


def test_store_never_writes_through_a_planted_temp_link(store_pair, tmp_path):
    primary, secondary = store_pair
    outside = tmp_path / "outside"
    outside.write_text("keep me\n")
    primary.dataset_dir("carbon").mkdir(parents=True)
    link = _planted_temp_name(primary, "block_0.plyd")
    link.symlink_to(outside)
    store_carbon(primary, secondary)
    assert outside.read_text() == "keep me\n"
    assert not link.is_symlink()
    assert recover_dataset("carbon", primary, secondary).values == tuple(CARBON)


def test_store_replaces_a_stale_temp_file(store_pair):
    primary, secondary = store_pair
    secondary.dataset_dir("carbon").mkdir(parents=True)
    stale = _planted_temp_name(secondary, MANIFEST_NAME)
    stale.write_text("left by a crashed writer, longer than any manifest\n" * 20)
    store_carbon(primary, secondary)
    assert not stale.exists()
    assert health_check(secondary) == StoreStatus(True, ("carbon",), ())
    assert secondary.manifest_path("carbon").read_bytes() == primary.manifest_path(
        "carbon"
    ).read_bytes()


def test_temp_name_that_cannot_be_cleared_is_unwritable(store_pair):
    primary, secondary = store_pair
    (_planted_temp_name(primary, "block_0.plyd") / "sub").mkdir(parents=True)
    with pytest.raises(StoreUnwritableError):
        store_carbon(primary, secondary)


_TWO_DIGITS = st.one_of(st.integers(0, 99), st.sampled_from([0, 1, 12, 13, 24, 29, 30, 31, 60, 61]))


@given(
    year=st.one_of(st.integers(0, 9999), st.sampled_from([0, 1900, 2000, 2023, 2024, 2100])),
    month=_TWO_DIGITS,
    day=_TWO_DIGITS,
    hour=_TWO_DIGITS,
    minute=_TWO_DIGITS,
    second=_TWO_DIGITS,
)
@example(year=2024, month=2, day=29, hour=0, minute=0, second=0)
@example(year=2000, month=2, day=29, hour=0, minute=0, second=0)
@example(year=2023, month=2, day=29, hour=0, minute=0, second=0)
@example(year=2100, month=2, day=29, hour=0, minute=0, second=0)
@example(year=2026, month=1, day=1, hour=24, minute=0, second=0)
@example(year=2026, month=1, day=1, hour=23, minute=60, second=0)
@example(year=2026, month=12, day=31, hour=23, minute=59, second=60)
@example(year=2026, month=12, day=31, hour=23, minute=59, second=61)
@example(year=2026, month=0, day=1, hour=0, minute=0, second=0)
@example(year=2026, month=13, day=1, hour=0, minute=0, second=0)
@example(year=2026, month=4, day=31, hour=0, minute=0, second=0)
@example(year=2026, month=4, day=30, hour=0, minute=0, second=0)
@example(year=0, month=1, day=1, hour=0, minute=0, second=0)
def test_created_timestamp_check_matches_strptime(year, month, day, hour, minute, second):
    ts = f"{year:04}-{month:02}-{day:02}T{hour:02}:{minute:02}:{second:02}Z"
    try:
        datetime.strptime(ts, CREATED_FORMAT)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert _valid_created(ts) is accepted, ts


def test_store_bad_created_at(store_pair):
    primary, secondary = store_pair
    for bad in ("yesterday", "2026-1-1T0:0:0Z"):
        with pytest.raises(InputError):
            store_dataset([F(1)], 1, "d", primary, secondary, created_at=bad)
        assert not primary.dataset_dir("d").exists()
        assert not secondary.dataset_dir("d").exists()
    store_dataset([F(1)], 1, "d", primary, secondary, created_at=TS)
    inject_fault(primary, DeleteBlock("d", 0))
    assert recover_dataset("d", primary, secondary).values == (F(1),)


def test_store_without_parity(store_pair):
    primary, secondary = store_pair
    store_dataset([F(7)], 0, "lone", primary, secondary, created_at=TS)
    assert sorted(p.name for p in secondary.dataset_dir("lone").iterdir()) == ["manifest.plym"]
    result = recover_dataset("lone", primary, secondary)
    assert result.provenance is Provenance.PRIMARY and result.values == (F(7),)
    # with the only original gone there is nothing left to recover from
    inject_fault(primary, DeleteBlock("lone", 0))
    with pytest.raises(UnrecoverableError):
        recover_dataset("lone", primary, secondary)


def test_store_to_unreachable_store_fails(store_pair):
    primary, secondary = store_pair
    primary.root.mkdir(parents=True)
    inject_fault(primary, Unreachable())
    with pytest.raises(StoreUnreachableError):
        store_carbon(primary, secondary)


def test_store_respects_advisory_lock(store_pair):
    primary, secondary = store_pair
    primary.root.mkdir(parents=True)
    fd = os.open(primary.lock_path, os.O_CREAT | os.O_RDWR)
    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        with pytest.raises(StoreLockedError):
            store_carbon(primary, secondary)
    finally:
        os.close(fd)
    store_carbon(primary, secondary)  # lock released, second attempt succeeds


@pytest.mark.parametrize("side", ["primary", "secondary"])
@pytest.mark.parametrize("bad_root", ["file", "file/s"])
def test_store_root_that_cannot_be_created(tmp_path, side, bad_root):
    (tmp_path / "file").write_text("")
    bad, good = Store(tmp_path / bad_root), Store(tmp_path / "good")
    primary, secondary = (bad, good) if side == "primary" else (good, bad)
    with pytest.raises(StoreUnwritableError):
        store_carbon(primary, secondary)
    assert not bad.dataset_dir("carbon").exists()
    assert not good.dataset_dir("carbon").exists()


# --- health_check -----------------------------------------------------------


def test_health_fresh_and_missing_roots(store_pair):
    primary, _ = store_pair
    assert not health_check(primary).reachable  # root not created yet
    primary.root.mkdir(parents=True)
    status = health_check(primary)
    assert status.reachable
    assert status.datasets_present == ()
    assert status.corrupt_files == ()


def test_health_reports_a_root_it_cannot_list_as_unreachable(store_pair, unlistable):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    unlistable.add(primary.root)
    assert health_check(primary) == StoreStatus(False, (), ())
    assert health_check(secondary) == StoreStatus(True, ("carbon",), ())


def test_health_flags_a_dataset_directory_it_cannot_list(store_pair, unlistable):
    # no listing, so no manifest is seen: the dataset is not present, none of
    # its files is opened, and the directory itself is flagged
    primary, secondary = store_pair
    store_carbon(primary, secondary, m=4)
    store_carbon(primary, secondary, dataset_id="other")
    unlistable.add(primary.dataset_dir("carbon"))
    with file_events() as events:
        status = health_check(primary)
    assert status == StoreStatus(True, ("other",), (primary.dataset_dir("carbon"),))
    opened = [path for event, path in events if event == "open"]
    assert opened and all(path.parent == primary.dataset_dir("other") for path in opened)
    result = recover_dataset("carbon", primary, secondary)  # its primary blocks are erasures
    assert result.provenance is Provenance.RECONSTRUCTED and result.values == tuple(CARBON)


def test_health_never_raises_on_an_entry_whose_type_cannot_be_read(store_pair):
    # stat on a symlink loop fails, so the directory holding one cannot be listed whole
    primary, secondary = store_pair
    store_carbon(primary, secondary, m=4)
    (primary.dataset_dir("carbon") / "loop").symlink_to("loop")
    assert health_check(primary) == StoreStatus(True, (), (primary.dataset_dir("carbon"),))
    assert recover_dataset("carbon", primary, secondary).values == tuple(CARBON)
    (secondary.root / "loop").symlink_to("loop")
    assert health_check(secondary) == StoreStatus(False, (), ())


def test_health_lists_each_directory_once_and_opens_each_file_once(store_pair):
    primary, secondary = store_pair
    rng = random.Random(10)
    shapes = {"a": (2, 1), "b": (3, 2), "c": (5, 4), "d": (1, 3)}
    for name, (k, m) in shapes.items():
        store_dataset(random_values(rng, k), m, name, primary, secondary, created_at=TS)
    inject_fault(primary, FlipByte("b", 0, 10))
    (primary.dataset_dir("c") / "notes.txt").write_text("junk\n")  # flagged, never opened
    primary.dataset_dir("bare").mkdir()  # no manifest: listed, not present
    for store, datasets in ((primary, ["a", "b", "bare", "c", "d"]), (secondary, ["a", "b", "c", "d"])):
        files = {
            path
            for name in shapes
            for path in store.dataset_dir(name).iterdir()
            if path.name != "notes.txt"
        }
        with file_events() as events:
            status = health_check(store)
        assert status.datasets_present == tuple(shapes)
        opened = [path for event, path in events if event == "open"]
        listed = [path for event, path in events if event in ("os.listdir", "os.scandir")]
        assert sorted(opened) == sorted(files)
        assert listed == [store.root, *(store.dataset_dir(name) for name in datasets)]
    assert health_check(primary).corrupt_files == (
        primary.block_path("b", 0),
        primary.dataset_dir("c") / "notes.txt",
    )


def test_health_unreachable_flag_hides_everything(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    inject_fault(primary, Unreachable())
    status = health_check(primary)
    assert not status.reachable
    assert status.datasets_present == ()
    assert status.corrupt_files == ()  # unknowable when unreachable


def test_health_flags_flipped_block(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    inject_fault(primary, FlipByte("carbon", 1, 10))
    status = health_check(primary)
    assert status.corrupt_files == (primary.block_path("carbon", 1),)
    assert status.datasets_present == ("carbon",)


def test_health_flags_truncated_manifest(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    path = primary.manifest_path("carbon")
    path.write_bytes(path.read_bytes()[:-1])
    assert health_check(primary).corrupt_files == (path,)


def test_health_flags_stray_and_misnamed_files(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    (primary.dataset_dir("carbon") / "block_01.plyd").write_text("junk\n")
    (primary.dataset_dir("carbon") / "notes.txt").write_text("junk\n")
    flagged = {p.name for p in health_check(primary).corrupt_files}
    assert flagged == {"block_01.plyd", "notes.txt"}


def test_stray_block_and_flipped_block_in_both_views(store_pair):
    # block_6 has no digest (k+m = 6): health flags it, recover ignores it
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    stray = secondary.block_path("carbon", 6)
    stray.write_text(render_block_file(make_block(6, F(1), 4, "carbon")))
    inject_fault(primary, FlipByte("carbon", 1, 10))
    assert health_check(primary).corrupt_files == (primary.block_path("carbon", 1),)
    assert health_check(secondary).corrupt_files == (stray,)
    result = recover_dataset("carbon", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == tuple(CARBON)
    assert result.suspects == (1,)


# --- recover_dataset --------------------------------------------------------


def test_recover_intact_primary(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    result = recover_dataset("carbon", primary, secondary)
    assert result.provenance is Provenance.PRIMARY
    assert result.values == tuple(CARBON)
    assert result.suspects == ()


def test_recover_unknown_dataset(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    with pytest.raises(ManifestMissingError):
        recover_dataset("nosuch", primary, secondary)


def test_recover_after_total_original_loss(store_pair):
    primary, secondary = store_pair
    store_dataset(CARBON, 4, "carbon", primary, secondary, created_at=TS)
    for index in range(4):
        inject_fault(primary, DeleteBlock("carbon", index))
    result = recover_dataset("carbon", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == tuple(CARBON)
    assert result.suspects == ()


def test_recover_with_unreachable_primary(store_pair):
    primary, secondary = store_pair
    store_dataset([F(2), F(3)], 3, "pair", primary, secondary, created_at=TS)
    inject_fault(primary, Unreachable())
    result = recover_dataset("pair", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == (F(2), F(3))


def test_recover_below_threshold(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary, m=2)
    for index in range(3):
        inject_fault(primary, DeleteBlock("carbon", index))
    with pytest.raises(UnrecoverableError):
        recover_dataset("carbon", primary, secondary)


def test_recover_flipped_parity_becomes_suspect(store_pair):
    primary, secondary = store_pair
    store_dataset([F(2), F(3)], 3, "pair", primary, secondary, created_at=TS)
    inject_fault(primary, DeleteBlock("pair", 0))
    inject_fault(secondary, FlipByte("pair", 3, 29))
    result = recover_dataset("pair", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == (F(2), F(3))
    assert result.suspects == (3,)


def test_recover_manifest_missing_everywhere(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    primary.manifest_path("carbon").unlink()
    secondary.manifest_path("carbon").unlink()
    with pytest.raises(ManifestMissingError):
        recover_dataset("carbon", primary, secondary)


def test_recover_uses_secondary_manifest_when_primary_lost(store_pair):
    primary, secondary = store_pair
    store_dataset([F(2), F(3)], 2, "pair", primary, secondary, created_at=TS)
    primary.manifest_path("pair").unlink()
    result = recover_dataset("pair", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == (F(2), F(3))


def _swap_manifest_digest(store, dataset_id, index, new_digest):
    rewrite_manifest(store.manifest_path(dataset_id), digests={index: new_digest})


def test_recover_step4_validation_failure(store_pair):
    # manifest digest for original 0 tampered in both stores: the stored block
    # becomes erasure-grade invalid, and the reconstructed value cannot match
    primary, secondary = store_pair
    store_dataset([F(0), F(1)], 1, "line", primary, secondary, created_at=TS)
    for store in (primary, secondary):
        _swap_manifest_digest(store, "line", 0, "0" * 64)
    with pytest.raises(ValidationFailedError) as err:
        recover_dataset("line", primary, secondary)
    assert 0 in err.value.suspects


def test_recover_falls_back_to_corruption_location(store_pair):
    # digest-valid but inconsistent: block 2 rewritten with a matching manifest
    primary, secondary = store_pair
    store_dataset([F(0), F(1)], 3, "line", primary, secondary, created_at=TS)
    evil = make_block(2, F(99), 2, "line")
    path = secondary.block_path("line", 2)
    path.write_text("PLYD2\nblock index=2 role=parity value=99/1\n")
    for store in (primary, secondary):
        _swap_manifest_digest(store, "line", 2, block_digest(evil))
    inject_fault(primary, DeleteBlock("line", 0))  # defeat the pristine-primary path
    result = recover_dataset("line", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == (F(0), F(1))
    assert result.suspects == (2,)


def _plant_parity(primary, secondary, dataset_id, block):
    """Overwrite a parity block with a digest-valid but wrong value."""
    secondary.block_path(dataset_id, block.index).write_text(render_block_file(block))
    for store in (primary, secondary):
        _swap_manifest_digest(store, dataset_id, block.index, block_digest(block))


def test_recover_ambiguity_end_to_end(store_pair, capsys):
    # blocks 1, 2 (planted) and 3 are pairwise inconsistent: three lines tie
    primary, secondary = store_pair
    store_dataset([F(0), F(1)], 2, "line", primary, secondary, created_at=TS)
    inject_fault(primary, DeleteBlock("line", 0))
    _plant_parity(primary, secondary, "line", make_block(2, F(99), 2, "line"))
    with pytest.raises(AmbiguityError):
        recover_dataset("line", primary, secondary)
    flags = ["--primary", str(primary.root), "--secondary", str(secondary.root)]
    assert main([*flags, "recover", "--id", "line"]) == 4
    assert "error:" in capsys.readouterr().err


def test_recover_past_search_cap_when_consistent(store_pair):
    # 19 valid blocks exceed the 16-block search cap; no search is needed
    primary, secondary = store_pair
    values = random_values(random.Random(19), 10)
    store_dataset(values, 10, "wide", primary, secondary, created_at=TS)
    inject_fault(primary, DeleteBlock("wide", 4))
    assert len(collect_recovery_set("wide", primary, secondary).blocks) == 19
    result = recover_dataset("wide", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == tuple(values)
    assert result.suspects == ()


def test_recover_search_cap_when_inconsistent(store_pair, capsys):
    primary, secondary = store_pair
    values = random_values(random.Random(19), 10)
    store_dataset(values, 10, "wide", primary, secondary, created_at=TS)
    inject_fault(primary, DeleteBlock("wide", 4))
    _plant_parity(primary, secondary, "wide", make_block(12, F(7, 3), 10, "wide"))
    result = recover_dataset("wide", primary, secondary)
    assert result.values == tuple(values)
    assert result.suspects == (12,)
    flags = ["--primary", str(primary.root), "--secondary", str(secondary.root)]
    assert main(["--machine", *flags, "recover", "--id", "wide"]) == 0
    assert "suspects=12\n" in capsys.readouterr().out


def test_healthy_recover_reads_only_the_primary_and_manifests(store_pair):
    primary, secondary = store_pair
    values = random_values(random.Random(24), 24)
    store_dataset(values, 24, "wide", primary, secondary, created_at=TS)
    with file_events() as events:
        result = recover_dataset("wide", primary, secondary)
    assert result.provenance is Provenance.PRIMARY and result.values == tuple(values)
    opened = [path for event, path in events if event == "open"]
    listed = [path for event, path in events if event in ("os.listdir", "os.scandir")]
    assert sorted(opened) == sorted(
        [primary.manifest_path("wide"), secondary.manifest_path("wide")]
        + [primary.block_path("wide", i) for i in range(24)]
    )
    assert listed == [primary.dataset_dir("wide")]


# Parity block 1 of the constant dataset (v,) with k=1, rewritten in a
# spelling the strict format refuses; the manifest is re-sealed with the
# digest of the raw line, so only the format checks can refuse it.
REFUSED_BLOCK_FILES = {
    "value=4/2": (F(2), b"PLYD2\nblock index=1 role=parity value=4/2\n"),
    "value=03/1": (F(3), b"PLYD2\nblock index=1 role=parity value=03/1\n"),
    "value=-0/1": (F(0), b"PLYD2\nblock index=1 role=parity value=-0/1\n"),
    "index=01": (F(3), b"PLYD2\nblock index=01 role=parity value=3/1\n"),
    "index-of-block-2": (F(3), b"PLYD2\nblock index=2 role=parity value=3/1\n"),
    "role-for-other-k": (F(3), b"PLYD2\nblock index=1 role=original value=3/1\n"),
    "crlf": (F(3), b"PLYD2\r\nblock index=1 role=parity value=3/1\r\n"),
    "cr-before-lf": (F(3), b"PLYD2\nblock index=1 role=parity value=3/1\r\n"),
    "trailing-space": (F(3), b"PLYD2\nblock index=1 role=parity value=3/1 \n"),
    "bytes-after-last-lf": (F(3), b"PLYD2\nblock index=1 role=parity value=3/1\nx"),
    "non-utf8-byte": (F(3), b"PLYD2\nblock index=1 role=parity value=3/1\xff\n"),
    "index=+1": (F(3), b"PLYD2\nblock index=+1 role=parity value=3/1\n"),
    "role=Parity": (F(3), b"PLYD2\nblock index=1 role=Parity value=3/1\n"),
    "doubled-space": (F(3), b"PLYD2\nblock index=1  role=parity value=3/1\n"),
    "value=+3/1": (F(3), b"PLYD2\nblock index=1 role=parity value=+3/1\n"),
    "fullwidth-digit": (F(3), "PLYD2\nblock index=1 role=parity value=\uff13/1\n".encode()),
}


@pytest.mark.parametrize("content", sorted(REFUSED_BLOCK_FILES))
def test_digest_first_reader_refuses_what_the_format_refuses(store_pair, content):
    primary, secondary = store_pair
    value, data = REFUSED_BLOCK_FILES[content]
    store_dataset([value], 3, "d", primary, secondary, created_at=TS)
    path = secondary.block_path("d", 1)
    path.write_bytes(data)
    raw_digest = hashlib.sha256(data.split(b"\n")[1]).hexdigest()
    for store in store_pair:
        rewrite_manifest(store.manifest_path("d"), digests={1: raw_digest})
    inject_fault(primary, DeleteBlock("d", 0))  # make recover read the secondary
    result = recover_dataset("d", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED
    assert result.values == (value,)
    assert result.suspects == (1,)
    assert health_check(secondary).corrupt_files == (path,)


# The block and digest-line readers as they were written with regular
# expressions, kept here as the reference the prefix comparisons must match.
_REGEX_BLOCK_LINE = re.compile(r"block index=(0|[1-9][0-9]*) role=(original|parity) value=([^ ]+)\Z")
_REGEX_DIGEST_LINE = re.compile(r"digest index=(0|[1-9][0-9]*) sha256=([0-9a-f]{64})\Z")


def _regex_block_reader(line: bytes, index: int, k: int) -> CodedBlock | None:
    try:
        body = _REGEX_BLOCK_LINE.match(line.decode("utf-8"))
    except UnicodeDecodeError:
        return None
    if body is None:
        return None
    try:
        block = CodedBlock(int(body[1]), parse_rational(body[3]), BlockRole(body[2]), k, "d")
    except (BadRationalError, ValueError):
        return None
    return block if block.index == index else None


def _mutations(text: str, alphabet: str):
    """text, and text with one character replaced, inserted or deleted."""
    position = st.integers(0, len(text))
    char = st.sampled_from(alphabet)
    return st.one_of(
        st.just(text),
        st.tuples(position, char).map(lambda pc: text[: pc[0]] + pc[1] + text[pc[0] + 1 :]),
        st.tuples(position, char).map(lambda pc: text[: pc[0]] + pc[1] + text[pc[0] :]),
        position.map(lambda p: text[:p] + text[p + 1 :]),
    )


_LINE_CHARS = "0123456789+-/ =abcdiklnoprtuvxyzP\t\r\uff13\u0663\xe9"
_VALUES = st.fractions(max_denominator=10**6).map(format_rational)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 3),
    line=st.one_of(
        st.tuples(st.integers(0, 4), st.sampled_from(["original", "parity"]), _VALUES).map(
            lambda t: f"block index={t[0]} role={t[1]} value={t[2]}"
        ),
        _VALUES.flatmap(lambda v: _mutations(f"block index=1 role=parity value={v}", _LINE_CHARS)),
    ),
    tail=st.sampled_from([b"", b"\xff", b"\x80"]),
)
def test_block_reader_accepts_what_the_regex_reader_accepted(tmp_path_factory, k, line, tail):
    raw = line.encode() + tail
    path = tmp_path_factory.mktemp("block") / "block_1.plyd"
    path.write_bytes(b"PLYD2\n" + raw + b"\n")
    manifest = DatasetManifest("d", k, 3, {1: hashlib.sha256(raw).hexdigest()}, TS)
    assert _checked_block(str(path), 1, manifest) == _regex_block_reader(raw, 1, k)


_DIGEST = hashlib.sha256(b"x").hexdigest()


@settings(max_examples=300, deadline=None)
@given(line=_mutations(f"digest index=0 sha256={_DIGEST}", "0123456789abcdefABF +=g\uff10"))
def test_manifest_reader_accepts_the_digest_lines_the_regex_accepted(line):
    body = f"PLYM2\ndataset=d k=1 m=0\n{line}\ncreated={TS}\n"
    data = f"{body}sha256={hashlib.sha256(body.encode()).hexdigest()}\n".encode()
    match = _REGEX_DIGEST_LINE.match(line)
    expected = {0: match[2]} if match and match[1] == "0" else None
    manifest = _parse_manifest(data, "d")
    assert (manifest and dict(manifest.block_digests)) == expected


@pytest.fixture
def unlimited_int_digits():
    """Lift the interpreter's cap on int/str conversion digits (4300 by default) for one test."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_block_longer_than_one_read_is_read_whole(store_pair, unlimited_int_digits):
    primary, secondary = store_pair
    values = (F(10**70_000 + 7, 3), F(1))
    store_dataset(values, 1, "big", primary, secondary, created_at=TS)
    assert primary.block_path("big", 0).stat().st_size > 1 << 16
    assert health_check(primary).corrupt_files == health_check(secondary).corrupt_files == ()
    assert recover_dataset("big", primary, secondary).values == values
    inject_fault(primary, DeleteBlock("big", 1))  # recover reads the two long blocks
    result = recover_dataset("big", primary, secondary)
    assert result.provenance is Provenance.RECONSTRUCTED and result.values == values


# --- the manifest is the authority on k and m -------------------------------


DEMO = (F(2), F(3), F(5))


def _forge_old_framing(store, index):
    """Rewrite a block file in the old format, claiming k=2 m=2 around its own block line."""
    path = store.block_path("demo", index)
    line = path.read_text().splitlines()[-1]
    path.write_text(f"PLYD1\ndataset=demo k=2 m=2\n{line}\n")


def test_forged_framing_cannot_lower_k(store_pair):
    # two of four blocks claiming k=2 once tied a vote over block headers and
    # returned (2, 3); k now comes from the manifest, and 2 valid blocks < k=3
    primary, secondary = store_pair
    store_dataset(DEMO, 1, "demo", primary, secondary, created_at=TS)
    for index in (0, 1):
        _forge_old_framing(primary, index)
    with pytest.raises(UnrecoverableError):
        recover_dataset("demo", primary, secondary)
    forged = (primary.block_path("demo", 0), primary.block_path("demo", 1))
    assert health_check(primary).corrupt_files == forged


def test_forged_framing_with_spare_parity(store_pair):
    primary, secondary = store_pair
    store_dataset(DEMO, 2, "demo", primary, secondary, created_at=TS)
    for index in (0, 1):
        _forge_old_framing(primary, index)
    result = recover_dataset("demo", primary, secondary)
    assert result.values == DEMO
    assert result.suspects == (0, 1)
    forged = (primary.block_path("demo", 0), primary.block_path("demo", 1))
    assert health_check(primary).corrupt_files == forged


def test_conflicting_manifest_replicas(store_pair, capsys):
    primary, secondary = store_pair
    store_dataset(DEMO, 1, "demo", primary, secondary, created_at=TS)
    rewrite_manifest(secondary.manifest_path("demo"), k=2, m=2)  # sealed, readable
    with pytest.raises(ManifestConflictError):
        recover_dataset("demo", primary, secondary)
    with pytest.raises(ManifestConflictError):
        collect_recovery_set("demo", primary, secondary)
    flags = ["--primary", str(primary.root), "--secondary", str(secondary.root)]
    assert main(["--machine", *flags, "recover", "--id", "demo"]) == 3
    assert capsys.readouterr().out == ""



def test_swapped_dataset_directories_read_as_missing(store_pair):
    # a careless mv: each directory's manifest is sealed but names the other dataset
    primary, secondary = store_pair
    store_dataset(DEMO, 1, "a", primary, secondary, created_at=TS)
    store_dataset((F(7), F(11), F(13)), 1, "b", primary, secondary, created_at=TS)
    for store in store_pair:
        a, b = store.dataset_dir("a"), store.dataset_dir("b")
        a.rename(store.root / "swap")
        b.rename(a)
        (store.root / "swap").rename(b)
    for dataset_id in ("a", "b"):
        with pytest.raises(ManifestMissingError):
            recover_dataset(dataset_id, primary, secondary)
    for store in store_pair:
        manifests = (store.manifest_path("a"), store.manifest_path("b"))
        assert health_check(store) == StoreStatus(True, ("a", "b"), manifests)


# one sealed manifest per shape guard of _parse_manifest, each failing that guard alone
CRAFTED_MANIFESTS = {
    "dataset-id": dict(dataset_id="other"),
    "k-below-1": dict(k=0, m=4),  # the line count still matches 0 + 4 digests
    "line-count": dict(m=2),
    "created-tag": dict(edit=lambda body: body.replace("\ncreated=", "\ncreatet=")),
    "created-instant": dict(created_at="2026-02-30T00:00:00Z"),
}


@pytest.mark.parametrize("crafted", sorted(CRAFTED_MANIFESTS))
def test_crafted_manifest_replica_is_unreadable(store_pair, crafted):
    primary, secondary = store_pair
    store_dataset(DEMO, 1, "demo", primary, secondary, created_at=TS)
    path = primary.manifest_path("demo")
    rewrite_manifest(path, **CRAFTED_MANIFESTS[crafted])
    assert _parse_manifest(path.read_bytes(), "demo") is None
    assert recover_dataset("demo", primary, secondary).values == DEMO
    assert health_check(primary).corrupt_files == (path,)


@pytest.mark.parametrize("damaged", ["primary", "secondary"])
def test_damaged_manifest_replica_gives_way(store_pair, damaged):
    primary, secondary = store_pair
    store_dataset(DEMO, 1, "demo", primary, secondary, created_at=TS)
    store = primary if damaged == "primary" else secondary
    path = store.manifest_path("demo")
    path.write_text(path.read_text().replace("k=3 m=1", "k=2 m=2"))  # seal not renewed
    result = recover_dataset("demo", primary, secondary)
    assert result.values == DEMO
    assert health_check(store).corrupt_files == (path,)


def test_every_bit_flip_recovers_exactly_and_is_flagged(store_pair):
    # one flip at a time, of bit 0x01, 0x02 or 0x20, at every offset of every file
    primary, secondary = store_pair
    store_dataset(DEMO, 2, "demo", primary, secondary, created_at=TS)
    files = [(store, path) for store in store_pair for path in store.dataset_dir("demo").iterdir()]
    assert len(files) == 7
    for store, path in files:
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            for bit in (0x01, 0x02, 0x20):
                flipped = bytearray(pristine)
                flipped[offset] ^= bit
                path.write_bytes(bytes(flipped))
                where = f"bit {bit:#04x} at byte {offset} of {path.name} in {store.root.name}"
                assert recover_dataset("demo", primary, secondary).values == DEMO, where
                assert path in health_check(store).corrupt_files, where
        path.write_bytes(pristine)


def test_collect_recovery_set_feeds_verify(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    report = verify(collect_recovery_set("carbon", primary, secondary))
    assert report.consistent


# --- properties -------------------------------------------------------------


@pytest.mark.parametrize("k,m", [(3, 2), (4, 4), (8, 4)])
def test_erasure_tolerance_exhaustive(store_pair, k, m):
    primary, secondary = store_pair
    values = [F(i * i - 3, i + 1) for i in range(k)]
    store_dataset(values, m, "d", primary, secondary, created_at=TS)
    paths = {
        i: (primary if i < k else secondary).block_path("d", i) for i in range(k + m)
    }
    snapshot = {i: p.read_bytes() for i, p in paths.items()}
    for size in range(m + 1):
        for doomed in combinations(range(k + m), size):
            for i in doomed:
                paths[i].unlink()
            result = recover_dataset("d", primary, secondary)
            assert result.values == tuple(values)
            for i in doomed:
                paths[i].write_bytes(snapshot[i])


def test_atomicity_under_crashes(tmp_path):
    values = [F(2), F(3), F(5)]
    k, m = 3, 2

    labels = []
    rehearsal = (Store(tmp_path / "rp"), Store(tmp_path / "rs"))
    store_dataset(values, m, "d", *rehearsal, created_at=TS, crash_hook=labels.append)
    assert labels == [
        "primary:block:0",
        "primary:block:1",
        "primary:block:2",
        "secondary:block:3",
        "secondary:block:4",
        "primary:manifest",
        "secondary:manifest",
    ]

    class Boom(RuntimeError):
        pass

    for stop_at in range(len(labels)):
        primary = Store(tmp_path / f"p{stop_at}")
        secondary = Store(tmp_path / f"s{stop_at}")

        def hook(stage, _n=iter(range(len(labels)))):
            if next(_n) == stop_at:
                raise Boom(stage)

        with pytest.raises(Boom):
            store_dataset(values, m, "d", primary, secondary, created_at=TS, crash_hook=hook)
        # invariant: a visible manifest implies all of that store's blocks are
        # fully written and digest-valid
        for store, own in ((primary, range(k)), (secondary, range(k, k + m))):
            status = health_check(store)
            assert status.corrupt_files == ()
            if store.manifest_path("d").exists():
                assert all(store.block_path("d", i).is_file() for i in own)
        # a crash before any manifest write leaves the id reusable
        if stop_at < 5:
            store_dataset(values, m, "d", primary, secondary, created_at=TS)
            assert recover_dataset("d", primary, secondary).values == tuple(values)


# --- fault injection --------------------------------------------------------


def test_inject_unknown_targets(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    with pytest.raises(UnknownTargetError):
        inject_fault(primary, DeleteBlock("nosuch", 0))
    with pytest.raises(UnknownTargetError):
        inject_fault(primary, DeleteBlock("carbon", 9))
    with pytest.raises(UnknownTargetError):
        inject_fault(primary, FlipByte("carbon", 0, 10_000))
    with pytest.raises(UnknownTargetError):
        inject_fault(Store(primary.root / "missing"), Unreachable())


def test_flip_byte_is_deterministic_and_reversible(store_pair):
    primary, secondary = store_pair
    store_carbon(primary, secondary)
    path = primary.block_path("carbon", 0)
    before = path.read_bytes()
    inject_fault(primary, FlipByte("carbon", 0, 3))
    flipped = path.read_bytes()
    assert flipped != before and len(flipped) == len(before)
    inject_fault(primary, FlipByte("carbon", 0, 3))
    assert path.read_bytes() == before


# --- machine-line grammar ---------------------------------------------------


def test_parse_kv_line_round_trip():
    tag, pairs = parse_kv_line("block index=3 role=parity value=8/1")
    assert tag == "block"
    assert pairs == {"index": "3", "role": "parity", "value": "8/1"}
    tag, pairs = parse_kv_line("result values=1/1,2/1 suspects=")
    assert pairs["suspects"] == ""


@pytest.mark.parametrize(
    "line",
    ["UPPER key=1", "tag key", "tag key=1 key=2", "tag BAD=1", "=x", ""],
)
def test_parse_kv_line_rejects_bad_grammar(line):
    with pytest.raises(ValueError):
        parse_kv_line(line)
