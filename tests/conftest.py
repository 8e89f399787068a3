import errno
import functools
import hashlib
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from lagpar import Store, render_manifest
from lagpar.storage import _parse_manifest


def pytest_configure(config):
    """Let subprocesses that run `python -m lagpar` import this checkout too."""
    paths = (str(config.rootpath / "src"), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


@pytest.fixture
def store_pair(tmp_path):
    """Fresh primary/secondary store roots under one temp directory."""
    return Store(tmp_path / "primary"), Store(tmp_path / "secondary")


@pytest.fixture(params=["symlink", "symlinked-parent", "relative"])
def aliased_roots(request, tmp_path, monkeypatch):
    """Two spellings of one store root, as (primary, secondary) paths.

    symlink: an existing root and a symlink to it.  symlinked-parent: one
    missing root reached through a directory and through a symlink to that
    directory.  relative: a missing root spelled relative to the working
    directory and absolute.
    """
    if request.param == "symlink":
        (tmp_path / "root").mkdir()
        (tmp_path / "alias").symlink_to(tmp_path / "root")
        return tmp_path / "root", tmp_path / "alias"
    if request.param == "symlinked-parent":
        (tmp_path / "parent").mkdir()
        (tmp_path / "alias").symlink_to(tmp_path / "parent")
        return tmp_path / "parent" / "root", tmp_path / "alias" / "root"
    monkeypatch.chdir(tmp_path)
    return Path("root"), tmp_path / "root"


_FILE_EVENTS = {"open", "os.listdir", "os.scandir", "os.mkdir", "os.remove"}
_recordings: list[list[tuple[str, Path]]] = []


def _record_file_event(event, args):
    if _recordings and event in _FILE_EVENTS and isinstance(args[0], (str, os.PathLike)):
        _recordings[-1].append((event, Path(args[0])))


@functools.cache
def _add_audit_hook():
    sys.addaudithook(_record_file_event)  # an audit hook cannot be removed


@contextmanager
def file_events():
    """Record the open, listing, os.mkdir and os.remove audit events raised inside the block.

    The recording sees every file the process opens, lists, creates as a
    directory or removes, whichever API does it, as (event, Path) pairs.
    """
    _add_audit_hook()
    events: list[tuple[str, Path]] = []
    _recordings.append(events)
    try:
        yield events
    finally:
        _recordings.pop()


@pytest.fixture
def unlistable(monkeypatch):
    """A set of directories that os.scandir refuses with EACCES, as for a user without read access.

    Tests running as root cannot be refused by permissions, so the refusal is simulated.
    """
    refused: set[Path] = set()
    scandir = os.scandir

    def guarded_scandir(path="."):
        if isinstance(path, (str, os.PathLike)) and Path(path) in refused:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", guarded_scandir)
    return refused


def rewrite_manifest(path, *, digests=None, edit=None, **changes):
    """Rewrite a manifest file with some fields changed, sealed anew by render_manifest.

    digests maps block indices to replacement digests; other keywords replace
    DatasetManifest fields.  edit, if given, maps the rendered text before the
    seal line to the text that is sealed instead, for a shape render_manifest
    never writes.
    """
    manifest = _parse_manifest(path.read_bytes(), path.parent.name)
    changes["block_digests"] = {**manifest.block_digests, **(digests or {})}
    text = render_manifest(replace(manifest, **changes))
    if edit is not None:
        body = edit(text[: text.rindex("sha256=")])
        text = f"{body}sha256={hashlib.sha256(body.encode()).hexdigest()}\n"
    path.write_text(text)


def random_values(rng: random.Random, k: int, *, max_den: int = 1000) -> list[Fraction]:
    return [
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, max_den)) for _ in range(k)
    ]
