import os
import random
from dataclasses import replace
from fractions import Fraction

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


def rewrite_manifest(path, *, digests=None, **changes):
    """Rewrite a manifest file with some fields changed, sealed anew by render_manifest.

    digests maps block indices to replacement digests; other keywords replace
    DatasetManifest fields.
    """
    manifest = _parse_manifest(path.read_bytes(), path.parent.name)
    changes["block_digests"] = {**manifest.block_digests, **(digests or {})}
    path.write_text(render_manifest(replace(manifest, **changes)))


def random_values(rng: random.Random, k: int, *, max_den: int = 1000) -> list[Fraction]:
    return [
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, max_den)) for _ in range(k)
    ]
