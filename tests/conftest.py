import os
import random
from fractions import Fraction

import pytest

from lagpar import Store


def pytest_configure(config):
    """Let subprocesses that run `python -m lagpar` import this checkout too."""
    paths = (str(config.rootpath / "src"), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


@pytest.fixture
def store_pair(tmp_path):
    """Fresh primary/secondary store roots under one temp directory."""
    return Store(tmp_path / "primary"), Store(tmp_path / "secondary")


def random_values(rng: random.Random, k: int, *, max_den: int = 1000) -> list[Fraction]:
    return [
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, max_den)) for _ in range(k)
    ]
