"""The three lagpar workloads.

No production traffic exists for lagpar, so each workload draws its inputs
from the traffic the repository documents; README.md in this directory says
where each distribution comes from.  A workload's ``setup()`` builds fresh
temp stores and restarts its seeded input stream, ``next_pass()`` draws the
inputs of one pass, and ``run_pass()`` sends them through a ``harness.Run``.
Inputs are drawn before a pass starts, never inside a timed interval, and
the same seed always yields the same sequence of passes.

lagpar is called through module attributes (``blocks.encode``, the CLI's
``main``) at call time, so a traced run sees the wrappers installed by
``tracing.instrument``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import lagpar.poly
from lagpar import (
    DeleteBlock,
    FlipByte,
    Point,
    RecoverySet,
    Store,
    blocks,
    inject_fault,
    make_block,
    original_blocks,
)

import oracle
from harness import Run


def random_values(rng: random.Random, k: int, *, max_den: int = 1000) -> list[Fraction]:
    """The acceptance suite's value generator (``random_values`` in tests/conftest.py)."""
    return [
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, max_den)) for _ in range(k)
    ]


def text_bytes(values) -> int:
    """Bytes of the canonical ``num/den`` text of each value, separators excluded."""
    return sum(len(f"{v.numerator}/{v.denominator}") for v in values)


class SetupError(RuntimeError):
    pass


class Stores:
    """A primary/secondary store pair in a fresh temp directory."""

    def __init__(self, workdir: Path):
        self.tmp = Path(tempfile.mkdtemp(prefix="stores-", dir=workdir))
        self.primary = Store(self.tmp / "primary")
        self.secondary = Store(self.tmp / "secondary")
        # both roots always given, so $LAGPAR_ROOT and ./lagpar_stores are never read
        self.flags = [
            "--machine", "--primary", str(self.primary.root),
            "--secondary", str(self.secondary.root),
        ]

    def holding(self, index: int, k: int) -> tuple[str, Store]:
        return ("primary", self.primary) if index < k else ("secondary", self.secondary)

    def dataset_bytes(self, ident: str) -> int:
        return sum(
            path.stat().st_size
            for store in (self.primary, self.secondary)
            for path in store.dataset_dir(ident).iterdir()
        )

    def retire(self, ident: str) -> None:
        """Take a dataset out of both stores.

        The directories are moved aside, not deleted: on ext4, deleting
        thousands of small files makes the file creations that follow spend
        several times longer in the kernel, and by varying amounts.  They
        are deleted with the rest in close(), after the measurement.
        """
        retired = self.tmp / "retired"
        retired.mkdir(exist_ok=True)
        for name, store in (("primary", self.primary), ("secondary", self.secondary)):
            store.dataset_dir(ident).rename(retired / f"{name}-{ident}")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class Workload:
    name = ""
    uses_stores = True

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.stores: Stores | None = None

    def setup(self) -> None:
        """Fresh stores, the input stream restarted from the seed, warm-up done."""
        self.close()
        if self.uses_stores:
            self.stores = Stores(self.workdir)
        self.rng = random.Random(f"{self.name}:{self.seed}")
        warm_up = Run(self.seed)
        self._prepare(warm_up)
        if warm_up.failures:
            raise SetupError("; ".join(warm_up.failures[:3]))

    def close(self) -> None:
        if self.stores is not None:
            self.stores.close()
            self.stores = None

    def _prepare(self, run: Run) -> None:
        raise NotImplementedError

    def next_pass(self) -> list:
        raise NotImplementedError

    def run_pass(self, run: Run, spec: list) -> None:
        raise NotImplementedError

    def _store(self, run: Run, ident: str, values, m: int, context: str) -> None:
        # the --values= form keeps a leading negative value away from argparse,
        # which would take "-1/2,3" for an option (see README.md, known defect)
        argv = [*self.stores.flags, "store", f"--values={oracle.canonical(values)}",
                "--m", str(m), "--id", ident]
        run.cli("write", argv, oracle.stored(ident, len(values), m), context)
        run.count_encoding(self.stores.dataset_bytes(ident), text_bytes(values))

    def _cmd(self, command: str, ident: str) -> list[str]:
        return [*self.stores.flags, command, "--id", ident]


@dataclass(frozen=True)
class DeskCycle:
    ident: str
    values: list
    m: int
    beyond: bool
    faults: tuple  # (block index, "delete" | "flip", position in file as a share)


class DeskMixed(Workload):
    """Desk-scale CLI use: writes beside reads over a fixed working set."""

    name = "desk-mixed"
    WORKING_SET = 100
    HEALTH_EVERY = 10  # cycles per pass; each pass ends with one health
    BEYOND_EVERY = 20  # every 20th dataset loses m + 1 blocks

    def _prepare(self, run: Run) -> None:
        self.counter = 0
        self.live: deque[str] = deque()
        self.flipped: dict[str, dict[str, set[str]]] = {}
        for _ in range(self.WORKING_SET):
            cycle = self._cycle()
            self._store(run, cycle.ident, cycle.values, cycle.m, "preload")
            self.live.append(cycle.ident)
        first = self.live[0]
        run.cli("read", self._cmd("recover", first), lambda r: None, "warm-up")
        run.cli("check", self._cmd("verify", first), lambda r: None, "warm-up")
        run.cli("health", [*self.stores.flags, "health"], lambda r: None, "warm-up")

    def _cycle(self) -> DeskCycle:
        rng = self.rng
        self.counter += 1
        k, m = rng.randint(2, 8), rng.randint(1, 4)
        values = random_values(rng, k)
        beyond = self.counter % self.BEYOND_EVERY == 0
        count = m + 1 if beyond else rng.randint(1, m)
        # the first fault always hits an original, so the recover that follows
        # must reconstruct instead of taking the primary fast path
        first = rng.randrange(k)
        others = rng.sample([i for i in range(k + m) if i != first], count - 1)
        faults = tuple(
            (index, rng.choice(("delete", "flip")), rng.random()) for index in [first, *others]
        )
        return DeskCycle(f"d{self.counter:06d}", values, m, beyond, faults)

    def next_pass(self) -> list[DeskCycle]:
        return [self._cycle() for _ in range(self.HEALTH_EVERY)]

    def run_pass(self, run: Run, spec: list[DeskCycle]) -> None:
        for cycle in spec:
            ident, values, m = cycle.ident, cycle.values, cycle.m
            context = f"dataset={ident} k={len(values)} m={m}"
            self._store(run, ident, values, m, context)
            self.live.append(ident)
            run.cli("read", self._cmd("recover", ident),
                    oracle.recovered(ident, values, "primary"), context)
            flipped = self._damage(cycle)
            if cycle.beyond:
                context += " damaged beyond m"
                run.cli("repair", self._cmd("recover", ident), oracle.failed_with(3), context)
                run.cli("check", self._cmd("verify", ident), oracle.failed_with(3), context)
            else:
                run.cli("repair", self._cmd("recover", ident),
                        oracle.recovered(ident, values, "reconstructed", flipped), context)
                run.cli("check", self._cmd("verify", ident), oracle.verified(ident), context)
            oldest = self.live.popleft()
            self.stores.retire(oldest)
            self.flipped.pop(oldest, None)
        corrupt = {"primary": set(), "secondary": set()}
        for by_store in self.flipped.values():
            for store_name, files in by_store.items():
                corrupt[store_name] |= files
        run.cli("health", [*self.stores.flags, "health"],
                oracle.healthy(self.live, corrupt), f"working set of {len(self.live)}")

    def _damage(self, cycle: DeskCycle) -> list[int]:
        """Apply the cycle's faults (untimed); return the flipped block indices."""
        k = len(cycle.values)
        flipped = []
        for index, kind, share in cycle.faults:
            store_name, store = self.stores.holding(index, k)
            if kind == "delete":
                inject_fault(store, DeleteBlock(cycle.ident, index))
                continue
            size = store.block_path(cycle.ident, index).stat().st_size
            inject_fault(store, FlipByte(cycle.ident, index, int(share * size)))
            files = self.flipped.setdefault(cycle.ident, {}).setdefault(store_name, set())
            files.add(f"{cycle.ident}/block_{index}.plyd")
            flipped.append(index)
        return sorted(flipped)


class WideParity(Workload):
    """Wide k with m = k: exact interpolation outweighs file I/O."""

    name = "wide-parity"
    KS = (24, 32, 40)

    def _prepare(self, run: Run) -> None:
        self.counter = 0
        self._cycle(run, "warm-up", random_values(self.rng, 4))

    def next_pass(self) -> list[tuple[str, list]]:
        spec = []
        for k in self.KS:
            self.counter += 1
            spec.append((f"w{self.counter:05d}", random_values(self.rng, k)))
        return spec

    def run_pass(self, run: Run, spec) -> None:
        for ident, values in spec:
            self._cycle(run, ident, values)

    def _cycle(self, run: Run, ident: str, values: list) -> None:
        k = len(values)
        context = f"dataset={ident} k={k} m={k}"
        self._store(run, ident, values, k, context)
        run.cli("read", self._cmd("recover", ident),
                oracle.recovered(ident, values, "primary"), context)
        run.cli("check", self._cmd("verify", ident), oracle.verified(ident), context)
        for index in range(k):
            inject_fault(self.stores.primary, DeleteBlock(ident, index))
        run.cli("repair", self._cmd("recover", ident),
                oracle.recovered(ident, values, "reconstructed"), context + " parity only")
        self.stores.retire(ident)


@dataclass(frozen=True)
class LocateCase:
    n: int
    values: list
    corrupted: tuple
    deltas: tuple
    poly: object  # the true polynomial, drawn only for a traced run


class LocateCorrupt(Workload):
    """Library-only corruption location: no file I/O at all."""

    name = "locate-corrupt"
    uses_stores = False
    # every (n, k, e) with n in {10, 11} blocks, e in {1, 2, 3} corrupted and
    # n >= k + 2e, so the max-agreement answer is unique; one pass runs
    # each once.  At n = 12 a single call takes up to a second, and a pass over
    # all n <= 12 would last 11 s, too coarse a unit for a 30 s run.
    CONFIGS = tuple(
        (n, k, e)
        for e in (1, 2, 3)
        for n in (10, 11)
        for k in range(1, n - 2 * e + 1)
    )

    def _prepare(self, run: Run) -> None:
        self.run_pass(run, [self._case(8, 4, 2)])

    def _case(self, n: int, k: int, e: int) -> LocateCase:
        rng = self.rng
        values = random_values(rng, k)
        corrupted = tuple(sorted(rng.sample(range(n), e)))
        deltas = tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in corrupted
        )
        poly = None
        if self.trace:
            poly = lagpar.poly.interpolate([Point(Fraction(i), v) for i, v in enumerate(values)])
        return LocateCase(n, values, corrupted, deltas, poly)

    def next_pass(self) -> list[LocateCase]:
        return [self._case(*config) for config in self.CONFIGS]

    def run_pass(self, run: Run, spec: list[LocateCase]) -> None:
        ident = "locate"
        for case in spec:
            values, n, k = case.values, case.n, len(case.values)
            context = f"n={n} k={k} corrupted={list(case.corrupted)}"
            parity = run.call("write", lambda: blocks.encode(values, n - k, ident),
                              oracle.parity_of(values, n), context)
            if isinstance(parity, Exception):
                continue
            clean = [*original_blocks(values, ident), *parity]
            run.count_encoding(text_bytes(b.value for b in clean), text_bytes(values))
            clean_set = RecoverySet(tuple(clean), k)
            run.call("read", lambda: blocks.recover(clean_set), oracle.equal_values(values), context)
            damaged = list(clean)
            for index, delta in zip(case.corrupted, case.deltas):
                damaged[index] = make_block(index, damaged[index].value + delta, k, ident)
            damaged_set = RecoverySet(tuple(damaged), k)
            run.call("check", lambda: blocks.verify(damaged_set),
                     oracle.residuals_of([b.value for b in damaged], k), context)
            if run.tracer is not None:
                run.tracer.expected_poly = case.poly
            run.call("repair", lambda: blocks.locate_corruption(damaged_set),
                     oracle.located(values, case.corrupted), context)


WORKLOADS = {cls.name: cls for cls in (DeskMixed, WideParity, LocateCorrupt)}
