"""Per-layer spans for the traced run, recorded from outside the program.

:func:`instrument` replaces public lagpar functions with wrappers in the
module namespace where their callers look them up, and restores them on
exit; nothing under ``src/`` is edited and no wrapper exists in an untraced
run.  Each span keeps its name, start, end, parent span and operation id in
flat in-memory arrays that are written out once, after the run.

Self time is a span's duration minus the durations of its direct children.
Calls nest strictly in this single-threaded loop, so the children never
overlap and the self times of a span and all its descendants sum to the
span's duration.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pathlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module where the caller looks the name up, attribute, span name)
WRAPPED = (
    ("lagpar.cli", "main", "cli.main"),
    ("lagpar.cli", "build_parser", "cli.build_parser"),
    ("lagpar.cli", "store_dataset", "storage.store_dataset"),
    ("lagpar.cli", "recover_dataset", "storage.recover_dataset"),
    ("lagpar.cli", "collect_recovery_set", "storage.collect_recovery_set"),
    ("lagpar.cli", "health_check", "storage.health_check"),
    ("lagpar.cli", "verify", "blocks.verify"),
    ("lagpar.cli", "parse_user_rational", "rationals.parse_user_rational"),
    ("lagpar.cli", "format_rational", "rationals.format_rational"),
    ("lagpar.storage", "encode", "blocks.encode"),
    ("lagpar.storage", "recover", "blocks.recover"),
    ("lagpar.storage", "locate_corruption", "blocks.locate_corruption"),
    ("lagpar.storage", "block_digest", "storage.block_digest"),
    ("lagpar.storage", "parse_rational", "rationals.parse_rational"),
    ("lagpar.storage", "format_rational", "rationals.format_rational"),
    ("lagpar.blocks", "encode", "blocks.encode"),
    ("lagpar.blocks", "recover", "blocks.recover"),
    ("lagpar.blocks", "verify", "blocks.verify"),
    ("lagpar.blocks", "locate_corruption", "blocks.locate_corruption"),
    ("lagpar.blocks", "interpolate", "poly.interpolate"),
    ("lagpar.blocks", "evaluate", "poly.evaluate"),
    ("lagpar.poly", "evaluate", "poly.evaluate"),
    ("lagpar.rationals", "format_rational", "rationals.format_rational"),
)

LOCATE = "blocks.locate_corruption"
RECOVER_DATASET = "storage.recover_dataset"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._op_id = 0
        self.counts: Counter = Counter()
        # the polynomial a locate_corruption call should find, set per operation
        self.expected_poly = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> None:
        nid = self._id(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(-1)
        self._stack.append(len(self.start))
        self._open[nid] += 1
        self.start.append(perf_counter_ns())

    def finish(self) -> None:
        now = perf_counter_ns()
        index = self._stack.pop()
        self.end[index] = now
        self._open[self.name[index]] -= 1

    def begin_op(self, slot: str) -> None:
        """Open the root span of one timed operation; close it with finish()."""
        self._op_id += 1
        self.begin(f"op.{slot}")

    def within(self, name: str) -> bool:
        return self._open[self._ids.get(name, -1)] > 0

    @property
    def in_op(self) -> bool:
        return bool(self._stack)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- hooks that count work at the boundary where it happens ------------

    def _interpolated(self, poly) -> None:
        if self.within(LOCATE):
            self.counts["locate.interpolations"] += 1
            if poly == self.expected_poly:
                self.counts["locate.useful_interpolations"] += 1

    def _recovered(self, result) -> None:
        self.counts["recover_dataset.useful_blocks"] += len(result.values)

    def _file_read(self, path: pathlib.Path) -> None:
        if self.in_op:
            self.counts["files_read"] += 1
            if path.suffix == ".plyd" and self.within(RECOVER_DATASET):
                self.counts["recover_dataset.block_files_read"] += 1

    def _file_written(self) -> None:
        if self.in_op:
            self.counts["files_written"] += 1

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span, indexed like the span arrays."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def totals(self):
        """Per span name: (calls, total duration ns, total self ns)."""
        calls, dur, own = Counter(), Counter(), Counter()
        for index, self_ns in enumerate(self.self_times()):
            name = self.names[self.name[index]]
            calls[name] += 1
            dur[name] += self.end[index] - self.start[index]
            own[name] += self_ns
        return calls, dur, own

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.op[index]}\t{self.parent[index]}\t"
                    f"{self.names[self.name[index]]}\t{self.start[index]}\t{self.end[index]}\n"
                )


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block.

    A name that a later version of lagpar no longer defines is skipped, so
    the same benchmark runs on both sides of a refactor; its metrics read 0.
    """
    hooks = {
        "poly.interpolate": tracer._interpolated,
        RECOVER_DATASET: tracer._recovered,
    }
    wrappers: dict[int, object] = {}
    saved = []
    try:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            key = id(original)
            if key not in wrappers:
                wrappers[key] = tracer.wrap(span, original, hooks.get(span))
            saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])
        read_bytes, write_bytes = pathlib.Path.read_bytes, pathlib.Path.write_bytes

        def counted_read(path):
            tracer._file_read(path)
            return read_bytes(path)

        def counted_write(path, data):
            tracer._file_written()
            return write_bytes(path, data)

        saved += [(pathlib.Path, "read_bytes", read_bytes), (pathlib.Path, "write_bytes", write_bytes)]
        pathlib.Path.read_bytes, pathlib.Path.write_bytes = counted_read, counted_write
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced phase."""
    calls, dur, own = tracer.totals()
    ops = sum(n for name, n in calls.items() if name.startswith("op."))
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def self_ms(name):
        return ratio(own[name], ops) / 1e6

    def per_call_ms(name):
        return ratio(dur[name], calls[name]) / 1e6

    return {
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.build_parser.ms": per_call_ms("cli.build_parser"),
        "storage.recover_dataset.self_ms": self_ms(RECOVER_DATASET),
        "storage.recover_dataset.useful_read_share": ratio(
            counts["recover_dataset.useful_blocks"], counts["recover_dataset.block_files_read"]
        ),
        "storage.files_read_per_op": ratio(counts["files_read"], ops),
        "storage.block_digest.calls_per_op": ratio(calls["storage.block_digest"], ops),
        "storage.block_digest.ms": per_call_ms("storage.block_digest"),
        "storage.health_check.self_ms": self_ms("storage.health_check"),
        "storage.store_dataset.self_ms": self_ms("storage.store_dataset"),
        "storage.files_written_per_op": ratio(counts["files_written"], ops),
        "storage.collect_recovery_set.self_ms": self_ms("storage.collect_recovery_set"),
        "blocks.encode.self_ms": self_ms("blocks.encode"),
        "blocks.recover.self_ms": self_ms("blocks.recover"),
        "blocks.verify.self_ms": self_ms("blocks.verify"),
        "blocks.locate_corruption.self_ms": self_ms(LOCATE),
        "blocks.locate_corruption.interpolations_per_call": ratio(
            counts["locate.interpolations"], calls[LOCATE]
        ),
        "blocks.locate_corruption.useful_share": ratio(
            counts["locate.useful_interpolations"], counts["locate.interpolations"]
        ),
        "poly.interpolate.self_ms": self_ms("poly.interpolate"),
        "poly.interpolate.calls_per_op": ratio(calls["poly.interpolate"], ops),
        "poly.evaluate.self_ms": self_ms("poly.evaluate"),
        "poly.evaluate.calls_per_op": ratio(calls["poly.evaluate"], ops),
        "rationals.parse_rational.self_ms": self_ms("rationals.parse_rational"),
        "rationals.parse_rational.calls_per_op": ratio(calls["rationals.parse_rational"], ops),
        "rationals.format_rational.self_ms": self_ms("rationals.format_rational"),
        "rationals.parse_user_rational.self_ms": self_ms("rationals.parse_user_rational"),
    }
