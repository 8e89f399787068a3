"""Timing, outcome bookkeeping and percentiles for one benchmark run.

Every operation a workload performs goes through :class:`Run`, which times
exactly the call into lagpar, then hands the outcome to an oracle check
outside the timed interval.  A check returns ``None`` when the outcome is
exactly the expected one and a short description otherwise.

Host-normalised time.  On a shared host the speed of one thread can swing
by half within seconds, and a 30 s run catches a different mix of fast and
slow spells every time.  So between operations, at most every 200 ms, the
run times a fixed pure-Python probe (exact Fraction arithmetic, the same
kind of work lagpar does).  Each operation's wall time is scaled by
``REFERENCE_PROBE_NS`` over the mean of the probes taken just before and
just after it: the figure is the time the operation would have taken with
the host at the reference speed.  The probe is the benchmark's own code,
so a change to lagpar cannot move it.
"""

from __future__ import annotations

import io
import math
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter_ns
from typing import Any, Callable

import lagpar.cli

Check = Callable[[Any], "str | None"]

SLOTS = ("write", "read", "repair", "check")

PROBE_EVERY_NS = 200_000_000
# the probe's time with the host unhurried: the fastest tenth of probes on
# an Intel Xeon guest with 2 vCPUs and Python 3.11
REFERENCE_PROBE_NS = 800_000


def probe_ns() -> int:
    """Fastest of three timings of a fixed exact-arithmetic computation."""
    best = None
    for _ in range(3):
        start = perf_counter_ns()
        x = Fraction(1)
        for i in range(1, 200):
            x = x * Fraction(i, i + 1) + Fraction(1, i)
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def normalise(elapsed_ns: int, probe_before: int, probe_after: int) -> float:
    """Wall time scaled to the reference host speed."""
    return elapsed_ns * 2 * REFERENCE_PROBE_NS / (probe_before + probe_after)


def percentile(samples, q: float):
    """The q-th percentile by nearest rank, or None when fewer than 10 samples lie above it.

    A tail figure resting on fewer than ten slower samples says more about
    one outlier than about the distribution, so it is not reported.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


class Run:
    """Closed-loop, single-client record of timed operations and their outcomes."""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        # raw wall time per operation, and the index of the probe taken before it
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._probe_index: dict[str, list[int]] = defaultdict(list)
        self.probes = [probe_ns()]
        self._probed_at = perf_counter_ns()
        self.attempted = 0
        self.failures: list[str] = []
        self.encoded_bytes = 0
        self.user_bytes = 0

    def cli(self, slot: str, argv: list[str], check: Check, context: str) -> tuple:
        """Run ``lagpar.cli.main(argv)`` in-process as one timed operation."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self._timed(slot, lambda: lagpar.cli.main(argv))
        result = rc if isinstance(rc, Exception) else (rc, out.getvalue())
        self._judge(slot, check, result, context)
        return result

    def call(self, slot: str, fn: Callable[[], Any], check: Check, context: str) -> Any:
        """Run one library call as one timed operation."""
        result = self._timed(slot, fn)
        self._judge(slot, check, result, context)
        return result

    def _timed(self, slot: str, fn: Callable[[], Any]) -> Any:
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(slot)
        start = perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:  # a raised error is an outcome the oracle judges
            result = exc
        elapsed = perf_counter_ns() - start
        if tracer is not None:
            tracer.finish()
        self.samples[slot].append(elapsed)
        self._probe_index[slot].append(len(self.probes) - 1)
        if perf_counter_ns() - self._probed_at >= PROBE_EVERY_NS:
            self.probe()
        return result

    def probe(self) -> None:
        self.probes.append(probe_ns())
        self._probed_at = perf_counter_ns()

    def normalised(self, slot: str) -> list[float]:
        """Host-normalised times of a slot; call after a closing probe()."""
        last = len(self.probes) - 1
        return [
            normalise(ns, self.probes[i], self.probes[min(i + 1, last)])
            for ns, i in zip(self.samples[slot], self._probe_index[slot])
        ]

    def _judge(self, slot: str, check: Check, result: Any, context: str) -> None:
        if isinstance(result, Exception):
            detail = f"raised {type(result).__name__}: {result}"
        else:
            try:
                detail = check(result)
            except Exception as exc:  # malformed output is a wrong outcome, not a crash
                detail = f"unparseable outcome ({type(exc).__name__}: {exc})"
        if detail is not None:
            self.failures.append(f"op={slot} seed={self.seed} {context}: {detail}")

    def count_encoding(self, encoded: int, user: int) -> None:
        self.encoded_bytes += encoded
        self.user_bytes += user

    @property
    def op_ns(self) -> int:
        return sum(sum(v) for v in self.samples.values())

    @property
    def op_count(self) -> int:
        return sum(len(v) for v in self.samples.values())
