"""Self-test of the benchmark's own machinery.

    python3 lagbench/selftest.py

Checks the percentile rule, that the oracle counts wrong outcomes as
failures, that traced self times are sound, that BENCHMARK.json names the
metrics run.py prints, that the run directory's placement flag is set or
reported as unsupported, and that one short pass of each workload comes out
exact against the lagpar in ./src.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
import unittest
from fractions import Fraction as F
from pathlib import Path

import run as bench

bench.import_lagpar()

import lagpar.blocks  # noqa: E402
import oracle  # noqa: E402
from harness import Run, percentile  # noqa: E402
from lagpar import CorrectionResult, VerifyReport  # noqa: E402
from tracing import Tracer, instrument, per_layer  # noqa: E402
from workloads import DeskMixed, LocateCorrupt, WideParity  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(percentile(list(range(1, 101)), 90), 90)
        self.assertIsNone(percentile(list(range(1, 100)), 90))
        self.assertIsNone(percentile([], 50))

    def test_unsorted_input(self):
        samples = list(range(200, 0, -1))
        self.assertEqual(percentile(samples, 50), 100)


class OracleTest(unittest.TestCase):
    def judge(self, outcome, check):
        run = Run(seed=7)
        run.call("repair", lambda: outcome, check, "self-test")
        return run

    def test_exact_recovery_passes(self):
        out = (0, "result dataset=x values=-1/2,3/1 provenance=primary suspects=\n")
        run = self.judge(out, oracle.recovered("x", [F(-1, 2), F(3)], "primary"))
        self.assertEqual(run.failures, [])
        self.assertEqual(run.attempted, 1)

    def test_wrong_recovered_value_is_a_failure(self):
        out = (0, "result dataset=x values=-1/2,4/1 provenance=primary suspects=\n")
        run = self.judge(out, oracle.recovered("x", [F(-1, 2), F(3)], "primary"))
        self.assertEqual(len(run.failures), 1)
        self.assertIn("op=repair seed=7", run.failures[0])

    def test_wrong_suspect_list_is_a_failure(self):
        outcome = CorrectionResult(recovered=(F(1), F(2)), suspects=(0,))
        run = self.judge(outcome, oracle.located([F(1), F(2)], (3,)))
        self.assertEqual(len(run.failures), 1)

    def test_values_printed_beyond_threshold_is_a_failure(self):
        out = (3, "result dataset=x values=1/1 provenance=reconstructed suspects=\n")
        self.assertEqual(len(self.judge(out, oracle.failed_with(3)).failures), 1)
        self.assertEqual(self.judge((3, ""), oracle.failed_with(3)).failures, [])

    def test_health_flags_exactly_the_flipped_files(self):
        out = (0, "health store=primary reachable=true datasets=a,b corrupt=a/block_0.plyd\n"
                  "health store=secondary reachable=true datasets=a,b corrupt=\n")
        want = {"primary": {"a/block_0.plyd"}, "secondary": set()}
        self.assertEqual(self.judge(out, oracle.healthy(["a", "b"], want)).failures, [])
        want["secondary"] = {"b/block_3.plyd"}
        self.assertEqual(len(self.judge(out, oracle.healthy(["a", "b"], want)).failures), 1)

    def test_raised_error_and_garbled_output_are_failures(self):
        run = Run(seed=1)
        run.call("read", lambda: 1 / 0, oracle.equal_values([F(1)]), "self-test")
        run.call("read", lambda: (0, "not a kv line!\n"), oracle.verified("x"), "self-test")
        self.assertEqual(len(run.failures), 2)

    def test_residuals_from_independent_interpolation(self):
        values = [F(0), F(1), F(2), F(3), F(99)]  # the line y = x, with block 4 off it
        check = oracle.residuals_of(values, 2)
        self.assertIsNone(check(VerifyReport(consistent=False, residual_indices=(4,))))
        self.assertIsNotNone(check(VerifyReport(consistent=False, residual_indices=(3, 4))))


def _busy(ns):
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


class TracingTest(unittest.TestCase):
    def test_self_times_are_sound(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: _busy(200_000))

        def middle():
            _busy(100_000)
            leaf()
            leaf()

        middle = tracer.wrap("middle", middle)
        for _ in range(3):
            tracer.begin_op("read")
            middle()
            leaf()
            tracer.finish()
        own = tracer.self_times()
        self.assertTrue(all(ns >= 0 for ns in own))
        self.assertEqual(bench.trace_sanity(tracer), [])
        for index, parent in enumerate(tracer.parent):
            if parent < 0:
                subtree = [i for i in range(len(own)) if tracer.op[i] == tracer.op[index]]
                self.assertEqual(sum(own[i] for i in subtree), tracer.end[index] - tracer.start[index])
        calls, _, _ = tracer.totals()
        self.assertEqual(calls["leaf"], 9)

    def test_instrument_restores_originals(self):
        before = lagpar.blocks.interpolate
        with instrument(Tracer()):
            self.assertIsNot(lagpar.blocks.interpolate, before)
        self.assertIs(lagpar.blocks.interpolate, before)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, table)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         {DeskMixed.name, WideParity.name, LocateCorrupt.name})


class PlacementTest(unittest.TestCase):
    def test_flag_is_set_or_reported_unsupported(self):
        bench.WORK.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(dir=bench.WORK))
        try:
            placement = bench.spread_runs(path)
            self.assertIn(placement, ("topdir", "unsupported"))
            if placement == "topdir":
                self.assertEqual(bench.spread_runs(path), "topdir")
        finally:
            shutil.rmtree(path)
        self.assertEqual(bench.spread_runs(path), "unsupported")


class WorkloadSmokeTest(unittest.TestCase):
    """One short pass of each workload is exact, traced and untraced."""

    def setUp(self):
        bench.WORK.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=bench.WORK))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def exercise(self, workload, spec):
        try:
            workload.setup()
            run = Run(seed=3)
            workload.run_pass(run, spec(workload))
            tracer = Tracer()
            traced = Run(seed=3, tracer=tracer)
            with instrument(tracer):
                workload.run_pass(traced, spec(workload))
        finally:
            workload.close()
        self.assertEqual(run.failures + traced.failures, [])
        self.assertEqual(bench.trace_sanity(tracer), [])
        return per_layer(tracer)

    def test_desk_mixed(self):
        layers = self.exercise(DeskMixed(3, self.workdir), lambda w: w.next_pass())
        self.assertGreater(layers["storage.files_read_per_op"], 0)

    def test_wide_parity(self):
        workload = WideParity(3, self.workdir)
        workload.KS = (6,)
        layers = self.exercise(workload, lambda w: w.next_pass())
        self.assertGreater(layers["poly.interpolate.calls_per_op"], 0)

    def test_locate_corrupt(self):
        workload = LocateCorrupt(3, self.workdir, trace=True)
        layers = self.exercise(workload, lambda w: [w._case(7, 3, 2), w._case(9, 5, 1)])
        self.assertGreater(layers["blocks.locate_corruption.useful_share"], 0)


if __name__ == "__main__":
    unittest.main()
