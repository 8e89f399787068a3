"""Run one lagpar benchmark workload and print its metrics as one JSON line.

    python3 lagbench/run.py --workload desk-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the benchmark imports lagpar from ./src
and nothing else.  One process, one thread, one client in a closed loop:
each operation starts when the previous one has returned.  With --trace 0
the last line carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run (see tracing.py).  Human-readable lines
(conditions, sample counts, failed operations) come before it.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"  # temp stores live here, inside the checkout, and are removed
OUT = HERE / "_out"  # span dumps of traced runs

SETUP_REPEATS = 5
MIN_SAMPLES = 100  # per timed slot, so that p90 has ten samples beyond it
DEADLINE_S = 140  # stop extending a run past this, whatever the sample count

END_TO_END = {
    "setup_s": "s",
    "write_ms_mean": "ms",
    "write_ms_p90": "ms",
    "read_ms_mean": "ms",
    "read_ms_p90": "ms",
    "repair_ms_mean": "ms",
    "repair_ms_p90": "ms",
    "check_ms_mean": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "encoded_bytes_per_user_byte": "ratio",
}

PER_LAYER = {
    "cli.main.self_ms": "ms",
    "cli.build_parser.ms": "ms",
    "cli.import_ms": "ms",
    "storage.recover_dataset.self_ms": "ms",
    "storage.recover_dataset.useful_read_share": "ratio",
    "storage.files_read_per_op": "count",
    "storage.block_digest.calls_per_op": "count",
    "storage.block_digest.ms": "ms",
    "storage.health_check.self_ms": "ms",
    "storage.store_dataset.self_ms": "ms",
    "storage.files_written_per_op": "count",
    "storage.collect_recovery_set.self_ms": "ms",
    "blocks.encode.self_ms": "ms",
    "blocks.recover.self_ms": "ms",
    "blocks.verify.self_ms": "ms",
    "blocks.locate_corruption.self_ms": "ms",
    "blocks.locate_corruption.interpolations_per_call": "count",
    "blocks.locate_corruption.useful_share": "ratio",
    "poly.interpolate.self_ms": "ms",
    "poly.interpolate.calls_per_op": "count",
    "poly.evaluate.self_ms": "ms",
    "poly.evaluate.calls_per_op": "count",
    "rationals.parse_rational.self_ms": "ms",
    "rationals.parse_rational.calls_per_op": "count",
    "rationals.format_rational.self_ms": "ms",
    "rationals.parse_user_rational.self_ms": "ms",
    "trace.overhead_ms_per_op": "ms",
    "trace.overhead_share": "ratio",
}


def import_lagpar() -> None:
    """Put the checkout's src/ first on the path; refuse any other lagpar.

    The benchmark's other modules import lagpar, so they are imported only
    after this has run.
    """
    if not (SRC / "lagpar" / "__init__.py").is_file():
        raise SystemExit(f"error: no lagpar sources under {SRC}; run from a lagpar checkout")
    sys.path.insert(0, str(SRC))
    import lagpar

    if SRC.resolve() not in Path(lagpar.__file__).resolve().parents:
        raise SystemExit(f"error: imported lagpar from {lagpar.__file__}, not from {SRC}")


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding path, from the mount table."""
    best, fstype = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            mount_point = fields[1].replace("\\040", " ")
            if str(path).startswith(mount_point.rstrip("/") + "/") and len(mount_point) > len(best):
                best, fstype = mount_point, fields[2]
    return fstype


# ext4 inode flags (linux/fs.h); "chattr +T" sets the same flag
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_runs(path: Path) -> str:
    """Mark path as a top of directory hierarchies, so each run's directory lands apart.

    On ext4 without a journal, every inode allocation walks past each free
    inode of its block group that was freed in the last minute (five while
    its inode table block is dirty).  The previous run deleted tens of
    thousands of files on its way out, so a run that allocates in the same
    group spends up to 20 times longer in the kernel per file it creates, by
    an amount that follows how much the previous runs deleted, and when.
    With this flag on path, ext4 places each new directory under it in a
    block group of its own choosing, the way it places the directories under
    the file-system root (the Orlov allocator), away from the inodes earlier
    runs freed.  A file system without the flag is left as it is; the
    conditions line says which.
    """
    flags = array.array("i", [0])
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return "unsupported"
    try:
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        if not flags[0] & FS_TOPDIR_FL:
            flags[0] |= FS_TOPDIR_FL
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
            fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
    except OSError:
        return "unsupported"
    finally:
        os.close(fd)
    return "topdir" if flags[0] & FS_TOPDIR_FL else "unsupported"


def cold_import_ms(repeats: int = 5) -> float:
    """Median wall time of ``import lagpar.cli`` in a fresh interpreter, less a bare start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, cli = [], []
    for _ in range(repeats):
        for code, out in (("pass", bare), ("import lagpar.cli", cli)):
            start = perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            out.append(perf_counter_ns() - start)
    return (statistics.median(cli) - statistics.median(bare)) / 1e6


def timed_setup(workload) -> float:
    """Host-normalised seconds of one set-up (see harness.py)."""
    from harness import normalise, probe_ns

    before = probe_ns()
    start = perf_counter_ns()
    workload.setup()
    elapsed = perf_counter_ns() - start
    return normalise(elapsed, before, probe_ns()) / 1e9


def drive(workload, run, seconds: float, min_samples: int, deadline: float, setups=None) -> int:
    """Run whole passes until `seconds` have passed and every slot has enough samples.

    When `setups` is given, it holds the time of the workload's own set-up,
    and it grows to SETUP_REPEATS by timing the set-up of a throwaway twin
    at evenly spaced points of the run.  A shared host's speed can swing by
    half within seconds, so set-ups timed back to back would all land in the
    same swing.
    """
    from harness import SLOTS

    start = perf_counter()
    passes = 0
    twins = []  # their stores are deleted after the run, for the reason in Stores.retire
    try:
        while True:
            workload.run_pass(run, workload.next_pass())
            passes += 1
            elapsed = perf_counter() - start
            while setups is not None and len(setups) < SETUP_REPEATS and (
                elapsed >= seconds * len(setups) / SETUP_REPEATS
            ):
                twins.append(type(workload)(workload.seed, workload.workdir))
                setups.append(timed_setup(twins[-1]))
            done = elapsed >= seconds and all(
                len(run.samples[slot]) >= min_samples for slot in SLOTS
            )
            if done or perf_counter() >= deadline:
                return passes
    finally:
        for twin in twins:
            twin.close()


def end_to_end(run, setup_times) -> dict[str, float]:
    """Mean and p90 host-normalised latency per slot, and the run-wide figures.

    The mean stands in for the median: the latency of a narrow operation is
    bimodal on a host whose speed swings, and the median then jumps between
    the modes from run to run while the mean moves smoothly (README.md).
    """
    from harness import REFERENCE_PROBE_NS, SLOTS, percentile

    run.probe()
    metrics = {"setup_s": statistics.median(setup_times)}
    total = 0.0
    for slot in run.samples:
        times = run.normalised(slot)
        total += sum(times)
        if slot not in SLOTS:
            continue
        metrics[f"{slot}_ms_mean"] = statistics.fmean(times) / 1e6
        if slot == "check":
            continue
        p90 = percentile(times, 90)
        if p90 is None:
            raise RuntimeError(
                f"{len(times)} {slot} samples cannot support p90; the run ended at its deadline"
            )
        metrics[f"{slot}_ms_p90"] = p90 / 1e6
    metrics["ops_per_s"] = run.op_count / (total / 1e9)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["encoded_bytes_per_user_byte"] = run.encoded_bytes / run.user_bytes
    raw = " ".join(
        f"{slot}_ms_mean={statistics.fmean(run.samples[slot]) / 1e6:.4f}" for slot in SLOTS
    )
    slowdown = statistics.median(run.probes) / REFERENCE_PROBE_NS
    print(f"unnormalised {raw} host_slowdown_median={slowdown:.3f} probes={len(run.probes)}")
    return metrics


def trace_sanity(tracer) -> list[str]:
    """Self times are never negative and, per operation, add up to its span."""
    own = tracer.self_times()
    problems = []
    if own and min(own) < 0:
        problems.append(f"trace: negative self time {min(own)} ns")
    per_op: dict[int, int] = {}
    root: dict[int, int] = {}
    for index, self_ns in enumerate(own):
        op = tracer.op[index]
        per_op[op] = per_op.get(op, 0) + self_ns
        if tracer.parent[index] < 0:
            root[op] = tracer.end[index] - tracer.start[index]
    if per_op != root:
        problems.append("trace: self times do not add up to their operation spans")
    return problems


def measure(args, workdir: Path, placement: str, deadline: float) -> dict:
    from harness import Run, SLOTS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir, trace=bool(args.trace))
    setup_times = [timed_setup(workload)]
    print(
        f"conditions fs={filesystem_of(workdir)} run_dir_placement={placement} "
        f"lagpar_fsync=none bench_fsync=none "
        f"caches=not-dropped latency=page-cache threads=1 clients=1 loop=closed"
    )
    try:
        if not args.trace:
            run = Run(args.seed)
            passes = drive(workload, run, args.seconds, MIN_SAMPLES, deadline, setup_times)
            runs, metrics, problems = [run], end_to_end(run, setup_times), []
        else:
            runs, metrics, problems, passes = traced(args, workload, deadline)
    finally:
        workload.close()
    run = runs[-1]
    counts = " ".join(f"{slot}={len(run.samples[slot])}" for slot in (*SLOTS, "health"))
    print(f"samples passes={passes} {counts}")
    failures = [f for r in runs for f in r.failures] + problems
    for line in failures[:20]:
        print(f"FAILED {line}")
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in runs),
        "failed": len(failures),
        "metrics": metrics,
    }


def traced(args, workload, deadline: float):
    """Per-layer metrics, and the overhead of tracing them.

    A twin of the workload, set up from the same seed, runs each pass traced
    right after the workload runs it untraced, so that both see the same
    inputs and the same drift of host speed.
    """
    from harness import Run
    from tracing import Tracer, instrument, per_layer
    from workloads import WORKLOADS

    import_ms = cold_import_ms()
    tracer = Tracer()
    base, run = Run(args.seed), Run(args.seed, tracer)
    twin = WORKLOADS[args.workload](args.seed, workload.workdir, trace=True)
    start = perf_counter()
    passes = 0
    try:
        twin.setup()
        while perf_counter() - start < args.seconds and perf_counter() < deadline:
            spec, twin_spec = workload.next_pass(), twin.next_pass()
            workload.run_pass(base, spec)
            with instrument(tracer):
                twin.run_pass(run, twin_spec)
            passes += 1
    finally:
        twin.close()
    metrics = per_layer(tracer)
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_ms_per_op"] = (run.op_ns - base.op_ns) / run.op_count / 1e6
    metrics["trace.overhead_share"] = run.op_ns / base.op_ns - 1
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    return [base, run], metrics, trace_sanity(tracer), passes


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-mixed", "wide-parity", "locate-corrupt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_lagpar()

    WORK.mkdir(parents=True, exist_ok=True)
    placement = spread_runs(WORK)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = measure(args, workdir, placement, started + DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
