"""Benchmark of the repro package: real campaign cells, end to end and by layer.

Runs one workload (see ``workloads.py``) in this process, inline, with
no worker pool, and prints every metric by name with its unit.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bandwidth_cell --seed 3 \
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half with layer spans
installed (``tracing.py``) and reports the per-layer metrics.  Every
iteration's outputs are digested and compared with the reference for
(workload, seed) in ``reference_digests.json`` (or, for a seed with no
reference, with the first iteration's); a mismatch, a raised error or a
failed trace check makes the run exit 1.
"""

from __future__ import annotations

import time

#: Interpreter start, as near as this script gets: ``setup_s`` counts
#: from here, like ``setup_probe.py``.
START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

import harness  # noqa: E402

#: ``setup_s``/``first_wall_s`` samples per run: this process plus
#: ``SETUP_PROBES - 1`` fresh interpreters.
SETUP_PROBES = 3

#: Iterations every measured phase runs even when ``--seconds`` is up.
MIN_ITERATIONS = 3

#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

#: statfs ``f_type`` magic numbers of the filesystems worth naming.
FS_MAGIC = {
    0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x58465342: "xfs",
    0x9123683E: "btrfs", 0x794C7630: "overlayfs", 0x6969: "nfs",
    0x2FC12FC1: "zfs", 0x01021997: "9p", 0x65735546: "fuse",
}


class BenchmarkFailure(Exception):
    """A traced iteration in which an expected layer never ran."""


# --------------------------------------------------------------------- #
# Environment block.
# --------------------------------------------------------------------- #

def filesystem_type(path: str) -> str:
    """The filesystem holding ``path``, from statfs's ``f_type``."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
    buffer = ctypes.create_string_buffer(256)
    if libc.statfs(os.fsencode(path), buffer) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buffer).value & 0xFFFFFFFF
    return FS_MAGIC.get(magic, hex(magic))


def source_commit() -> Optional[str]:
    """The checkout's git commit, when it is a git work tree."""
    if not (harness.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(harness.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over ``src/repro``'s Python files (names and contents)."""
    sha = hashlib.sha256()
    for path in sorted((harness.SRC / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(harness.SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def environment(workload: Any, workdir: str) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "store_fs": filesystem_type(workdir),
        "workload": workload.name,
        "seed": workload.seed,
        "inputs": workload.inputs(),
    }


# --------------------------------------------------------------------- #
# Measurement.
# --------------------------------------------------------------------- #

class Checker:
    """Counts iterations and compares each output digest to a reference."""

    def __init__(self, workload: str, seed: int) -> None:
        self.reference = harness.reference_digest(workload, seed)
        self.recorded = self.reference is not None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, digest: str) -> None:
        self.attempted += 1
        if self.reference is None:
            # No recorded reference for this seed: the first iteration
            # becomes it, so every later one must reproduce it exactly.
            self.reference = digest
        if digest != self.reference:
            self.fail(f"output digest {digest[:16]} != reference "
                      f"{self.reference[:16]}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def attempt(self, fn: Callable[[], harness.Iteration]
                ) -> Optional[harness.Iteration]:
        """Run one iteration; a raised error counts as a failure."""
        try:
            iteration = fn()
        except Exception as exc:  # noqa: BLE001 - reported, then stop
            self.attempted += 1
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.check(iteration.digest)
        return iteration


def loop(seconds: float, checker: Checker,
         fn: Callable[[], harness.Iteration]) -> List[harness.Iteration]:
    """Iterations for ``seconds`` (at least :data:`MIN_ITERATIONS`).

    Each starts after a full collection, so no iteration pays for the
    garbage of the one before it.  The loop stops at the first failure.
    """
    done: List[harness.Iteration] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(done) < MIN_ITERATIONS:
        gc.collect()
        iteration = checker.attempt(fn)
        if iteration is None or checker.failed:
            break
        done.append(iteration)
    return done


def setup_probe(workload: Any, workdir: str, checker: Checker,
                samples: List[Tuple[float, float, float]]) -> bool:
    """One ``(setup_s, first_wall_s, calibration_s)`` sample from a
    fresh interpreter."""
    probe_dir = tempfile.mkdtemp(prefix="probe-", dir=workdir)
    try:
        done = subprocess.run(
            [sys.executable, str(harness.HERE / "setup_probe.py"),
             "--workload", workload.name, "--seed", str(workload.seed),
             "--workdir", probe_dir],
            capture_output=True, text=True, timeout=150, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        stderr = (getattr(exc, "stderr", "") or "").strip()[-400:]
        checker.attempted += 1
        checker.fail(f"set-up probe failed: {exc} {stderr}")
        return False
    checker.check(sample["digest"])
    samples.append((sample["setup_s"], sample["first_wall_s"],
                    sample["calibration_s"]))
    return True


def tail(samples: List[float]) -> Tuple[int, float]:
    """(rank, value) of the highest nearest-rank percentile with at
    least :data:`TAIL_BEYOND` samples above it; with fewer than
    ``2 * TAIL_BEYOND`` samples, the first rank above the median.
    """
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND, len(ordered) // 2 + 1)
    return rank, ordered[rank - 1]


def measure_end_to_end(workload: Any, seconds: float, checker: Checker,
                       workdir: str, setup_s: float
                       ) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics; ``setup_s`` is this interpreter's own set-up."""
    # The warm-up fills the lazy caches: with this process's set-up it
    # is the first (setup_s, first_wall_s, calibration_s) sample.
    warm_up = checker.attempt(lambda: harness.run_iteration(workload))
    if warm_up is None:
        return {}, []
    probes = [(setup_s, warm_up.wall_s, warm_up.calibration_s)]
    # The other samples come from fresh interpreters spread over the
    # run, between equal slices of the timed loop, so one burst of
    # contention from other tenants of the machine cannot slow them all.
    done: List[harness.Iteration] = []
    for _ in range(SETUP_PROBES - 1):
        done += loop(seconds / (SETUP_PROBES - 1), checker,
                     lambda: harness.run_iteration(workload))
        if checker.failed or not setup_probe(workload, workdir, checker,
                                             probes):
            return {}, []
    ref = harness.at_reference_speed
    walls = [ref(it.wall_s, it.calibration_s) for it in done]
    reads = [ref(it.read_s, it.calibration_s) for it in done]
    n = len(walls)
    wall_s = statistics.median(walls)
    rank, tail_s = tail(walls)
    metrics = {
        "wall_s": wall_s,
        "wall_tail_s": tail_s,
        "cells_per_s": workload.units / wall_s,
        "read_s": statistics.median(reads),
        "setup_s": statistics.median(ref(s, c) for s, _, c in probes),
        "first_wall_s": statistics.median(ref(f, c) for _, f, c in probes),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }
    calibration = statistics.median(it.calibration_s for it in done)
    notes = [
        f"times at reference speed (see README.md): calibration loop "
        f"{calibration * 1e3:.2f} ms here, "
        f"{harness.CALIBRATION_REF_S * 1e3:.2f} ms reference",
        f"wall_s, read_s: medians of n={n} iterations (wall clock: "
        f"{statistics.median(it.wall_s for it in done):.6f} s, "
        f"{statistics.median(it.read_s for it in done):.6f} s)",
        f"wall_tail_s: p{100.0 * rank / n:.0f} of n={n} ({n - rank} beyond)",
        f"cells_per_s: {workload.units} cell(s) per run phase / wall_s",
        f"setup_s, first_wall_s: medians of {len(probes)} interpreters",
    ]
    return metrics, notes


def measure_layers(workload: Any, seconds: float, checker: Checker,
                   wall_bound: float) -> Tuple[Dict[str, float], List[str]]:
    from tracing import ROOT, Tracer, count_metrics

    if checker.attempt(lambda: harness.run_iteration(workload)) is None:
        return {}, []
    untraced = loop(seconds / 2, checker,
                    lambda: harness.run_iteration(workload))
    if checker.failed:
        return {}, []
    tracer = Tracer()
    snapshots: List[Tuple[Dict[str, float], float]] = []

    def observe(block: Callable[[], None]) -> None:
        tracer.reset()
        wall = tracer.root(block)
        values = tracer.iteration()
        silent = tracer.silent(workload.expected)
        if silent:
            raise BenchmarkFailure(
                f"trace wrappers never fired on {workload.name}: "
                + ", ".join(silent)
            )
        snapshots.append((values, wall))

    try:
        tracer.install()
    except AttributeError as exc:
        tracer.uninstall()
        checker.fail(str(exc))
        return {}, []
    try:
        traced = loop(seconds / 2, checker,
                      lambda: harness.run_iteration(workload, observe))
    finally:
        tracer.uninstall()
    if checker.failed or not traced:
        return {}, []

    counts = set(count_metrics())
    per_iteration = [values for values, _ in snapshots]
    metrics: Dict[str, float] = {}
    for name in per_iteration[0]:
        series = [values[name] for values in per_iteration]
        if name in counts:
            if len(set(series)) != 1:
                checker.fail(f"layer count {name} differs between "
                             f"iterations: {sorted(set(series))}")
            metrics[name] = series[0]
        else:
            metrics[name] = statistics.median(series)
    metrics["traced_wall_s"] = statistics.median(wall for _, wall in snapshots)
    ref = harness.at_reference_speed
    metrics["trace_overhead"] = (
        statistics.median(ref(it.wall_s, it.calibration_s) for it in traced)
        / statistics.median(ref(it.wall_s, it.calibration_s)
                            for it in untraced)
    )
    share = metrics[ROOT] / metrics["traced_wall_s"]
    if not 0.0 <= share <= wall_bound:
        checker.fail(f"unattributed time is {share:.1%} of the traced wall, "
                     f"outside the wall_s bound {wall_bound:.0%}")
    notes = [
        f"per-layer self times: medians of n={len(traced)} traced "
        f"iterations; counts are per iteration",
        f"trace_overhead: traced over untraced run-phase median at "
        f"reference speed (n={len(traced)} vs n={len(untraced)})",
        f"unattributed: {share:.2%} of the traced iteration wall",
    ]
    return metrics, notes


# --------------------------------------------------------------------- #
# Entry point.
# --------------------------------------------------------------------- #

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    harness.use_source_tree()
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    declared = config["per_layer"] if args.trace else config["end_to_end"]
    wall_bound = next(m["bound"] for m in config["end_to_end"]
                      if m["name"] == "wall_s")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{workloads.names()}", file=sys.stderr)
        return 2
    checker = Checker(args.workload, args.seed)
    with harness.work_dir(f"{args.workload}-") as workdir:
        workload = workloads.make(args.workload, args.seed, workdir)
        workload.cleanup(workload.prepare())
        setup_s = time.perf_counter() - START
        print("env " + json.dumps(environment(workload, workdir),
                                  sort_keys=True))
        if args.trace:
            metrics, notes = measure_layers(workload, args.seconds, checker,
                                            wall_bound)
        else:
            metrics, notes = measure_end_to_end(workload, args.seconds,
                                                checker, workdir, setup_s)

    for note in notes:
        print(note)
    print(f"output check: {checker.failed} of {checker.attempted} "
          f"iterations failed, against "
          + ("the recorded reference" if checker.recorded else
             f"the first iteration (no reference recorded for seed "
             f"{args.seed})"))
    for error in checker.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    correct = checker.failed == 0 and bool(metrics)
    result: Dict[str, Any] = {}
    if correct:
        for metric in declared:
            value = metrics[metric["name"]]
            result[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"{metric['name']:34s} {value:>16.6f} {metric['unit']}")
    failed = max(checker.failed, 0 if correct else 1)
    print(json.dumps({"correct": correct,
                      "attempted": max(checker.attempted, 1),
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
