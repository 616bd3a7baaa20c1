"""Shared pieces of the benchmark: paths, one iteration, output digests.

Nothing here imports ``repro`` at module level, so ``setup_probe.py``
can start its clock before the package is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference_digests.json"
#: Parent of every scratch directory (stores, probe files).
WORK_ROOT = ROOT / ".perfbench_work"

#: Significant digits kept for floats in output digests: exact on one
#: machine, tolerant of last-bit differences between BLAS builds.
DIGEST_DIGITS = 10


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def work_dir(prefix: str) -> Iterator[str]:
    """A scratch directory inside the checkout, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            WORK_ROOT.rmdir()


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def digest(outputs: Any) -> str:
    """SHA-256 of an iteration's outputs in canonical JSON."""
    text = json.dumps(_canonical(outputs), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digest(workload: str, seed: int) -> Optional[str]:
    """The recorded digest for (workload, seed), if one was recorded."""
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    On a shared machine, other tenants contending for the same cores
    slow this loop in step with the program: over ten 18 s runs of
    ``smoke_grid`` the run-phase median spread 0.19 (interquartile range
    over median) in wall seconds and 0.04 in multiples of this loop.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    values = np.arange(20_000.0)
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


#: :func:`calibrate`'s time on the reference box (2.0 GHz Xeon vCPU,
#: Python 3.11, numpy 2.4) with no contention from other tenants.
CALIBRATION_REF_S = 0.015


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """``seconds`` rescaled to the reference box's uncontended speed."""
    return seconds * CALIBRATION_REF_S / calibration_s


@dataclass
class Iteration:
    """Timings and output digest of one iteration.

    ``calibration_s`` is the mean :func:`calibrate` time just before and
    just after the prepare/run/read block.
    """

    wall_s: float
    read_s: float
    calibration_s: float
    digest: str


def run_iteration(workload: Any, observe: Any = None) -> Iteration:
    """Prepare, run and read one iteration, then digest its outputs.

    ``observe``, when given, is called with the prepare/run/read block
    and must call it once -- the tracer runs it as its root span.  The
    calibrations, digest and clean-up happen outside that block.
    """
    times: Dict[str, float] = {}
    state: Dict[str, Any] = {}

    def measured() -> None:
        prepared = state["prepared"] = workload.prepare()
        start = time.perf_counter()
        ran = state["ran"] = workload.run(prepared)
        end = time.perf_counter()
        read_s = workload.read_seconds(prepared, end)
        for _ in range(workload.read_repeats):
            state["read"] = workload.read(prepared, ran)
        if read_s is None:
            read_s = (time.perf_counter() - end) / workload.read_repeats
        times.update(wall_s=end - start, read_s=read_s)

    before = calibrate()
    try:
        if observe is None:
            measured()
        else:
            observe(measured)
        after = calibrate()
        outputs = workload.outputs(state["prepared"], state["ran"],
                                   state["read"])
    finally:
        if "prepared" in state:
            workload.cleanup(state["prepared"])
    return Iteration(times["wall_s"], times["read_s"], (before + after) / 2,
                     digest(outputs))
