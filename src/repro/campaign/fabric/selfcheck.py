"""Kill/resume equivalence self-check.

The fabric's core durability claim: a campaign whose parent process is
SIGKILLed mid-grid (and whose workers crash along the way) and is then
resumed produces a store *identical in cell content* to an
uninterrupted run -- same cells, same seeds, same metrics.

:func:`run_selfcheck` proves it end to end:

1. **Reference** -- run a paced calibration grid inline, in this
   process, into a scratch JSONL store.  The grid's worker-crash cell
   flags are pre-created so nothing actually crashes here.
2. **Interrupted** -- run the *same spec* as a real
   ``python -m repro campaign run`` subprocess (two worker processes,
   crash flags absent so one worker SIGKILLs itself mid-run), poll the
   store, and SIGKILL the whole run once ``kill_after`` cells have
   landed.  The SIGKILLed run's workers must exit on their own.
3. **Resume** -- run the subprocess again with ``--resume`` and let it
   finish.
4. **Compare** -- latest-ok content keys per cell
   (:meth:`~repro.campaign.store.CellRecord.content_key`, which
   excludes wall-clock fields and pids) must match the reference
   exactly.

:func:`run_gc_selfcheck` is its compaction twin: a ``campaign gc``
SIGKILLed inside its crash window must leave the store untouched.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ...errors import CampaignError
from ..grids import calibration_campaign
from ..runner import run_campaign
from ..stores import open_store

#: Seconds a SIGKILLed run's workers get to notice and exit.
ORPHAN_GRACE_S = 5.0


@dataclass
class SelfCheckResult:
    """Outcome of one kill/resume equivalence check.

    Attributes:
        total: Cells in the calibration grid.
        ok_at_kill: Completed cells observed when SIGKILL was sent.
        killed_mid_grid: Whether the kill landed before completion.
        resumed_executed: Cells the resumed run still had to execute.
        mismatches: Human-readable content differences and orphaned
            workers (empty = pass).
    """

    total: int
    ok_at_kill: int
    killed_mid_grid: bool
    resumed_executed: int
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the interrupted store matched the reference."""
        return not self.mismatches


def _ok_content(store_path: str) -> Dict[str, Tuple]:
    """Latest-ok content key per cell id in a store."""
    store = open_store(store_path)
    latest: Dict[str, Tuple] = {}
    for record in store.cell_records():
        if record.ok:
            latest[record.cell_id] = record.content_key()
    return latest


def compare_content(reference: Dict[str, Tuple], store_path: str,
                    ignore: Sequence[str] = ()) -> List[str]:
    """Content-key diff between a reference and a survivor store."""
    survivor = _ok_content(store_path)
    skip = set(ignore)
    mismatches: List[str] = []
    for cell_id in sorted(set(reference) | set(survivor)):
        if cell_id in skip:
            continue
        ref = reference.get(cell_id)
        got = survivor.get(cell_id)
        if ref is None:
            mismatches.append(f"{cell_id}: extra cell in survivor store")
        elif got is None:
            mismatches.append(f"{cell_id}: missing from survivor store")
        elif ref != got:
            mismatches.append(
                f"{cell_id}: content differs\n  reference: {ref}\n"
                f"  survivor:  {got}"
            )
    return mismatches


def _subprocess_env() -> Dict[str, str]:
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _run_cli(spec_path: str, store_path: str, resume: bool,
             env: Dict[str, str]) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "campaign", "run",
        "--spec-json", spec_path, "--store", store_path,
        "--workers", "2", "--max-attempts", "3",
    ]
    if resume:
        command.append("--resume")
    return subprocess.Popen(
        command, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: probe with signal 0 instead
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def surviving_workers(store_path: str, parent_pid: int,
                      grace_s: float = ORPHAN_GRACE_S) -> List[int]:
    """Worker pids of a SIGKILLed run that are still alive after
    ``grace_s`` (the pids come from the store's cell records)."""
    pids = {r.worker for r in open_store(store_path).cell_records()}
    pids -= {0, parent_pid}
    deadline = time.monotonic() + grace_s
    while True:
        alive = sorted(pid for pid in pids if _running(pid))
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.1)


def _poll_ok_count(store_path: str) -> int:
    try:
        store = open_store(store_path)
        if not store.exists():
            return 0
        return len(store.completed_ids())
    except (CampaignError, OSError):
        return 0  # store not written yet


def run_selfcheck(
    workdir: str,
    cells: int = 14,
    spin_ms: float = 40.0,
    kill_after: int = 4,
    deadline_s: float = 120.0,
) -> SelfCheckResult:
    """Prove kill/resume equivalence end to end.

    Args:
        workdir: Scratch directory (created if missing).
        cells: Plain no-op cells in the calibration grid (one
            worker-crash cell is added on top).
        spin_ms: Busy-wait per cell, pacing the grid so the SIGKILL
            lands mid-flight.
        kill_after: Completed cells to wait for before killing.
        deadline_s: Per-subprocess wall-clock budget.

    Returns:
        A :class:`SelfCheckResult`; ``result.ok`` is the verdict.

    Raises:
        CampaignError: A subprocess misbehaved in a way that voids
            the comparison (resume failed outright).
    """
    os.makedirs(workdir, exist_ok=True)
    crash_flag = os.path.join(workdir, "crash.flag")
    spec = calibration_campaign(
        cells=cells, spin_ms=spin_ms, crash_flags=(crash_flag,),
        name="selfcheck",
    )

    # 1. Reference: inline, uninterrupted.  Pre-create the crash flag
    # so the crash cell runs its ordinary path in *this* process.
    with open(crash_flag, "w", encoding="utf-8") as handle:
        handle.write("reference\n")
    reference_store = os.path.join(workdir, "reference.jsonl")
    run_campaign(spec, reference_store, workers=1)
    reference = _ok_content(reference_store)
    os.remove(crash_flag)  # the subprocess run must actually crash

    # 2. Interrupted run: real CLI subprocess, SIGKILLed mid-grid.
    spec_path = os.path.join(workdir, "spec.json")
    spec.save(spec_path)
    store_path = os.path.join(workdir, "store.jsonl")
    env = _subprocess_env()
    child = _run_cli(spec_path, store_path, resume=False, env=env)
    deadline = time.monotonic() + deadline_s
    ok_at_kill = 0
    killed = False
    while child.poll() is None:
        if time.monotonic() > deadline:
            child.kill()
            child.wait()
            child.stdout.close()
            raise CampaignError(
                "selfcheck: interrupted run exceeded "
                f"{deadline_s:.0f}s"
            )
        ok_at_kill = _poll_ok_count(store_path)
        if ok_at_kill >= kill_after:
            os.kill(child.pid, signal.SIGKILL)
            killed = True
            break
        time.sleep(0.05)
    # Not communicate(): orphaned workers would hold the pipe open.
    child.wait()
    child.stdout.close()
    # Nothing shuts the killed run's workers down: they must notice the
    # dead parent and exit by themselves.
    orphans = surviving_workers(store_path, child.pid) if killed else []
    for pid in orphans:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    # 3. Resume to completion.
    resumed = _run_cli(spec_path, store_path, resume=True, env=env)
    try:
        output, _ = resumed.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        resumed.kill()
        resumed.communicate()
        raise CampaignError(
            f"selfcheck: resume exceeded {deadline_s:.0f}s"
        ) from None
    if resumed.returncode != 0:
        raise CampaignError(
            "selfcheck: resume exited "
            f"{resumed.returncode}:\n{output}"
        )

    # 4. Compare content keys, cell for cell.
    mismatches = [
        f"worker {pid} outlived the SIGKILLed run by {ORPHAN_GRACE_S:.0f}s"
        for pid in orphans
    ] + compare_content(reference, store_path)
    resumed_executed = spec.cell_count() - ok_at_kill
    return SelfCheckResult(
        total=spec.cell_count(),
        ok_at_kill=ok_at_kill,
        killed_mid_grid=killed,
        resumed_executed=max(0, resumed_executed),
        mismatches=mismatches,
    )


@dataclass
class GcSelfCheckResult:
    """Outcome of one gc-crash atomicity check.

    Attributes:
        gc_returncode: Exit status of the SIGKILLed ``campaign gc``
            (should be ``-SIGKILL``).
        errors_dropped: Superseded error records the clean re-gc
            dropped (must be >= 1 or the check proved nothing).
        mismatches: Human-readable problems (empty = pass).
    """

    gc_returncode: int
    errors_dropped: int
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the killed gc left the store intact."""
        return not self.mismatches


def run_gc_selfcheck(
    workdir: str,
    cells: int = 6,
    deadline_s: float = 60.0,
) -> GcSelfCheckResult:
    """Prove gc compaction is atomic under SIGKILL.

    Builds a store with real debris (a worker-crash cell whose error
    record is later superseded by a clean resume), then runs
    ``repro campaign gc`` as a subprocess with a ``gc.crash`` fault
    plan in its environment -- the fault plane SIGKILLs the gc inside
    its crash window (before the atomic rename).  The store must
    be untouched: every cell's content identical, the superseded error
    debris still present for a clean re-gc to drop.

    Args:
        workdir: Scratch directory (created if missing).
        cells: Plain no-op cells in the grid (one crash cell added).
        deadline_s: Per-subprocess wall-clock budget.

    Returns:
        A :class:`GcSelfCheckResult`; ``result.ok`` is the verdict.
    """
    from .faults import FaultPlan, FaultSpec

    os.makedirs(workdir, exist_ok=True)

    # 1. Debris: the crash cell's first attempt kills its worker with
    # no retry budget, recording an error; the resume supersedes it
    # with an ok record.  That superseded error is what gc drops.
    crash_flag = os.path.join(workdir, "crash.flag")
    spec = calibration_campaign(
        cells=cells, spin_ms=0.0, crash_flags=(crash_flag,),
        name="gc-selfcheck",
    )
    store_path = os.path.join(workdir, "store.jsonl")
    run_campaign(spec, store_path, workers=2, max_attempts=1)
    run_campaign(spec, store_path, workers=2, max_attempts=1, resume=True)
    before = _ok_content(store_path)
    mismatches: List[str] = []
    if len(before) != spec.cell_count():
        mismatches.append(
            f"debris setup incomplete: {len(before)}/{spec.cell_count()} "
            "cells ok before gc"
        )

    # 2. SIGKILL a real gc subprocess inside its crash window.
    plan = FaultPlan(
        chaos_seed=0,
        specs=(FaultSpec("gc.crash"),),
        state_dir=os.path.join(workdir, "fault-state"),
    )
    plan_path = os.path.join(workdir, "fault-plan.json")
    plan.save(plan_path)
    env = _subprocess_env()
    env["REPRO_FAULT_PLAN"] = plan_path
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "gc",
         "--store", store_path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        output, _ = child.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise CampaignError(
            f"gc-selfcheck: killed gc exceeded {deadline_s:.0f}s"
        ) from None
    if child.returncode != -signal.SIGKILL:
        mismatches.append(
            f"gc subprocess exited {child.returncode}, expected "
            f"-SIGKILL ({-signal.SIGKILL}); the crash never fired:\n"
            f"{output}"
        )

    # 3. The killed gc must have changed nothing visible.
    after = _ok_content(store_path)
    if after != before:
        mismatches.append(
            "store content changed across the killed gc "
            f"({len(before)} -> {len(after)} ok cells)"
        )

    # 4. A clean re-gc succeeds and drops the superseded error.
    errors_dropped = 0
    try:
        stats = open_store(store_path).gc()
        errors_dropped = stats.errors_dropped
    except CampaignError as exc:
        mismatches.append(f"clean re-gc failed: {exc}")
    else:
        if errors_dropped < 1:
            mismatches.append(
                "clean re-gc dropped no superseded error records; the "
                "killed gc must have committed after all"
            )
        if _ok_content(store_path) != before:
            mismatches.append("store content changed across the clean re-gc")
    return GcSelfCheckResult(
        gc_returncode=child.returncode,
        errors_dropped=errors_dropped,
        mismatches=mismatches,
    )
