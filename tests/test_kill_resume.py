"""Kill/resume equivalence, the fabric's core durability claim.

The selfcheck SIGKILLs a real campaign subprocess mid-grid, resumes
it, and compares the store cell-for-cell against an uninterrupted
reference run.  Deterministic per-cell seeds make the comparison
exact: a resumed campaign must be indistinguishable in content from
one that never died.  A SIGKILLed run cannot shut its worker processes
down, so they must notice the dead parent and exit by themselves; the
gc selfcheck does the same for a SIGKILLed compaction.
"""

import os
import signal
import subprocess
import sys
import time

from repro.campaign import open_store, run_gc_selfcheck, run_selfcheck
from repro.campaign.fabric.selfcheck import _subprocess_env, surviving_workers


def test_kill_mid_grid_then_resume_matches_reference(tmp_path):
    result = run_selfcheck(
        str(tmp_path),
        cells=10,
        spin_ms=30.0,
        kill_after=3,
    )
    assert result.killed_mid_grid, (
        "campaign finished before the kill landed; selfcheck proved nothing"
    )
    assert result.ok, f"kill/resume mismatches: {result.mismatches}"
    assert result.total == 11  # the requested cells plus the crash cell
    assert result.resumed_executed >= 1


def test_sigkilled_run_leaves_no_orphan_workers(tmp_path):
    store_path = str(tmp_path / "orphans.jsonl")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         "--store", store_path, "--workers", "2",
         "--calibration", "200", "--spin-ms", "50"],
        env=_subprocess_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    workers = set()
    try:
        # Wait until both workers have stored a cell, then kill mid-grid.
        while len(workers) < 2:
            assert child.poll() is None, "the run ended before the kill"
            assert time.monotonic() < deadline, "workers never reported"
            time.sleep(0.05)
            if os.path.exists(store_path):
                workers = {
                    r.worker for r in open_store(store_path).cell_records()
                }
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.kill()
        child.wait()
    assert child.pid not in workers
    orphans = surviving_workers(store_path, child.pid)  # waits up to 5 s
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert orphans == [], f"workers {orphans} outlived their killed parent"


def test_gc_killed_in_crash_window_changes_nothing(tmp_path):
    """Compaction atomicity: a SIGKILLed gc must be a perfect no-op.

    The fault plane kills a real ``campaign gc`` subprocess inside its
    crash window (before the atomic replace); the store must read back
    identical, with the superseded-error debris still intact for a
    clean re-gc.
    """
    result = run_gc_selfcheck(str(tmp_path))
    assert result.gc_returncode == -signal.SIGKILL, (
        "gc subprocess was not killed by the fault plane"
    )
    assert result.ok, f"gc atomicity violations: {result.mismatches}"
    assert result.errors_dropped >= 1
