"""Kill/resume equivalence, the fabric's core durability claim.

The chaos matrix's ``sigkill`` case SIGKILLs a real campaign
subprocess mid-grid, resumes it, and compares the store cell-for-cell
against an uninterrupted reference run.  Deterministic per-cell seeds
make the comparison exact: a resumed campaign must be
indistinguishable in content from one that never died.  A SIGKILLed
run cannot shut its worker processes down, so they must notice the
dead parent and exit by themselves; the ``gc-crash`` case does the
same for a SIGKILLed compaction.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import calibration_campaign, open_store, run_campaign
from repro.campaign.fabric.chaos import (
    _ok_content,
    _subprocess_env,
    run_chaos_case,
    surviving_workers,
)


@pytest.fixture
def grid(tmp_path):
    """A paced calibration grid and its uninterrupted inline content."""
    spec = calibration_campaign(cells=10, spin_ms=30.0, name="kill")
    reference_store = str(tmp_path / "reference.jsonl")
    run_campaign(spec, reference_store, workers=1)
    return spec, _ok_content(reference_store)


def test_kill_mid_grid_then_resume_matches_reference(tmp_path, grid):
    spec, reference = grid
    workdir = tmp_path / "sigkill"
    result = run_chaos_case("sigkill", str(workdir), reference, spec)
    assert result.fired == 1, (
        "campaign finished before the kill landed; the case proved nothing"
    )
    assert result.ok, f"kill/resume mismatches: {result.mismatches}"
    assert len(reference) == spec.cell_count() == 10
    resumed = (workdir / "resume.log").read_text()
    executed = int(re.search(r"(\d+) executed", resumed).group(1))
    assert executed >= 1


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


def test_gc_killed_in_crash_window_changes_nothing(tmp_path, grid):
    """Compaction atomicity: a SIGKILLed gc must be a perfect no-op.

    The fault plane kills a real ``campaign gc`` subprocess inside its
    crash window (before the atomic replace); the store must read back
    identical, with the superseded-error debris still intact for a
    clean re-gc.
    """
    spec, reference = grid
    result = run_chaos_case("gc-crash", str(tmp_path / "gc"), reference,
                            spec)
    assert not any("expected -SIGKILL" in m for m in result.mismatches), (
        "gc subprocess was not killed by the fault plane"
    )
    assert result.ok, f"gc atomicity violations: {result.mismatches}"
    dropped = int(re.search(r"re-gc dropped (\d+)", result.detail).group(1))
    assert dropped >= 1
