"""The chaos matrix: rehearse every fault class, assert bit-identity.

``repro campaign chaos`` is the fabric's one durability proof.  Each
case perturbs a run of the same calibration grid -- through the
deterministic fault plane (:mod:`~repro.campaign.fabric.faults`), by
SIGKILLing a real ``campaign run`` subprocess from outside, or by
killing a ``campaign gc`` inside its crash window -- and asserts that
the surviving store is **bit-identical in cell content** to an
uninjected reference run.

One clean inline reference run anchors every comparison: cell ids and
seeds derive from ``kind + params + master_seed`` only (never the
campaign name, store path, executor or retry history), so the same
grid produces the same content everywhere.

Fault classes (:data:`FAULT_CLASSES`):

``crash``       one cell's first execution SIGKILLs its worker; the
                retry (after deterministic backoff) must match.
``hang``        one cell sleeps past ``cell_timeout_s``; the timeout
                kill plus retry must match.
``slow``        one cell is delayed but completes; nothing may differ.
``store-io``    appends fail transiently (a partial line torn into
                the file, then EIO); the bounded retry must heal the
                debris and persist every record intact.
``checkpoint``  the scheduler's checkpoint sidecar is corrupted just
                before a resume loads it; the resume must complete
                anyway (only retry-budget memory may be lost).
``crashloop``   every worker execution dies; the crash-loop breaker
                must degrade the executor to ``inline`` and finish
                with no cell failed or quarantined.
``poison``      one cell kills every worker that touches it; it must
                be quarantined with a ``fabric:poison`` record while
                every *other* cell matches the reference.
``sigkill``     a real ``campaign run --workers 2`` subprocess (one
                worker crash, every cell slowed) is SIGKILLed mid-grid;
                its workers must exit on their own within
                :data:`ORPHAN_GRACE_S`, and a ``--resume`` subprocess
                must exit 0 and complete the grid.  The case counts as
                fired only if the kill landed before the grid finished.
``gc-crash``    a store with superseded error debris is compacted by a
                ``campaign gc`` subprocess that the fault plane
                SIGKILLs before its atomic replace; the store must be
                untouched, and a clean re-gc must drop the debris
                without changing content.

Every case runs at the ``campaign run`` defaults (``max_attempts=2``
and the scheduler's fixed backoff); the ``checkpoint`` and
``gc-crash`` cases alone run with one attempt, so that one crash
leaves an error record behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import CampaignError
from ..grids import calibration_campaign
from ..runner import CampaignRunSummary, run_campaign
from ..spec import CampaignSpec
from ..stores import open_store
from .faults import (
    PARENT_PID_ENV,
    PLAN_ENV,
    FaultPlan,
    FaultSpec,
    activate,
    deactivate,
)

#: Every fault class the matrix can rehearse.
FAULT_CLASSES = (
    "crash",
    "hang",
    "slow",
    "store-io",
    "checkpoint",
    "crashloop",
    "poison",
    "sigkill",
    "gc-crash",
)

#: Seconds a SIGKILLed run's workers get to notice and exit.
ORPHAN_GRACE_S = 5.0

#: Wall-clock budget of each ``repro`` subprocess a case starts.
SUBPROCESS_DEADLINE_S = 120.0

#: ``cell.slow`` delay on every cell of the ``sigkill`` case, so the
#: grid is still running when the kill lands.
SIGKILL_PACE_S = 0.2


@dataclass
class ChaosCaseResult:
    """Outcome of one fault-class chaos case.

    Attributes:
        fault: Fault class injected.
        fired: Fault firings actually claimed (0 means the injection
            never happened and the case is void).
        duration_s: Wall-clock cost of the case.
        detail: One-line human note (what was survived, how).
        mismatches: Content differences vs the reference (empty=pass).
    """

    fault: str
    fired: int
    duration_s: float
    detail: str = ""
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the fault was survived with identical content."""
        return not self.mismatches and self.fired > 0


def _ok_content(store_path: str) -> Dict[str, Tuple]:
    """Latest-ok content key per cell id in a store."""
    latest: Dict[str, Tuple] = {}
    for record in open_store(store_path).cell_records():
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


def _subprocess_env(plan_path: Optional[str] = None) -> Dict[str, str]:
    """Environment for a ``repro`` subprocess: this package on the path,
    the fault plan at ``plan_path`` if given, and no inherited
    fault-plane parent pid, so a child ``campaign run`` claims the
    parent role (exempt from worker-only faults) itself."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env.pop(PARENT_PID_ENV, None)
    if plan_path is not None:
        env[PLAN_ENV] = os.path.abspath(plan_path)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _run_repro(args: Sequence[str], env: Dict[str, str],
               log_path: str) -> Optional[int]:
    """Run ``python -m repro ARGS`` to its end, output to ``log_path``.

    Returns its exit status, or ``None`` if it overran
    :data:`SUBPROCESS_DEADLINE_S` (it is then killed).
    """
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], env=env,
                stdout=log, stderr=subprocess.STDOUT,
                timeout=SUBPROCESS_DEADLINE_S,
            ).returncode
        except subprocess.TimeoutExpired:
            return None


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


def _ok_count(store_path: str) -> int:
    """Completed cells in a store another process is writing."""
    try:
        return len(open_store(store_path).completed_ids())
    except (CampaignError, OSError):
        return 0  # store not written yet


def _chaos_grid(quick: bool, chaos_seed: int) -> CampaignSpec:
    """The calibration grid every chaos case runs.

    The campaign name does not affect cell ids or seeds, so every
    fault class shares one reference despite distinct store paths.
    """
    return calibration_campaign(
        cells=6 if quick else 10,
        spin_ms=10.0 if quick else 25.0,
        master_seed=104729 + chaos_seed,
        name="chaos",
    )


def _fault_target(spec: CampaignSpec) -> str:
    """The cell the single-cell fault classes torment.

    The first cell id in sorted order: deterministic, and (being a
    plain grid cell) representative of any of them.
    """
    return sorted(cell.cell_id for cell in spec.expand())[0]


@dataclass(frozen=True)
class _CasePlan:
    """How one fault class runs: its faults plus scheduling options
    (the ``campaign run`` defaults unless a case sets them)."""

    specs: Tuple[FaultSpec, ...]
    workers: int = 1
    max_attempts: int = 2
    cell_timeout_s: Optional[float] = None
    two_stage: bool = False  # run, then resume with the fault armed


def _case_plan(fault: str, target: str) -> _CasePlan:
    if fault == "crash":
        return _CasePlan(
            specs=(FaultSpec("cell.crash", cell_id=target),),
            workers=2,
        )
    if fault == "hang":
        return _CasePlan(
            specs=(FaultSpec("cell.hang", cell_id=target, delay_s=30.0),),
            workers=2, cell_timeout_s=1.5,
        )
    if fault == "slow":
        return _CasePlan(
            specs=(FaultSpec("cell.slow", cell_id=target, delay_s=0.2),),
        )
    if fault == "store-io":
        # The nastiest mode -- a partial line torn into the file before
        # the error -- so the retry must heal real crash debris.
        return _CasePlan(
            specs=(FaultSpec("store.append", mode="torn", times=2),),
        )
    if fault == "checkpoint":
        # Stage 1 crashes one cell with no retry budget, leaving an
        # error record and a checkpoint; stage 2 resumes with the
        # corruptor armed, so the checkpoint is scribbled over as the
        # resume loads it.
        return _CasePlan(
            specs=(
                FaultSpec("cell.crash", cell_id=target),
                FaultSpec("checkpoint.corrupt"),
            ),
            workers=2, max_attempts=1, two_stage=True,
        )
    if fault == "crashloop":
        return _CasePlan(
            specs=(FaultSpec("executor.crashloop", times=500),),
            workers=2,
        )
    if fault == "poison":
        return _CasePlan(
            specs=(FaultSpec("cell.crash", cell_id=target, times=99),),
            workers=2,
        )
    if fault == "sigkill":
        # Run as a CLI subprocess: one worker dies, and every cell is
        # slowed so the grid is still running when the kill lands.
        return _CasePlan(
            specs=(
                FaultSpec("cell.crash", cell_id=target),
                FaultSpec("cell.slow", delay_s=SIGKILL_PACE_S, times=99),
            ),
            workers=2,
        )
    if fault == "gc-crash":
        # The checkpoint case's debris (a crash with no retry budget,
        # superseded by the resume), then a ``campaign gc`` subprocess
        # that the plan kills inside its crash window.
        return _CasePlan(
            specs=(
                FaultSpec("cell.crash", cell_id=target),
                FaultSpec("gc.crash"),
            ),
            workers=2, max_attempts=1, two_stage=True,
        )
    raise CampaignError(
        f"unknown fault class {fault!r}; expected one of {FAULT_CLASSES}"
    )


def _kill_and_resume(spec: CampaignSpec, case: _CasePlan, plan_path: str,
                     store_path: str) -> Tuple[int, str, List[str]]:
    """The ``sigkill`` case: SIGKILL a CLI run mid-grid, then resume it.

    The run is a real ``campaign run`` subprocess under the case's
    fault plan, killed once a third of the grid is stored.  Its workers
    must then exit by themselves, and a ``--resume`` subprocess must
    exit 0.

    Returns:
        ``(fired, detail, mismatches)``: ``fired`` is 1 only if the
        kill landed before the grid finished.
    """
    workdir = os.path.dirname(store_path)
    spec_path = os.path.join(workdir, "spec.json")
    spec.save(spec_path)
    env = _subprocess_env(plan_path)
    args = [
        "campaign", "run", "--spec-json", spec_path, "--store", store_path,
        "--workers", str(case.workers),
    ]
    total = spec.cell_count()
    kill_after = max(1, total // 3)
    with open(os.path.join(workdir, "run.log"), "w",
              encoding="utf-8") as log:
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], env=env,
            stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + SUBPROCESS_DEADLINE_S
    while (child.poll() is None and _ok_count(store_path) < kill_after
           and time.monotonic() < deadline):
        time.sleep(0.05)
    killed = child.poll() is None
    child.kill()
    child.wait()
    ok_at_kill = _ok_count(store_path)
    mismatches: List[str] = []
    if killed and ok_at_kill < kill_after:
        mismatches.append(
            f"interrupted run stored {ok_at_kill}/{total} cells in "
            f"{SUBPROCESS_DEADLINE_S:.0f}s"
        )
    # Nothing shuts the killed run's workers down: they must notice the
    # dead parent and exit by themselves.
    if killed and os.path.exists(store_path):
        for pid in surviving_workers(store_path, child.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            mismatches.append(
                f"worker {pid} outlived the SIGKILLed run by "
                f"{ORPHAN_GRACE_S:.0f}s"
            )
    log_path = os.path.join(workdir, "resume.log")
    code = _run_repro([*args, "--resume"], env, log_path)
    if code != 0:
        status = "overran" if code is None else f"exited {code}"
        mismatches.append(f"resume {status}; see {log_path}")
    fired = int(killed and ok_at_kill < total)
    detail = (f"SIGKILL at {ok_at_kill}/{total} ok cells, resumed; "
              "no orphaned workers")
    return fired, detail, mismatches


def _killed_gc(plan_path: str, store_path: str) -> Tuple[str, List[str]]:
    """The ``gc-crash`` case's compaction: kill it, then gc cleanly.

    A ``campaign gc`` subprocess under the plan is SIGKILLed before its
    atomic replace and must change nothing; a clean re-gc must still
    find the superseded error debris and drop it without changing any
    cell's content.
    """
    before = _ok_content(store_path)
    log_path = os.path.join(os.path.dirname(store_path), "gc.log")
    code = _run_repro(["campaign", "gc", "--store", store_path],
                      _subprocess_env(plan_path), log_path)
    mismatches: List[str] = []
    if code != -signal.SIGKILL:
        mismatches.append(
            f"gc subprocess ended with {code}, expected -SIGKILL "
            f"({-signal.SIGKILL}); see {log_path}"
        )
    if _ok_content(store_path) != before:
        mismatches.append("store content changed across the killed gc")
    try:
        dropped = open_store(store_path).gc().errors_dropped
    except CampaignError as exc:
        return "", mismatches + [f"clean re-gc failed: {exc}"]
    if dropped < 1:
        mismatches.append(
            "clean re-gc dropped no superseded error records; the "
            "killed gc must have committed after all"
        )
    if _ok_content(store_path) != before:
        mismatches.append("store content changed across the clean re-gc")
    detail = (f"gc SIGKILLed in its crash window left the store intact; "
              f"clean re-gc dropped {dropped} superseded error record(s)")
    return detail, mismatches


def run_chaos_case(
    fault: str,
    workdir: str,
    reference: Dict[str, Tuple],
    spec: CampaignSpec,
    chaos_seed: int = 0,
) -> ChaosCaseResult:
    """Inject one fault class and judge survival.

    Args:
        fault: A member of :data:`FAULT_CLASSES`.
        workdir: Fresh scratch directory for this case.
        reference: ``_ok_content`` of the clean reference run.
        spec: The shared chaos grid (must be the reference's spec).
        chaos_seed: Recorded in the plan for reproducibility.

    Returns:
        A :class:`ChaosCaseResult`; ``result.ok`` is the verdict.
    """
    os.makedirs(workdir, exist_ok=True)
    target = _fault_target(spec)
    case = _case_plan(fault, target)
    plan = FaultPlan(
        chaos_seed=chaos_seed,
        specs=case.specs,
        state_dir=os.path.join(workdir, "fault-state"),
    )
    plan_path = os.path.join(workdir, "fault-plan.json")
    store_path = os.path.join(workdir, "store.jsonl")
    start = time.perf_counter()

    def run(resume: bool) -> CampaignRunSummary:
        return run_campaign(
            spec, store_path,
            workers=case.workers,
            resume=resume,
            max_attempts=case.max_attempts,
            cell_timeout_s=case.cell_timeout_s,
        )

    mismatches: List[str] = []
    detail = ""
    if fault == "sigkill":
        plan.save(plan_path)
        fired, detail, mismatches = _kill_and_resume(spec, case, plan_path,
                                                     store_path)
        summary = None
    else:
        activate(plan, plan_path)
        try:
            if case.two_stage:
                run(resume=False)  # leaves an error record + checkpoint
                summary = run(resume=True)  # resumes over that debris
            else:
                summary = run(resume=False)
        finally:
            deactivate()
        if fault == "gc-crash":
            detail, mismatches = _killed_gc(plan_path, store_path)
        fired = sum(plan.fired(site) for site in {s.site for s in case.specs})
    duration = time.perf_counter() - start

    if fault == "poison":
        # The poisoned cell must be quarantined (error record, no ok),
        # every other cell bit-identical.
        mismatches += compare_content(reference, store_path, ignore=(target,))
        store = open_store(store_path)
        verdicts = [r for r in store.cell_records()
                    if r.cell_id == target]
        if any(r.ok for r in verdicts):
            mismatches.append(
                f"{target}: poison cell has an ok record; it should "
                "have been quarantined"
            )
        if not any(
            not r.ok and "fabric:poison" in (r.error or "")
            for r in verdicts
        ):
            mismatches.append(
                f"{target}: no fabric:poison record in the store"
            )
        if summary.quarantined != 1:
            mismatches.append(
                f"expected 1 quarantined cell, summary says "
                f"{summary.quarantined}"
            )
        detail = (f"quarantined {target} after its worker died on all "
                  f"{case.max_attempts} attempts")
    else:
        mismatches += compare_content(reference, store_path)
        if fault == "crashloop":
            if not summary.degraded:
                mismatches.append(
                    "crash-loop breaker never degraded the executor"
                )
            detail = f"degraded: {summary.degraded}"
        elif fault == "checkpoint":
            detail = "resume completed over a corrupted checkpoint"
        if summary is not None and (summary.failed or summary.quarantined):
            mismatches.append(
                f"{summary.failed} cells ended as errors "
                f"({summary.quarantined} quarantined); every cell should "
                "have survived this fault class"
            )
    if fired == 0:
        mismatches.append(
            f"fault {fault!r} never fired; the case proved nothing"
        )
    return ChaosCaseResult(
        fault=fault,
        fired=fired,
        duration_s=duration,
        detail=detail,
        mismatches=mismatches,
    )


def run_chaos_matrix(
    workdir: str,
    faults: Optional[Sequence[str]] = None,
    quick: bool = True,
    chaos_seed: int = 0,
) -> List[ChaosCaseResult]:
    """Run the fault matrix: one case per fault class.

    Args:
        workdir: Scratch directory (created if missing).
        faults: Fault classes to inject (default: all of
            :data:`FAULT_CLASSES`).
        quick: Small grid and delays (the CI profile).
        chaos_seed: Folded into the grid's master seed and recorded in
            every plan, so a failing case reproduces exactly.

    Returns:
        One :class:`ChaosCaseResult` per case, in matrix order.
    """
    faults = list(faults) if faults else list(FAULT_CLASSES)
    for fault in faults:
        if fault not in FAULT_CLASSES:
            raise CampaignError(
                f"unknown fault class {fault!r}; expected one of "
                f"{FAULT_CLASSES}"
            )
    os.makedirs(workdir, exist_ok=True)
    spec = _chaos_grid(quick, chaos_seed)

    # One clean inline run anchors every comparison.
    reference_store = os.path.join(workdir, "reference.jsonl")
    run_campaign(spec, reference_store, workers=1)
    reference = _ok_content(reference_store)
    if len(reference) != spec.cell_count():
        raise CampaignError(
            "chaos reference run failed: "
            f"{len(reference)}/{spec.cell_count()} cells ok"
        )

    return [
        run_chaos_case(
            fault,
            workdir=os.path.join(workdir, fault),
            reference=reference,
            spec=spec,
            chaos_seed=chaos_seed,
        )
        for fault in faults
    ]
