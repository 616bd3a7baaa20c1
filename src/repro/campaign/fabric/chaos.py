"""The chaos matrix: rehearse every fault class, assert bit-identity.

``repro campaign chaos`` is the chaos twin of ``campaign selfcheck``:
where selfcheck proves the fabric survives a SIGKILL from *outside*,
the chaos matrix activates the deterministic fault plane
(:mod:`~repro.campaign.fabric.faults`) and proves the fabric survives
every fault class it can inject from *inside*, with the surviving
store **bit-identical in cell content** to an uninjected reference
run.

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
                must degrade the executor to ``inline`` and finish.
``poison``      one cell kills every worker that touches it; it must
                be quarantined with a ``fabric:poison`` record while
                every *other* cell matches the reference.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import CampaignError
from ..grids import calibration_campaign
from ..runner import CampaignRunSummary, run_campaign
from ..spec import CampaignSpec
from ..stores import open_store
from .faults import FaultPlan, FaultSpec, activate, deactivate
from .selfcheck import _ok_content, compare_content

#: Every fault class the matrix can rehearse.
FAULT_CLASSES = (
    "crash",
    "hang",
    "slow",
    "store-io",
    "checkpoint",
    "crashloop",
    "poison",
)


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
    """How one fault class runs: its faults plus scheduling policy."""

    specs: Tuple[FaultSpec, ...]
    workers: int = 1
    max_attempts: int = 3
    cell_timeout_s: Optional[float] = None
    poison_threshold: int = 99
    crashloop_threshold: int = 99
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
            workers=2, max_attempts=10,
            crashloop_threshold=3,
        )
    if fault == "poison":
        return _CasePlan(
            specs=(FaultSpec("cell.crash", cell_id=target, times=99),),
            workers=2, max_attempts=10,
            poison_threshold=2,
        )
    raise CampaignError(
        f"unknown fault class {fault!r}; expected one of {FAULT_CLASSES}"
    )


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
    store_path = os.path.join(workdir, "store.jsonl")
    start = time.perf_counter()

    def run(resume: bool) -> CampaignRunSummary:
        return run_campaign(
            spec, store_path,
            workers=case.workers,
            resume=resume,
            max_attempts=case.max_attempts,
            cell_timeout_s=case.cell_timeout_s,
            poison_threshold=case.poison_threshold,
            crashloop_threshold=case.crashloop_threshold,
            backoff_base_s=0.01,
            backoff_cap_s=0.2,
        )

    activate(plan, os.path.join(workdir, "fault-plan.json"))
    try:
        if case.two_stage:
            run(resume=False)  # leaves an error record + checkpoint
            summary = run(resume=True)  # loads the corrupted sidecar
        else:
            summary = run(resume=False)
    finally:
        deactivate()
    duration = time.perf_counter() - start

    fired = sum(plan.fired(site) for site in {s.site for s in case.specs})
    mismatches: List[str] = []
    detail = ""
    if fault == "poison":
        # The poisoned cell must be quarantined (error record, no ok),
        # every other cell bit-identical.
        mismatches = compare_content(reference, store_path, ignore=(target,))
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
        detail = f"quarantined {target} after repeated worker kills"
    else:
        mismatches = compare_content(reference, store_path)
        if fault == "crashloop":
            if not summary.degraded:
                mismatches.append(
                    "crash-loop breaker never degraded the executor"
                )
            detail = f"degraded: {summary.degraded}"
        elif fault == "checkpoint":
            detail = "resume completed over a corrupted checkpoint"
        elif summary.failed:
            mismatches.append(
                f"{summary.failed} cells ended as errors; every cell "
                "should have survived this fault class"
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
