"""Campaign execution: parallel, persistent, resumable.

:func:`run_campaign` expands a :class:`CampaignSpec` into cells,
subtracts the cells already completed in the store (``resume``), and
executes the remainder through the campaign fabric
(:mod:`repro.campaign.fabric`): cells are sharded into work units and
dispatched through an executor -- in-process when ``workers == 1``
(pure, debuggable, no forks), otherwise N owned, crash-recovering
worker processes.  Each cell runs with the scale reseeded to the
cell's derived seed, so results are identical whether a cell runs
serially, on a worker, today or in a resumed run next week.  Only the
parent process writes to the store: workers return plain dicts and the
parent appends records as they arrive.

This module keeps the cell-level primitive (:func:`execute_cell`)
that workers actually run; scheduling policy --
retries, timeouts, checkpoints, streaming aggregation -- lives in
:class:`repro.campaign.fabric.CampaignScheduler`.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..experiments.scale import ExperimentScale
from .registry import get_adapter
from .spec import CampaignCell, CampaignSpec
from .store import CellRecord

#: Progress callback: (record, done_count, total_count).
ProgressFn = Callable[[CellRecord, int, int], None]


@dataclass
class CampaignRunSummary:
    """Outcome of one ``run_campaign`` invocation.

    Attributes:
        total: Cells in the spec's expansion.
        skipped: Cells already complete in the store (resume).
        executed: Cells run by this invocation.
        failed: Executed cells whose final outcome is an error.
        duration_s: Wall-clock time of this invocation.
        records: The records appended by this invocation.
        retried: Retries the fabric scheduled for cells whose worker
            died under them (crash or timeout kill).
        quarantined: Cells quarantined as poison (each killed its
            worker on every one of ``max_attempts >= 2`` attempts and
            got a synthesized ``fabric:poison`` error record).
        degraded: Degradation note when the crash-loop breaker swapped
            a repeatedly-dying executor for ``inline`` (``None``
            otherwise).
    """

    total: int
    skipped: int
    executed: int
    failed: int
    duration_s: float
    records: List[CellRecord] = field(default_factory=list)
    retried: int = 0
    quarantined: int = 0
    degraded: Optional[str] = None

    @property
    def completed(self) -> int:
        """Cells now complete in the store."""
        return self.skipped + self.executed - self.failed


def execute_cell(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one cell and return its record payload.

    Module-level and dict-in/dict-out so it crosses the worker queues
    cleanly; also the ``workers == 1`` code path, so both modes share
    one implementation.
    """
    if os.environ.get("REPRO_FAULT_PLAN"):
        # The fault plane's cell sites (crash/hang/slow) fire here, in
        # whatever process executes the cell.  Lazy import: the fabric
        # imports this module at import time.
        from .fabric.faults import fire_cell_faults
        fire_cell_faults(payload["cell_id"])
    scale = ExperimentScale.from_dict(payload["scale"]).with_seed(
        int(payload["seed"])
    )
    record: Dict[str, Any] = {
        "cell_id": payload["cell_id"],
        "kind": payload["kind"],
        "params": dict(payload["params"]),
        "seed": int(payload["seed"]),
        "spec_hash": payload["spec_hash"],
        "worker": os.getpid(),
    }
    start = time.perf_counter()
    try:
        adapter = get_adapter(payload["kind"])
        metrics = adapter.run(payload["params"], scale)
    except Exception as exc:  # noqa: BLE001 - a cell must never kill the run
        record.update(
            status="error",
            metrics=None,
            error="".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
        )
    else:
        record.update(status="ok", metrics=metrics, error=None)
    record["duration_s"] = time.perf_counter() - start
    record["finished_at"] = time.time()
    return record


def _cell_payload(cell: CampaignCell, spec: CampaignSpec,
                  spec_hash: str) -> Dict[str, Any]:
    return {
        "cell_id": cell.cell_id,
        "kind": cell.kind,
        "params": dict(cell.params),
        "seed": cell.seed,
        "spec_hash": spec_hash,
        "scale": spec.scale.to_dict(),
    }


def run_campaign(
    spec: CampaignSpec,
    store_path: str,
    workers: int = 1,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    max_attempts: int = 2,
    cell_timeout_s: Optional[float] = None,
) -> CampaignRunSummary:
    """Execute a campaign against a persistent store.

    Beyond ``max_attempts`` and ``cell_timeout_s``, failure handling
    has no options: retries back off by the scheduler's constants,
    every record is fsynced, and the crash-loop breaker trips when
    worker deaths hit more distinct cells than ``workers`` with none
    completing (see :mod:`repro.campaign.fabric.scheduler`).

    Args:
        spec: The campaign definition.
        store_path: Path of the JSONL store.
        workers: Worker count; ``1`` runs every cell in-process, more
            runs them on that many owned worker processes.
        resume: Extend an existing store, skipping completed cells.
            The store's spec hash must match ``spec`` exactly.
        progress: Optional per-cell callback.
        max_attempts: Attempts per cell.  A worker death (crash or
            timeout kill) charges one attempt to the cell it died
            under, and only to it.  A cell whose worker died on every
            one of ``max_attempts >= 2`` attempts is quarantined with a
            ``fabric:poison`` record; with one attempt, the death is a
            plain ``fabric:`` error record that a resume runs again.
        cell_timeout_s: Per-cell wall-clock budget; exceeding it kills
            the worker and charges the cell one attempt.

    Returns:
        A :class:`CampaignRunSummary`; per-cell failures are recorded,
        not raised, so one broken cell cannot abort a 48-hour campaign.

    Raises:
        CampaignError: The store exists but ``resume`` was not given,
            or ``workers < 1``.
        StoreIntegrityError: Resuming with a changed spec.
    """
    # Imported lazily: the fabric imports execute_cell from this
    # module at import time.
    from .fabric import CampaignScheduler, FabricConfig

    config = FabricConfig(
        workers=workers,
        max_attempts=max_attempts,
        cell_timeout_s=cell_timeout_s,
    )
    scheduler = CampaignScheduler(spec, store_path, config)
    return scheduler.run(resume=resume, progress=progress)
