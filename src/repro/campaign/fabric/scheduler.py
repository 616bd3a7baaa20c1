"""The sharded campaign scheduler: dispatch, retry, checkpoint, fold.

:class:`CampaignScheduler` owns everything between a
:class:`~repro.campaign.spec.CampaignSpec` and a finished store:

* expands the grid, subtracts completed cells, shards the remainder
  into :class:`~repro.campaign.fabric.executors.WorkUnit`\\ s sized for
  the executor,
* dispatches through an inline or worker executor and folds events --
  cells append to the store *as they arrive*,
* applies one failure policy with no options beyond ``workers`` and
  ``max_attempts``.  A worker death (crash or timeout kill) charges
  one attempt to the cell the worker died under, and only to it: the
  unit's other unfinished cells never ran and requeue at no charge.  A
  charged cell retries *after a deterministic exponential backoff*
  (:data:`BACKOFF_BASE_S`, :data:`BACKOFF_CAP_S`).  A cell whose
  worker died on every one of ``max_attempts >= 2`` attempts is
  poison: it is quarantined with a ``fabric:poison`` record.  With
  ``max_attempts == 1`` the death gets a plain ``fabric:`` error
  record, which a resume runs again,
* breaks crash loops: when worker deaths hit more distinct cells than
  there are workers with no cell completing in between, the executor
  is at fault, not the cells.  The attempts charged during that streak
  are refunded and the worker executor degrades to ``inline`` with a
  loud warning.  A streak of at most ``workers`` poison cells
  therefore never trips it,
* persists a checkpoint sidecar (attempt counts, quarantine state,
  degradation, live backoff waits) atomically alongside the store
  each time that state changes (a clean run writes none), so
  ``--resume`` after a SIGKILL continues mid-grid with the retry
  budget *and quarantine decisions* intact,
* streams every record through a
  :class:`~repro.campaign.fabric.streaming.StreamingAggregator`, so
  paper tables and progress are live during the run.

Determinism contract: cell content depends only on the spec (derived
seeds), never on sharding, executor choice, retries or interleaving --
which is what makes a killed-and-resumed store bit-identical in cell
content to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ...errors import CampaignError
from ..runner import CampaignRunSummary, ProgressFn, _cell_payload
from ..spec import CampaignSpec
from ..store import CellRecord
from ..stores import open_store
from .executors import (
    CellDone,
    InlineExecutor,
    UnitFailed,
    WorkUnit,
    make_executor,
)
from .faults import backoff_delay
from .streaming import StreamingAggregator

#: Checkpoint sidecar name (lives next to the store).
CHECKPOINT_NAME = "fabric.json"

#: Seconds of estimated work one worker unit should carry once the
#: streaming aggregator has a live cells/s estimate.
ADAPTIVE_UNIT_SECONDS = 2.0

#: Hard cap on cells per unit, so one unit never monopolises a worker.
MAX_SHARD_SIZE = 16

#: Seconds one executor poll (or backoff wait) blocks at most.
POLL_INTERVAL_S = 0.25

#: Retry backoff: the n-th retry of a cell waits
#: ``min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**(n-1))`` scaled by a
#: deterministic jitter in ``[0.5, 1.0)`` (see :func:`backoff_delay`).
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


@dataclass(frozen=True)
class FabricConfig:
    """Scheduling options for one campaign run.

    Failure handling has no further options: the poison verdict
    derives from ``max_attempts``, the crash-loop breaker from
    ``workers``, and the retry backoff is a pair of module constants.
    The checkpoint sidecar has no cadence setting either: the
    scheduler writes it whenever the retry state changes, and only
    then.

    Attributes:
        workers: Worker count (``1`` stays in-process, more runs owned
            worker processes).
        max_attempts: Attempts per cell.  A spent budget is a
            synthesized error record: ``fabric:poison`` (quarantined)
            when the worker died on every one of ``max_attempts >= 2``
            attempts, a plain ``fabric:`` error otherwise.
        cell_timeout_s: Per-cell wall-clock budget (``None``: no
            timeout).  Only worker processes can be killed on it, so
            it needs ``workers > 1``.
    """

    workers: int = 1
    max_attempts: int = 2
    cell_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise CampaignError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.cell_timeout_s is not None and self.workers == 1:
            raise CampaignError(
                "a cell timeout needs workers > 1: one worker runs cells "
                "in-process, where nothing can stop a cell that overruns"
            )
        if self.max_attempts < 1:
            raise CampaignError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def resolve_shard_size(self, pending: int,
                           cells_per_s: Optional[float] = None) -> int:
        """Cells per unit for this batch of work.

        The inline executor takes single-cell units: results land (and
        persist) per cell.  Worker processes pay a queue round-trip per
        unit, so they get coarser shards.  With no throughput estimate
        yet (the initial submit) the static heuristic applies -- about
        four units per worker across the run.  Once the streaming
        aggregator has a live ``cells_per_s``, units are sized to carry
        roughly :data:`ADAPTIVE_UNIT_SECONDS` of work per worker instead:
        sub-second calibration cells coalesce into coarse units, while
        multi-second paper cells requeue as fine-grained (often
        single-cell) units so a retry never re-runs a long stretch of
        finished work.  Either way the size is capped at
        :data:`MAX_SHARD_SIZE` and at the work actually pending.
        """
        if self.workers == 1:
            return 1
        if cells_per_s and cells_per_s > 0:
            per_unit = int((cells_per_s / self.workers)
                           * ADAPTIVE_UNIT_SECONDS)
            return max(1, min(per_unit, MAX_SHARD_SIZE, pending))
        per_worker = max(1, pending // (self.workers * 4))
        return min(per_worker, MAX_SHARD_SIZE)


class CampaignScheduler:
    """Run one campaign spec to completion against a store."""

    def __init__(self, spec: CampaignSpec, store_path: str,
                 config: Optional[FabricConfig] = None) -> None:
        self.spec = spec
        self.store_path = store_path
        self.config = config or FabricConfig()
        #: Live aggregate of every record this run has seen (including
        #: records folded from the store on resume).
        self.aggregator = StreamingAggregator(spec)
        #: Attempts charged per cell: one per worker death under it.
        self._attempts: Dict[str, int] = {}
        #: Cells quarantined as poison (never requeued again).
        self._quarantined: "set[str]" = set()
        #: Degradation note once the crash-loop breaker has fired.
        self._degraded: Optional[str] = None
        #: Payloads waiting to requeue, ``(ready_at_monotonic,
        #: payload)``: retries wait out their backoff, a dead unit's
        #: uncharged cells are ready at once.
        self._backoff: List[Tuple[float, Dict[str, Any]]] = []
        #: The crash-loop streak: attempts charged per cell since the
        #: last completed cell, refunded if the breaker trips.
        self._streak: Dict[str, int] = {}
        #: The retry state the sidecar on disk holds, as compared by
        #: :meth:`_save_checkpoint`: empty when there is no sidecar,
        #: ``None`` when unknown, which forces the next save.
        self._persisted: Optional[Tuple[Any, ...]] = ({}, set(), None, set())
        self._executor: Any = None

    # -- checkpointing ---------------------------------------------------

    def _checkpoint_path(self, store: Any) -> str:
        return store.sidecar_path(CHECKPOINT_NAME)

    def _load_checkpoint(self, store: Any) -> None:
        path = self._checkpoint_path(store)
        if not os.path.exists(path):
            return
        if os.environ.get("REPRO_FAULT_PLAN"):
            # Fault site: scribble over the sidecar just before the
            # load, proving the tolerance path below.
            from .faults import fire_checkpoint_corrupt
            fire_checkpoint_corrupt(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return  # a torn checkpoint costs only retry-budget memory
        if state.get("spec_hash") != self.spec.spec_hash():
            return
        attempts = state.get("attempts", {})
        if isinstance(attempts, dict):
            self._attempts = {
                str(cell_id): int(count)
                for cell_id, count in attempts.items()
            }
        quarantined = state.get("quarantined", [])
        if isinstance(quarantined, list):
            self._quarantined = {str(cell_id) for cell_id in quarantined}
        # ``degraded`` and ``backoff`` are per-run observability state
        # (surfaced by ``campaign watch``); a fresh run starts clean.

    def _save_checkpoint(self, store: Any) -> None:
        """Persist the retry state if it differs from the sidecar's.

        Called after every step that can change that state; a clean
        run never changes it, so it never writes.  Backoff deadlines
        are written but not compared: only the set of waiting cells is.
        """
        attempts, quarantined = self._attempts, self._quarantined
        degraded = self._degraded
        backoff = {payload["cell_id"] for _, payload in self._backoff}
        if self._persisted == (attempts, quarantined, degraded, backoff):
            return
        path = self._checkpoint_path(store)
        now_monotonic = time.monotonic()
        now_wall = time.time()
        state = {
            "spec_hash": self.spec.spec_hash(),
            "attempts": attempts,
            "quarantined": sorted(quarantined),
            "degraded": degraded,
            # Wall-clock deadlines so an outside watcher can render
            # "how long until the retry" without our monotonic base.
            "backoff": {
                payload["cell_id"]: round(
                    now_wall + max(0.0, ready_at - now_monotonic), 3
                )
                for ready_at, payload in self._backoff
            },
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._persisted = (dict(attempts), set(quarantined), degraded,
                           backoff)

    def _clear_checkpoint(self, store: Any) -> None:
        try:
            os.remove(self._checkpoint_path(store))
        except OSError:
            pass

    # -- the run ---------------------------------------------------------

    def run(self, resume: bool = False,
            progress: Optional[ProgressFn] = None) -> CampaignRunSummary:
        """Execute the campaign; see :func:`repro.campaign.run_campaign`."""
        if os.environ.get("REPRO_FAULT_PLAN"):
            # A plan inherited through the environment (a CLI subprocess
            # under chaos) has no recorded parent yet; claim it so the
            # worker-only fault sites never SIGKILL the orchestrator.
            from .faults import PARENT_PID_ENV
            os.environ.setdefault(PARENT_PID_ENV, str(os.getpid()))
        store = open_store(self.store_path)
        # The one grid expansion of the run: it also sizes the header
        # and the aggregator's per-kind progress totals.
        cells = self.spec.expand()
        self.aggregator.count_grid(cells)
        # A sidecar already on disk (valid, torn or stale) is rewritten
        # at the first save point.
        if os.path.exists(self._checkpoint_path(store)):
            self._persisted = None
        completed: set = set()
        recorded: set = set()
        if store.exists():
            if not resume:
                raise CampaignError(
                    f"store {self.store_path!r} already holds a campaign; "
                    "resume it (--resume / resume=True) to extend it, or "
                    "choose a new path"
                )
            store.verify_spec(self.spec)
            records = store.cell_records()
            completed = {r.cell_id for r in records if r.ok}
            recorded = {r.cell_id for r in records}
            self.aggregator.seed(records)
            self._load_checkpoint(store)
        else:
            store.initialise(self.spec, cell_count=len(cells))

        spec_hash = self.spec.spec_hash()
        # Quarantined cells stay out of the grid on resume: the
        # checkpoint remembers the poison verdict, so a resumed run
        # never burns fresh workers rediscovering it.
        pending = [
            c for c in cells
            if c.cell_id not in completed
            and c.cell_id not in self._quarantined
        ]
        summary = CampaignRunSummary(
            total=len(cells),
            skipped=len(cells) - len(pending),
            executed=0,
            failed=0,
            duration_s=0.0,
        )
        start = time.perf_counter()

        def record_result(payload: Dict[str, Any]) -> None:
            record = CellRecord.from_dict({"type": "cell", **payload})
            store.append_cell(record)
            self.aggregator.fold(record)
            summary.records.append(record)
            summary.executed += 1
            if not record.ok:
                summary.failed += 1
            if progress is not None:
                progress(record, summary.skipped + summary.executed,
                         len(cells))

        try:
            # A quarantined cell normally already has its poison record
            # (appended right after the checkpoint was saved); if a
            # crash lost the record, re-settle it so the campaign still
            # terminates with one final outcome per cell.
            for cell in cells:
                if (
                    cell.cell_id in self._quarantined
                    and cell.cell_id not in recorded
                ):
                    record_result(self._poison_payload(
                        _cell_payload(cell, self.spec, spec_hash)
                    ))
            if pending:
                self._dispatch_loop(
                    store, pending, spec_hash, record_result, summary
                )
            if summary.completed == summary.total:
                self._clear_checkpoint(store)
            else:
                self._save_checkpoint(store)
        finally:
            store.close()
        summary.duration_s = time.perf_counter() - start
        summary.quarantined = len(self._quarantined)
        summary.degraded = self._degraded
        return summary

    def _dispatch_loop(self, store: Any, pending: List[Any],
                       spec_hash: str, record_result: Any,
                       summary: CampaignRunSummary) -> None:
        config = self.config
        self._executor = make_executor(config.workers,
                                       config.cell_timeout_s)
        next_unit_id = 0

        def submit(payloads: List[Dict[str, Any]]) -> None:
            nonlocal next_unit_id
            payloads = [
                p for p in payloads
                if p["cell_id"] not in self._quarantined
            ]
            if not payloads:
                return
            # Re-resolved per submit: the initial batch uses the static
            # heuristic, requeues adapt to the observed cell rate.
            shard_size = config.resolve_shard_size(
                len(payloads), self.aggregator.cells_per_s
            )
            for index in range(0, len(payloads), shard_size):
                self._executor.submit(WorkUnit(
                    unit_id=next_unit_id,
                    payloads=tuple(payloads[index:index + shard_size]),
                ))
                next_unit_id += 1

        try:
            self._executor.start()
            submit([
                _cell_payload(cell, self.spec, spec_hash)
                for cell in pending
            ])
            while self._executor.outstanding() or self._backoff:
                now = time.monotonic()
                if self._backoff:
                    ready = [p for t, p in self._backoff if t <= now]
                    if ready:
                        self._backoff = [
                            (t, p) for t, p in self._backoff if t > now
                        ]
                        submit(ready)
                if not self._executor.outstanding():
                    # Everything left is waiting out a backoff.
                    next_ready = min(t for t, _ in self._backoff)
                    time.sleep(min(POLL_INTERVAL_S,
                                   max(0.0, next_ready - now)))
                    continue
                events = self._executor.poll(POLL_INTERVAL_S)
                for event in events:
                    if isinstance(event, CellDone):
                        # Progress: the streak's charges stand.
                        self._streak.clear()
                        record_result(event.result)
                    else:
                        self._absorb_failure(store, event, record_result,
                                             summary)
                        # Persist the spent attempt before any later
                        # record lands.
                        self._save_checkpoint(store)
                if len(self._streak) > config.workers:
                    submit(self._degrade_executor(summary))
                # The poll's other changes: drained backoff waits, a
                # breaker trip.
                self._save_checkpoint(store)
        finally:
            self._executor.shutdown()
            self._executor = None

    def _degrade_executor(self, summary: CampaignRunSummary
                          ) -> List[Dict[str, Any]]:
        """Break a crash loop: swap the dying executor for ``inline``.

        Worker deaths under more distinct cells than there are workers,
        with none completing, are the executor's fault, not the cells':
        the attempts the streak charged are refunded (a quarantine
        verdict already recorded stands).  The old executor surrenders
        its queued and in-flight work, which runs in-process instead of
        respawning workers forever.  Loud on purpose: silent
        degradation would hide a real infrastructure problem.
        """
        for cell_id, charged in self._streak.items():
            if cell_id in self._quarantined:
                continue
            left = self._attempts[cell_id] - charged
            if left:
                self._attempts[cell_id] = left
            else:
                del self._attempts[cell_id]
        hit, workers = len(self._streak), self.config.workers
        self._streak.clear()
        old = self._executor
        abandoned = old.abandon()
        old.shutdown()
        self._degraded = (
            f"{old.name}->inline after worker deaths under {hit} distinct "
            f"cells (more than the {workers} workers) with no completed "
            "cell; their attempts were refunded"
        )
        summary.degraded = self._degraded
        timeouts = (
            f"; the {self.config.cell_timeout_s:g}s cell timeout is no "
            "longer enforced"
            if self.config.cell_timeout_s is not None else ""
        )
        print(
            f"fabric WARNING: crash-loop breaker tripped -- executor "
            f"{old.name!r} lost workers under {hit} distinct cells, more "
            f"than its {workers} workers, without completing a cell; "
            "refunding their attempts and degrading to 'inline' "
            f"(in-process) for the rest of the run{timeouts}",
            file=sys.stderr, flush=True,
        )
        self._executor = InlineExecutor()
        return [
            payload for event in abandoned for payload in event.pending
        ]

    def _error_payload(self, payload: Dict[str, Any],
                       error: str) -> Dict[str, Any]:
        """A synthesized error record for a cell the fabric gave up on."""
        return {
            "cell_id": payload["cell_id"],
            "kind": payload["kind"],
            "params": dict(payload["params"]),
            "seed": int(payload["seed"]),
            "spec_hash": payload["spec_hash"],
            "status": "error",
            "metrics": None,
            "error": error,
            "duration_s": 0.0,
            "finished_at": time.time(),
            "worker": 0,
        }

    def _poison_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The synthesized error record for a quarantined cell."""
        attempts = self._attempts.get(payload["cell_id"], 0)
        return self._error_payload(
            payload,
            f"fabric:poison cell killed its worker on all {attempts} "
            "attempts; quarantined",
        )

    def _absorb_failure(self, store: Any, event: UnitFailed,
                        record_result: Any,
                        summary: CampaignRunSummary) -> None:
        """Fold one worker death into retry, poison and error records.

        Cells run in order, so the worker died under the unit's first
        unfinished cell: that cell alone spends an attempt and joins the
        crash-loop streak.  The unit's other unfinished cells never ran:
        they requeue at once, charged nothing.  With budget left, the
        charged cell waits out a deterministic exponential backoff
        before its retry.  With the budget spent it is poison when
        ``max_attempts >= 2``: the verdict is checkpointed, then
        recorded as ``fabric:poison``, and the cell is quarantined.
        With one attempt, the death gets a plain ``fabric:`` error
        record that a resume runs again.
        """
        if not event.pending:
            return  # the worker died between cells
        payload, *innocent = event.pending
        now = time.monotonic()
        self._backoff.extend((now, other) for other in innocent)
        cell_id = payload["cell_id"]
        attempts = self._attempts.get(cell_id, 0) + 1
        self._attempts[cell_id] = attempts
        self._streak[cell_id] = self._streak.get(cell_id, 0) + 1
        max_attempts = self.config.max_attempts
        if attempts < max_attempts:
            summary.retried += 1
            delay = backoff_delay(
                cell_id, attempts,
                base_s=BACKOFF_BASE_S, cap_s=BACKOFF_CAP_S,
                seed=self.spec.master_seed,
            )
            self._backoff.append((now + delay, payload))
        elif max_attempts >= 2:
            self._quarantined.add(cell_id)
            # Checkpoint *before* the record lands: the verdict must
            # survive a SIGKILL, or a resume would burn fresh workers
            # rediscovering the poison.  A kill between the two leaves
            # a verdict without its record, which the resume re-settles.
            self._save_checkpoint(store)
            record_result(self._poison_payload(payload))
        else:
            record_result(self._error_payload(
                payload,
                f"fabric: {event.reason} (attempt {attempts}/{max_attempts})",
            ))
