"""The sharded campaign scheduler: dispatch, retry, checkpoint, fold.

:class:`CampaignScheduler` owns everything between a
:class:`~repro.campaign.spec.CampaignSpec` and a finished store:

* expands the grid, subtracts completed cells, shards the remainder
  into :class:`~repro.campaign.fabric.executors.WorkUnit`\\ s sized for
  the executor,
* dispatches through an inline or worker executor and folds events --
  cells append to the store *as they arrive*, unit failures (worker
  crash, timeout) consume one retry attempt per pending cell and
  requeue *after a deterministic exponential backoff*,
* exhausted retry budgets become synthesized error records, so the
  campaign always terminates with one final outcome per cell,
* detects poison cells -- a cell whose worker deaths reach
  ``poison_threshold`` is quarantined with a ``fabric:poison`` record
  instead of burning more respawns -- and breaks crash loops by
  degrading a repeatedly-dying worker executor to ``inline`` with a
  loud warning,
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


@dataclass(frozen=True)
class FabricConfig:
    """Scheduling policy for one campaign run.

    The checkpoint sidecar has no cadence setting: the scheduler
    writes it whenever the retry state changes, and only then.

    Attributes:
        workers: Worker count (``1`` stays in-process, more runs owned
            worker processes).
        max_attempts: Attempts per cell before a synthesized error
            record.
        cell_timeout_s: Per-cell wall-clock budget (``None``: no
            timeout).  Only worker processes can be killed on it, so
            it needs ``workers > 1``.
        fsync_every: Store appends per fsync (``1``: every record,
            ``0``: only on close).
        backoff_base_s: First-retry backoff scale; retries wait
            ``min(cap, base * 2**(attempt-1))`` scaled by a
            deterministic jitter in ``[0.5, 1.0)`` derived from
            ``(master_seed, cell_id, attempt)``.
        backoff_cap_s: Upper bound the retry backoff saturates at.
        poison_threshold: Worker deaths attributed to one cell before
            it is quarantined (a synthesized ``fabric:poison`` error
            record, persisted in the checkpoint sidecar) instead of
            burning more respawns and retry budget.
        crashloop_threshold: Consecutive worker-death polls with zero
            completed cells before the breaker degrades the worker
            executor to ``inline`` with a loud warning.
    """

    workers: int = 1
    max_attempts: int = 2
    cell_timeout_s: Optional[float] = None
    fsync_every: int = 1
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    poison_threshold: int = 3
    crashloop_threshold: int = 5

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
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise CampaignError("backoff delays must be >= 0")
        if self.poison_threshold < 1:
            raise CampaignError(
                f"poison_threshold must be >= 1, got "
                f"{self.poison_threshold}"
            )
        if self.crashloop_threshold < 1:
            raise CampaignError(
                f"crashloop_threshold must be >= 1, got "
                f"{self.crashloop_threshold}"
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
        self._attempts: Dict[str, int] = {}
        #: Worker deaths attributed per cell (poison accounting).
        self._worker_kills: Dict[str, int] = {}
        #: Cells quarantined as poison (never requeued again).
        self._quarantined: "set[str]" = set()
        #: Degradation note once the crash-loop breaker has fired.
        self._degraded: Optional[str] = None
        #: Retry payloads waiting out their backoff:
        #: ``(ready_at_monotonic, payload)``.
        self._backoff: List[Tuple[float, Dict[str, Any]]] = []
        #: Consecutive worker-death polls without a completed cell.
        self._death_streak = 0
        #: The retry state the sidecar on disk holds, as compared by
        #: :meth:`_save_checkpoint`: empty when there is no sidecar,
        #: ``None`` when unknown, which forces the next save.
        self._persisted: Optional[Tuple[Any, ...]] = (
            {}, {}, set(), None, set()
        )
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
        kills = state.get("kills", {})
        if isinstance(kills, dict):
            self._worker_kills = {
                str(cell_id): int(count)
                for cell_id, count in kills.items()
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
        attempts, kills = self._attempts, self._worker_kills
        quarantined, degraded = self._quarantined, self._degraded
        backoff = {payload["cell_id"] for _, payload in self._backoff}
        if self._persisted == (attempts, kills, quarantined, degraded,
                               backoff):
            return
        path = self._checkpoint_path(store)
        now_monotonic = time.monotonic()
        now_wall = time.time()
        state = {
            "spec_hash": self.spec.spec_hash(),
            "attempts": attempts,
            "kills": kills,
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
        self._persisted = (dict(attempts), dict(kills), set(quarantined),
                           degraded, backoff)

    def _clear_checkpoint(self, store: Any) -> None:
        try:
            os.remove(self._checkpoint_path(store))
        except OSError:
            pass

    # -- the run ---------------------------------------------------------

    def run(self, resume: bool = False,
            progress: Optional[ProgressFn] = None) -> CampaignRunSummary:
        """Execute the campaign; see :func:`repro.campaign.run_campaign`."""
        config = self.config
        if os.environ.get("REPRO_FAULT_PLAN"):
            # A plan inherited through the environment (a CLI subprocess
            # under chaos) has no recorded parent yet; claim it so the
            # worker-only fault sites never SIGKILL the orchestrator.
            from .faults import PARENT_PID_ENV
            os.environ.setdefault(PARENT_PID_ENV, str(os.getpid()))
        store = open_store(self.store_path, fsync_every=config.fsync_every)
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
                saw_done = False
                saw_death = False
                for event in events:
                    if isinstance(event, CellDone):
                        saw_done = True
                        record_result(event.result)
                    elif isinstance(event, UnitFailed):
                        saw_death = saw_death or event.worker_death
                        self._absorb_failure(store, event, record_result,
                                             summary)
                        # Persist the spent attempts before any later
                        # record lands.
                        self._save_checkpoint(store)
                # Crash-loop accounting: a poll that completed any cell
                # is progress; a poll that only killed workers is one
                # step toward the breaker.
                if saw_done:
                    self._death_streak = 0
                elif saw_death:
                    self._death_streak += 1
                if (
                    self._death_streak >= config.crashloop_threshold
                    and not isinstance(self._executor, InlineExecutor)
                ):
                    submit(self._degrade_executor(store, summary))
                # The poll's other changes: drained backoff waits, a
                # breaker trip.
                self._save_checkpoint(store)
        finally:
            self._executor.shutdown()
            self._executor = None

    def _degrade_executor(self, store: Any,
                          summary: CampaignRunSummary
                          ) -> List[Dict[str, Any]]:
        """Break a crash loop: swap the dying executor for ``inline``.

        The old executor surrenders its queued and in-flight work
        (no retry attempts are charged -- the loop is the executor's
        fault, not the cells'), and the surrendered payloads run
        in-process instead of respawning workers forever.  Loud on
        purpose: silent degradation would hide a real infrastructure
        problem.
        """
        old = self._executor
        abandoned = old.abandon()
        old.shutdown()
        self._degraded = (
            f"{old.name}->inline after {self._death_streak} consecutive "
            "worker-death polls with no completed cells"
        )
        summary.degraded = self._degraded
        timeouts = (
            f"; the {self.config.cell_timeout_s:g}s cell timeout is no "
            "longer enforced"
            if self.config.cell_timeout_s is not None else ""
        )
        print(
            f"fabric WARNING: crash-loop breaker tripped -- executor "
            f"{old.name!r} lost workers on "
            f"{self._death_streak} consecutive polls without completing "
            "a cell; degrading to 'inline' (in-process) for the rest of "
            f"the run{timeouts}",
            file=sys.stderr, flush=True,
        )
        self._death_streak = 0
        self._executor = InlineExecutor()
        return [
            payload for event in abandoned for payload in event.pending
        ]

    def _poison_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The synthesized error record for a quarantined cell."""
        kills = self._worker_kills.get(payload["cell_id"], 0)
        return {
            "cell_id": payload["cell_id"],
            "kind": payload["kind"],
            "params": dict(payload["params"]),
            "seed": int(payload["seed"]),
            "spec_hash": payload["spec_hash"],
            "status": "error",
            "metrics": None,
            "error": (
                f"fabric:poison cell killed {kills} workers "
                f"(threshold {self.config.poison_threshold}); quarantined"
            ),
            "duration_s": 0.0,
            "finished_at": time.time(),
            "worker": 0,
        }

    def _absorb_failure(self, store: Any, event: UnitFailed,
                        record_result: Any,
                        summary: CampaignRunSummary) -> None:
        """Fold one unit failure into retry/poison/error bookkeeping.

        Worker deaths are attributed to the unit's first unfinished
        cell (cells run in order, so that is the one the worker died
        under); a cell whose kills reach ``poison_threshold`` is
        quarantined with a synthesized ``fabric:poison`` record and an
        immediate checkpoint.  Everything else spends one retry
        attempt and, if budget remains, waits out a deterministic
        exponential backoff before requeueing.
        """
        config = self.config
        victim = (
            event.pending[0]["cell_id"]
            if event.worker_death and event.pending else None
        )
        for payload in event.pending:
            cell_id = payload["cell_id"]
            if cell_id in self._quarantined:
                continue  # verdict already recorded
            if cell_id == victim:
                kills = self._worker_kills.get(cell_id, 0) + 1
                self._worker_kills[cell_id] = kills
                if kills >= config.poison_threshold:
                    self._quarantined.add(cell_id)
                    summary.quarantined += 1
                    # Checkpoint *before* the record lands: the verdict
                    # must survive a SIGKILL, or a resume would burn
                    # fresh workers rediscovering the poison.  A kill
                    # between the two leaves a verdict without its
                    # record, which the resume re-settles.
                    self._save_checkpoint(store)
                    record_result(self._poison_payload(payload))
                    continue
            attempts = self._attempts.get(cell_id, 0) + 1
            self._attempts[cell_id] = attempts
            if attempts < config.max_attempts:
                summary.retried += 1
                delay = backoff_delay(
                    cell_id, attempts,
                    base_s=config.backoff_base_s,
                    cap_s=config.backoff_cap_s,
                    seed=self.spec.master_seed,
                )
                self._backoff.append((time.monotonic() + delay, payload))
            else:
                record_result({
                    "cell_id": cell_id,
                    "kind": payload["kind"],
                    "params": dict(payload["params"]),
                    "seed": int(payload["seed"]),
                    "spec_hash": payload["spec_hash"],
                    "status": "error",
                    "metrics": None,
                    "error": (
                        f"fabric: {event.reason} "
                        f"(attempt {attempts}/{config.max_attempts})"
                    ),
                    "duration_s": 0.0,
                    "finished_at": time.time(),
                    "worker": 0,
                })
