"""Executors: where and how work units actually run.

The scheduler speaks one protocol -- ``start()``, ``submit(WorkUnit)``,
``poll()`` for events, ``outstanding()``, ``abandon()`` and
``shutdown()`` -- and two executors implement it:

* :class:`InlineExecutor` -- every cell in-process (pure, debuggable,
  no forks; the ``workers == 1`` path).
* :class:`WorkerExecutor` -- N long-lived worker processes the
  executor owns outright, fed one unit at a time over per-worker
  queues with per-cell progress reporting on a per-worker result
  pipe, so a worker killed mid-message can only lose its own
  messages, never block another worker's.  The parent knows exactly
  which unit each worker holds, detects death by liveness, enforces
  per-cell timeouts by killing only the stuck worker, and requeues
  only the cells the worker never reported.  A worker whose parent
  dies exits on its own instead of lingering as an orphan.

Executors never decide policy: they report what happened and the
scheduler owns retries, error records and checkpointing.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_channels
from typing import Any, Deque, Dict, List, Optional

from ..runner import execute_cell

#: Seconds an idle worker waits on its task queue before checking that
#: its parent is still alive.
PARENT_CHECK_S = 0.5


@dataclass(frozen=True)
class WorkUnit:
    """One shard of the grid: the unit executors dispatch and retry."""

    unit_id: int
    payloads: "tuple[Dict[str, Any], ...]"


@dataclass(frozen=True)
class CellDone:
    """One cell finished (ok or error-status record payload)."""

    unit_id: int
    result: Dict[str, Any]


@dataclass(frozen=True)
class UnitFailed:
    """A unit that produced no result for ``pending``.

    :meth:`WorkerExecutor.poll` reports one when the worker holding the
    unit died (crash or timeout kill); cells run in order, so it died
    under ``pending[0]``.  ``abandon()`` reports one per surrendered
    unit, an orderly handoff with reason ``"executor abandoned"``.
    """

    unit_id: int
    pending: "tuple[Dict[str, Any], ...]"
    reason: str


Event = Any


class InlineExecutor:
    """Run every cell in the calling process.

    Cells run to completion in the caller's own thread, so there is no
    per-cell timeout here: :class:`FabricConfig` refuses one with a
    single worker.
    """

    name = "inline"

    def __init__(self) -> None:
        self._queue: Deque[WorkUnit] = deque()

    def start(self) -> None:
        """Nothing to allocate."""

    def shutdown(self) -> None:
        """Nothing to release."""

    def submit(self, unit: WorkUnit) -> None:
        self._queue.append(unit)

    def poll(self, timeout: float = 0.25) -> List[Event]:
        if not self._queue:
            return []
        unit = self._queue.popleft()
        return [
            CellDone(unit.unit_id, execute_cell(payload))
            for payload in unit.payloads
        ]

    def outstanding(self) -> int:
        return len(self._queue)

    def abandon(self) -> List[UnitFailed]:
        """Surrender every queued unit as an orderly ``UnitFailed``."""
        events = [
            UnitFailed(unit.unit_id, unit.payloads, "executor abandoned")
            for unit in self._queue
        ]
        self._queue.clear()
        return events


def _worker_main(task_queue, results) -> None:
    """Worker loop: pull a unit, report per-cell progress, repeat.

    Runs in a child process.  The ``claim`` message before each cell is
    what lets the parent requeue precisely the unreported cells when
    this process dies mid-unit.  Between units the worker checks that
    the parent it started under is still alive: a SIGKILLed parent
    cannot shut its workers down, so they exit by themselves
    (``os._exit`` skips flushing results nobody will read).

    ``results`` is the write end of a pipe only this worker holds, and
    ``send`` writes from the calling thread: a process-shared queue
    would write from a feeder thread under a lock shared by every
    worker, and a worker SIGKILLed while its feeder held that lock
    would block every other worker's results for good.
    """
    parent = os.getppid()
    while True:
        try:
            item = task_queue.get(timeout=PARENT_CHECK_S)
        except queue_module.Empty:
            if os.getppid() != parent:
                os._exit(0)
            continue
        if item is None:
            break
        unit_id, payloads = item
        for payload in payloads:
            results.send(("claim", unit_id, payload["cell_id"]))
            record = execute_cell(payload)
            results.send(("done", unit_id, record))
        results.send(("unit-done", unit_id, None))


@dataclass
class _WorkerSlot:
    process: Any
    task_queue: Any
    #: Read end of the worker's result pipe.
    results: Any
    unit: Optional[WorkUnit] = None
    reported: "set[str]" = field(default_factory=set)
    last_progress: float = 0.0
    #: The result pipe reached EOF: the worker is gone.
    closed: bool = False


class WorkerExecutor:
    """N owned worker processes fed one unit at a time.

    Explicit per-worker assignment (the parent always knows which unit
    each worker holds), liveness-based crash detection, per-cell
    timeouts enforced by killing the worker, and a replacement worker
    spawned in its slot.
    """

    name = "workers"

    def __init__(self, workers: int = 2,
                 cell_timeout_s: Optional[float] = None) -> None:
        self.workers = max(1, int(workers))
        self.cell_timeout_s = cell_timeout_s
        self._ctx = multiprocessing.get_context()
        self._slots: List[_WorkerSlot] = []
        self._pending: Deque[WorkUnit] = deque()

    def start(self) -> None:
        if not self._slots:
            self._slots = [self._spawn_slot() for _ in range(self.workers)]

    def _spawn_slot(self) -> _WorkerSlot:
        task_queue = self._ctx.Queue()
        results, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(task_queue, writer),
            daemon=True,
        )
        process.start()
        # The worker now holds the only write end, so its death reads
        # as EOF here (and later workers never inherit this end).
        writer.close()
        return _WorkerSlot(process=process, task_queue=task_queue,
                           results=results)

    def submit(self, unit: WorkUnit) -> None:
        self.start()
        self._pending.append(unit)
        self._dispatch()

    def _dispatch(self) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if slot.unit is None and slot.process.is_alive():
                unit = self._pending.popleft()
                slot.unit = unit
                slot.reported = set()
                slot.last_progress = time.monotonic()
                slot.task_queue.put((unit.unit_id, list(unit.payloads)))

    def _drain(self, timeout: float) -> List[Event]:
        """Wait up to ``timeout`` for any worker, then read all ready."""
        events: List[Event] = []
        by_channel = {
            slot.results: slot for slot in self._slots if not slot.closed
        }
        for channel in wait_for_channels(list(by_channel), timeout):
            self._read(by_channel[channel], events)
        return events

    def _read(self, slot: _WorkerSlot, events: List[Event]) -> None:
        """Handle every message already waiting on one worker's pipe."""
        try:
            while slot.results.poll():
                tag, unit_id, body = slot.results.recv()
                if tag == "claim":
                    slot.last_progress = time.monotonic()
                elif tag == "done":
                    events.append(CellDone(unit_id, body))
                    slot.reported.add(body["cell_id"])
                    slot.last_progress = time.monotonic()
                elif tag == "unit-done":
                    if slot.unit is not None \
                            and slot.unit.unit_id == unit_id:
                        slot.unit = None
        except (EOFError, OSError):
            # The worker exited, possibly mid-message; poll() sees the
            # dead process and requeues what it never reported.
            slot.closed = True

    def poll(self, timeout: float = 0.25) -> List[Event]:
        self.start()
        events = self._drain(timeout)
        now = time.monotonic()
        for index, slot in enumerate(self._slots):
            reason = None
            if not slot.process.is_alive():
                reason = "worker process died"
            elif (
                slot.unit is not None
                and self.cell_timeout_s is not None
                and now - slot.last_progress > self.cell_timeout_s
            ):
                reason = (
                    f"cell timeout after {self.cell_timeout_s:.1f}s "
                    "(worker killed)"
                )
                slot.process.kill()
                slot.process.join(timeout=5.0)
            if reason is None:
                continue
            if not slot.closed:
                # Credit results the worker sent before it died.
                self._read(slot, events)
            slot.results.close()
            if slot.unit is not None:
                pending = tuple(
                    payload for payload in slot.unit.payloads
                    if payload["cell_id"] not in slot.reported
                )
                events.append(
                    UnitFailed(slot.unit.unit_id, pending, reason)
                )
            self._slots[index] = self._spawn_slot()
        self._dispatch()
        return events

    def outstanding(self) -> int:
        return len(self._pending) + sum(
            1 for slot in self._slots if slot.unit is not None
        )

    def abandon(self) -> List[UnitFailed]:
        """Surrender every queued and in-flight unit.

        Returns one ``UnitFailed`` per surrendered unit (an orderly
        handoff, not a crash) and forgets them, so the crash-loop
        breaker can resubmit their pending payloads to an ``inline``
        executor.
        """
        events = [
            UnitFailed(unit.unit_id, unit.payloads, "executor abandoned")
            for unit in self._pending
        ]
        self._pending.clear()
        for slot in self._slots:
            if slot.unit is None:
                continue
            pending = tuple(
                payload for payload in slot.unit.payloads
                if payload["cell_id"] not in slot.reported
            )
            events.append(
                UnitFailed(slot.unit.unit_id, pending,
                           "executor abandoned")
            )
            slot.unit = None
        return events

    def shutdown(self) -> None:
        for slot in self._slots:
            if slot.process.is_alive():
                try:
                    slot.task_queue.put(None)
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
        for slot in self._slots:
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.kill()
            slot.results.close()
        self._slots = []
        self._pending.clear()


def make_executor(workers: int, cell_timeout_s: Optional[float] = None
                  ) -> "InlineExecutor | WorkerExecutor":
    """The executor for a run: inline for one worker (which enforces no
    timeout), owned workers otherwise."""
    if workers <= 1:
        return InlineExecutor()
    return WorkerExecutor(workers=workers, cell_timeout_s=cell_timeout_s)
