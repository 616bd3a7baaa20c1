"""The discrete-event simulation engine.

A minimal, deterministic event loop: callbacks scheduled at absolute or
relative times, executed in time order with FIFO tie-breaking.  Every
moving part of the testbed (packet serialisation, propagation, codec
frame ticks, probe loops, CPU samplers) is an event on this loop, which
is what makes the whole benchmark reproducible (design goal D3).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError


class PeriodicTask:
    """Handle for a repeating event scheduled by ``schedule_periodic``.

    Fires ``callback(*args)`` at absolute multiples of the period from
    the task's start time -- ``start + k * period`` -- so arbitrarily
    long trains never drift off their clock the way accumulated
    relative delays would.  The train stops when :meth:`cancel` is
    called or when the callback returns ``False``.
    """

    __slots__ = ("_simulator", "period", "rate", "callback", "args",
                 "start", "index", "index_step", "cancelled")

    def __init__(self, simulator: "Simulator", period: Optional[float],
                 callback: Callable[..., Any], args: tuple,
                 start: float, rate: Optional[float] = None,
                 index_step: int = 1) -> None:
        self._simulator = simulator
        self.period = period
        self.rate = rate
        self.callback = callback
        self.args = args
        self.start = start
        self.index = 0
        self.index_step = index_step
        self.cancelled = False

    @property
    def next_time(self) -> float:
        """Absolute time of the next scheduled firing.

        Rate-defined trains tick at ``start + k / rate`` -- the exact
        grid a frame-clock analysis divides by -- rather than
        ``k * (1/rate)``, whose reciprocal rounding walks off that grid
        by an ulp for some ``k``.
        """
        if self.rate is not None:
            return self.start + self.index / self.rate
        return self.start + self.index * self.period

    def cancel(self) -> None:
        """Stop the train; an already-queued firing becomes a no-op."""
        self.cancelled = True

    def _fire(self) -> None:
        if self.cancelled:
            return
        if self.callback(*self.args) is False:
            self.cancelled = True
            return
        self.index += self.index_step
        self._simulator.schedule_at(self.next_time, self._fire)


class Simulator:
    """Deterministic discrete-event scheduler.

    Events are ``(time, sequence, callback, args)`` tuples on a heap;
    the sequence number makes simultaneous events run in scheduling
    order, so repeated runs with the same seed are bit-identical.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises :class:`~repro.errors.SimulationError` for negative or
        NaN delays: the simulator never travels backwards.
        """
        # Written as ``not >=`` so a NaN delay fails the check too.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._sequence), callback, args)
        )

    def schedule_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute time ``when``.

        A NaN ``when`` is rejected: it compares false against every
        heap entry and would run out of time order.
        """
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        heapq.heappush(self._queue, (when, next(self._sequence), callback, args))

    def schedule_periodic(
        self,
        period: Optional[float],
        callback: Callable[..., Any],
        *args: Any,
        first_delay: float = 0.0,
        rate: Optional[float] = None,
        index_step: int = 1,
    ) -> PeriodicTask:
        """Run ``callback(*args)`` every ``period`` seconds, drift-free.

        Firings land at absolute multiples of the period from the
        start (``now + first_delay``), not at accumulated relative
        offsets.  Pass ``rate`` (ticks per second) instead of a period
        for frame-clock trains: ticks then sit at ``start + k / rate``
        exactly, the grid per-frame analyses divide by.  With the
        default ``first_delay`` of 0 the first tick runs
        *synchronously* -- matching a loop whose begin handler invokes
        its tick directly.  The callback ends the train by returning
        ``False``; the returned handle can also
        :meth:`~PeriodicTask.cancel` it externally.

        ``index_step`` fires every N-th point of the period grid --
        ``start + (k * index_step) * period`` -- for callbacks that
        batch several grid units per tick (the audio sender encodes
        five 20 ms frames per scheduling tick) while keeping their
        timestamps on the finer grid's exact floats.
        """
        if (period is None) == (rate is None):
            raise SimulationError("pass exactly one of period or rate")
        if period is not None and not period > 0:
            raise SimulationError(f"period must be positive, got {period}")
        if rate is not None and not rate > 0:
            raise SimulationError(f"rate must be positive, got {rate}")
        if not first_delay >= 0:
            raise SimulationError(
                f"cannot schedule in the past (first_delay={first_delay})"
            )
        if index_step < 1:
            raise SimulationError(f"index_step must be >= 1, got {index_step}")
        task = PeriodicTask(
            self, period, callback, args, self._now + first_delay,
            rate=rate, index_step=index_step,
        )
        if first_delay == 0:
            task._fire()
        else:
            self.schedule_at(task.start, task._fire)
        return task

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run events in time order.

        Args:
            until: Stop once the clock would pass this time; events at
                exactly ``until`` are executed.  ``None`` drains the
                queue completely.
            max_events: Safety valve against runaway event loops: at
                most this many events run before the error fires.

        Raises:
            SimulationError: If re-entered, if ``until`` is NaN (it
                would compare false against every event and drain the
                queue), or if ``max_events`` fires.
        """
        if until is not None and until != until:
            raise SimulationError(f"cannot run until {until}")
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        executed = 0
        # The loop body runs tens of millions of times per campaign:
        # bind the queue and heappop once instead of re-resolving the
        # attribute and module global on every event.
        queue = self._queue
        heappop = heapq.heappop
        try:
            if until is None:
                # Drain variant: no horizon check, pop directly.
                while queue:
                    if executed >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; possible event storm"
                        )
                    item = heappop(queue)
                    self._now = item[0]
                    item[2](*item[3])
                    executed += 1
            else:
                while queue:
                    item = queue[0]
                    when = item[0]
                    if when > until:
                        break
                    if executed >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; possible event storm"
                        )
                    heappop(queue)
                    self._now = when
                    item[2](*item[3])
                    executed += 1
                if self._now < until:
                    self._now = until
        finally:
            self._processed += executed
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time."""
        if not duration >= 0:
            raise SimulationError(f"duration must be >= 0, got {duration}")
        self.run(until=self._now + duration)
