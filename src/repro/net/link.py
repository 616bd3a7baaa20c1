"""Access links: per-host uplink/downlink with serialisation queues.

Every host attaches to the fabric through an :class:`AccessLink` that
models the capacity of its network attachment -- multi-Gbps for the
paper's Azure Fsv2 VMs, 50 Mbps symmetric for the Raspberry-Pi WiFi the
Android phones use, and anything in between for what-if experiments.

Serialisation is modelled with a per-direction virtual clock: a packet
departs at ``max(now, link_free) + wire_bits / rate`` and the link is
busy until then.  An optional ingress :class:`TokenBucketShaper`
reproduces the Section 4.4 bandwidth-cap setup.

Links are first-class *time-varying* simulation state: rates can change
mid-flight (:meth:`AccessLink.set_rates` rebases the serialisation
clocks so queued bits drain at the new rate), condition adders
(:attr:`extra_latency_s`, :attr:`extra_jitter_s`, :attr:`loss_rate`)
shift the wide-area path, and :meth:`AccessLink.apply_conditions` is
the single entry point a :class:`~repro.net.dynamics.ConditionTimeline`
drives to script all of it per phase.

Two pieces of machinery exist purely for the packet-path fast lane
(:mod:`repro.net.routing`):

* a **pending-arrival buffer** on the downlink.  The fast lane fuses
  the arrive+deliver events of a packet into one; the downlink
  reservation that the arrive event used to perform is instead queued
  here, keyed by arrival time, and flushed *in arrival order* whenever
  any reader or mutator touches the downlink virtual clock.  Because
  the flush arithmetic is time-independent (it uses each entry's
  arrival time, never the flush time), the reservations come out
  bit-identical to eager in-order calls to :meth:`reserve_downlink`.
* a **conditions epoch** (:attr:`conditions_epoch`,
  :attr:`last_change_s`) bumped by every effective mutation, plus a
  registry of *scheduled* future changes
  (:meth:`register_scheduled_changes`, filled by
  :func:`~repro.net.dynamics.arm_timeline`).  The fast lane only
  engages when :meth:`quiet_through` proves no scheduled change falls
  inside a packet's flight window, so any timeline phase flip forces
  in-flight packets onto the exact slow path; the epoch timestamp lets
  the fused event detect (and count) unregistered mid-flight mutations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING, Tuple

from ..errors import ConfigurationError
from ..units import gbps
from .shaper import ShaperStats, TokenBucketShaper

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dynamics import LinkConditions


def default_cap_burst(rate_bps: Optional[float]) -> int:
    """The tc-style burst heuristic used by the Section 4.4 setup.

    Tight caps get a shallower bucket so bursts cannot blow through the
    limit (matching the paper's tbf parameters at 250 Kbps).
    """
    return 16_000 if rate_bps is None or rate_bps > 400_000 else 8_000


@dataclass
class AccessLink:
    """A host's attachment to the network.

    Attributes:
        uplink_bps: Transmit capacity in bits/second (current value;
            may be scripted mid-session by a condition timeline).
        downlink_bps: Receive capacity in bits/second.
        ingress_shaper: Optional token-bucket applied to incoming
            packets *before* downlink serialisation (tc/ifb position).
        extra_latency_s: Additional one-way delay on every packet this
            host sends or receives (a netem ``delay`` adder).
        extra_jitter_s: Scale of an additional random delay component
            (netem ``delay ... jitter``); 0 disables the draw entirely
            so static sessions consume no randomness.
        loss_rate: Probability that a packet crossing this access is
            dropped (netem ``loss``); 0 disables the draw.
        conditions_epoch: Monotone counter of effective condition
            mutations (rate change, cap change, adder change).
        last_change_s: Simulation time of the latest effective
            mutation (``-inf`` if never mutated).
    """

    uplink_bps: float = gbps(2)
    downlink_bps: float = gbps(2)
    ingress_shaper: Optional[TokenBucketShaper] = None
    extra_latency_s: float = 0.0
    extra_jitter_s: float = 0.0
    loss_rate: float = 0.0
    conditions_epoch: int = field(default=0, repr=False)
    last_change_s: float = field(default=float("-inf"), repr=False)
    _uplink_free: float = field(default=0.0, repr=False)
    _downlink_free: float = field(default=0.0, repr=False)
    _retired_shaper_phases: List[Tuple[str, ShaperStats]] = field(
        default_factory=list, repr=False
    )
    _pending_downlink: List[list] = field(default_factory=list, repr=False)
    _scheduled_changes: List[float] = field(default_factory=list, repr=False)
    _change_cursor: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ConfigurationError("link rates must be positive")
        self._validate_conditions()
        # The construction-time rates are the link's *base* conditions,
        # restored whenever a timeline phase does not override them.
        self.base_uplink_bps = self.uplink_bps
        self.base_downlink_bps = self.downlink_bps
        self._pending_seq = itertools.count()

    def _validate_conditions(self) -> None:
        if self.extra_latency_s < 0 or self.extra_jitter_s < 0:
            raise ConfigurationError("latency adders must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(f"loss rate out of range: {self.loss_rate}")

    def _mark_changed(self, now: float) -> None:
        self.conditions_epoch += 1
        self.last_change_s = now

    # The serialisation arithmetic below inlines
    # units.transmission_delay (``float(bytes) * 8 / float(rate)``):
    # these three methods run once or twice per packet and the function
    # call overhead is measurable at campaign scale.  The float
    # operations are identical, so results are bit-equal.

    def reserve_uplink(self, now: float, wire_bytes: int) -> float:
        """Queue a packet for transmission; returns its departure time."""
        free = self._uplink_free
        start = now if now > free else free
        departure = start + wire_bytes * 8.0 / self.uplink_bps
        self._uplink_free = departure
        return departure

    def reserve_downlink(self, now: float, wire_bytes: int) -> float:
        """Queue an arriving packet; returns its delivery time."""
        if self._pending_downlink:
            self.flush_pending_downlink(now)
        free = self._downlink_free
        start = now if now > free else free
        delivery = start + wire_bytes * 8.0 / self.downlink_bps
        self._downlink_free = delivery
        return delivery

    # ------------------------------------------------------------- #
    # Fast-lane pending arrivals (deferred downlink reservations).
    # ------------------------------------------------------------- #

    def push_pending_downlink(self, arrival_s: float, wire_bytes: int) -> list:
        """Queue a deferred downlink reservation for a fused delivery.

        Returns the mutable entry ``[arrival, seq, wire, delivery]``;
        ``delivery`` starts at ``-1.0`` and is filled in by
        :meth:`flush_pending_downlink` when the reservation is applied
        (in global arrival order, with arithmetic identical to
        :meth:`reserve_downlink`).
        """
        entry = [arrival_s, next(self._pending_seq), wire_bytes, -1.0]
        heapq.heappush(self._pending_downlink, entry)
        return entry

    def flush_pending_downlink(self, now: float) -> None:
        """Apply every deferred reservation with arrival <= ``now``.

        Entries are processed in (arrival, push) order, so mixing
        deferred fast-lane reservations with eager slow-path calls
        yields the same virtual-clock sequence as an all-eager run.
        The arithmetic uses each entry's *arrival* time -- never the
        flush time -- so when the flush happens is irrelevant, as long
        as it happens before any other reader or mutator of the clock
        (which :meth:`reserve_downlink`, :meth:`set_rates` and
        :meth:`downlink_backlog` guarantee).
        """
        pending = self._pending_downlink
        free = self._downlink_free
        rate = self.downlink_bps
        pop = heapq.heappop
        while pending and pending[0][0] <= now:
            entry = pop(pending)
            start = entry[0] if entry[0] > free else free
            free = start + entry[2] * 8.0 / rate
            entry[3] = free
        self._downlink_free = free

    # ------------------------------------------------------------- #
    # Scheduled-change registry (fast-lane eligibility).
    # ------------------------------------------------------------- #

    def register_scheduled_changes(self, times_s: "List[float]") -> None:
        """Announce future mutation times (timeline phase boundaries).

        The fast lane refuses to fuse a packet whose flight window
        overlaps any registered time, which is what keeps dynamics
        sessions bit-identical: every packet in flight across a phase
        flip travels the exact slow path.
        """
        remaining = self._scheduled_changes[self._change_cursor:]
        self._scheduled_changes = sorted(remaining + list(times_s))
        self._change_cursor = 0

    def quiet_through(self, now: float, horizon_s: float) -> bool:
        """No registered condition change in ``(now, horizon_s]``."""
        changes = self._scheduled_changes
        i = self._change_cursor
        n = len(changes)
        while i < n and changes[i] <= now:
            i += 1
        self._change_cursor = i
        return i >= n or changes[i] > horizon_s

    # ------------------------------------------------------------- #
    # Mid-flight rate changes.
    # ------------------------------------------------------------- #

    def set_rates(
        self,
        now: float,
        uplink_bps: Optional[float] = None,
        downlink_bps: Optional[float] = None,
    ) -> None:
        """Change link rates mid-flight, rebasing the virtual clocks.

        ``None`` keeps a direction unchanged.  The seconds of backlog
        already committed to each direction are converted to bits at
        the old rate and re-queued at the new one, so a rate *drop*
        stretches the pending queue and a rate *raise* drains it faster
        -- exactly what re-programming a serialising interface does.
        """
        if uplink_bps is not None and uplink_bps != self.uplink_bps:
            if uplink_bps <= 0:
                raise ConfigurationError("link rates must be positive")
            backlog_bits = max(0.0, self._uplink_free - now) * self.uplink_bps
            self.uplink_bps = uplink_bps
            self._uplink_free = now + backlog_bits / uplink_bps
            self._mark_changed(now)
        if downlink_bps is not None and downlink_bps != self.downlink_bps:
            if downlink_bps <= 0:
                raise ConfigurationError("link rates must be positive")
            # Deferred reservations were admitted under the old rate
            # and arrived before this change (the fast lane never fuses
            # across a scheduled boundary), so settle them first.
            if self._pending_downlink:
                self.flush_pending_downlink(now)
            backlog_bits = max(0.0, self._downlink_free - now) * self.downlink_bps
            self.downlink_bps = downlink_bps
            self._downlink_free = now + backlog_bits / downlink_bps
            self._mark_changed(now)

    # ------------------------------------------------------------- #
    # Ingress shaping.
    # ------------------------------------------------------------- #

    def set_ingress_cap(
        self,
        rate_bps: Optional[float],
        burst_bytes: int = 16_000,
        max_queue_delay_s: float = 0.2,
        now: float = 0.0,
    ) -> None:
        """Install (or with ``None``, remove) an ingress bandwidth cap.

        This is the experiment hook for Section 4.4: ``None`` restores
        the "Infinite" column of Figures 17-18.  Replacing or removing
        a shaper retires its counters into the link's shaper history
        (:meth:`shaper_stats_total`), so drop counts survive cap
        changes instead of vanishing with the old shaper object.
        """
        if rate_bps is None and self.ingress_shaper is None:
            return
        self._retire_shaper()
        self._mark_changed(now)
        if rate_bps is None:
            self.ingress_shaper = None
            return
        self.ingress_shaper = TokenBucketShaper(
            rate_bps=rate_bps,
            burst_bytes=burst_bytes,
            max_queue_delay_s=max_queue_delay_s,
        )

    def _retire_shaper(self) -> None:
        if self.ingress_shaper is not None:
            self._retired_shaper_phases.extend(
                self.ingress_shaper.stats_by_phase().items()
            )
            self.ingress_shaper = None

    def shaper_phase_stats(self) -> "dict[str, ShaperStats]":
        """Shaper counters by phase, across every shaper ever installed."""
        phases: "dict[str, ShaperStats]" = {}
        current = (
            self.ingress_shaper.stats_by_phase().items()
            if self.ingress_shaper is not None
            else []
        )
        for name, stats in list(self._retired_shaper_phases) + list(current):
            phases.setdefault(name, ShaperStats()).absorb(stats)
        return phases

    def shaper_stats_total(self) -> ShaperStats:
        """Counters summed over retired and live shapers."""
        return ShaperStats.merged(list(self.shaper_phase_stats().values()))

    # ------------------------------------------------------------- #
    # Scripted conditions (driven by a ConditionTimeline).
    # ------------------------------------------------------------- #

    def apply_conditions(
        self,
        now: float,
        conditions: "LinkConditions",
        phase: Optional[str] = None,
    ) -> None:
        """Switch the link to one phase's conditions, mid-flight safe.

        Rates fall back to the construction-time base when a condition
        leaves them unset; the ingress cap is re-rated in place (queue
        preserved, counters rolled to the new phase) when a shaper is
        already installed, installed fresh when absent, and retired
        when the phase is uncapped.
        """
        self.set_rates(
            now,
            conditions.uplink_bps
            if conditions.uplink_bps is not None
            else self.base_uplink_bps,
            conditions.downlink_bps
            if conditions.downlink_bps is not None
            else self.base_downlink_bps,
        )
        if (
            self.extra_latency_s != conditions.extra_latency_s
            or self.extra_jitter_s != conditions.extra_jitter_s
            or self.loss_rate != conditions.loss_rate
        ):
            self._mark_changed(now)
        self.extra_latency_s = conditions.extra_latency_s
        self.extra_jitter_s = conditions.extra_jitter_s
        self.loss_rate = conditions.loss_rate
        self._validate_conditions()
        cap = conditions.ingress_cap_bps
        if cap is None:
            if self.ingress_shaper is not None:
                self.set_ingress_cap(None, now=now)
            return
        burst = conditions.burst_bytes()
        if self.ingress_shaper is None:
            self.set_ingress_cap(cap, burst_bytes=burst, now=now)
            if phase is not None:
                self.ingress_shaper.phase_name = phase
        else:
            self.ingress_shaper.set_rate(now, cap, burst_bytes=burst)
            self._mark_changed(now)
            if phase is not None:
                self.ingress_shaper.start_phase(phase)

    def clear_conditions(self, now: float) -> None:
        """Restore base rates and remove every scripted condition."""
        self.set_rates(now, self.base_uplink_bps, self.base_downlink_bps)
        if self.extra_latency_s or self.extra_jitter_s or self.loss_rate:
            self._mark_changed(now)
        self.extra_latency_s = 0.0
        self.extra_jitter_s = 0.0
        self.loss_rate = 0.0
        if self.ingress_shaper is not None:
            self.set_ingress_cap(None, now=now)

    # ------------------------------------------------------------- #
    # Introspection.
    # ------------------------------------------------------------- #

    def uplink_backlog(self, now: float) -> float:
        """Seconds of queued transmission ahead of a new packet."""
        return max(0.0, self._uplink_free - now)

    def downlink_backlog(self, now: float) -> float:
        """Seconds of queued delivery ahead of a new arrival."""
        if self._pending_downlink:
            self.flush_pending_downlink(now)
        return max(0.0, self._downlink_free - now)
