"""Token-bucket traffic shaping (the paper's ``tc``/``ifb`` emulation).

Section 4.4 applies artificial bandwidth caps to a cloud VM's *incoming*
traffic using Linux ``tc`` with an ``ifb`` redirect.  This module models
that device: a token-bucket rate limiter with a bounded FIFO queue.
Packets that would wait longer than the queue allows are tail-dropped,
which is what ultimately degrades video under tight caps (Figure 17).

The implementation uses a virtual-clock formulation: each accepted
packet is assigned a virtual finish time advancing at the shaped rate,
with a burst allowance letting short bursts pass unshaped -- equivalent
to a classic token bucket but O(1) per packet with no timer churn.

Shapers are mutable mid-flight: :meth:`TokenBucketShaper.set_rate`
rebases the virtual clock so the bits already queued drain at the new
rate (a ``tc class change`` does the same to an installed qdisc), and
counters are kept per *phase* -- :meth:`TokenBucketShaper.start_phase`
rolls the live counters into the phase history, which is how a
time-varying condition timeline gets per-phase drop statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..units import bytes_to_bits, ms


@dataclass
class ShaperStats:
    """Counters exported by a shaper for analysis."""

    accepted: int = 0
    dropped: int = 0
    delayed: int = 0
    bytes_accepted: int = 0
    bytes_dropped: int = 0

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered packets that were dropped."""
        total = self.accepted + self.dropped
        return self.dropped / total if total else 0.0

    def absorb(self, other: "ShaperStats") -> None:
        """Fold another counter set into this one (stats aggregation)."""
        self.accepted += other.accepted
        self.dropped += other.dropped
        self.delayed += other.delayed
        self.bytes_accepted += other.bytes_accepted
        self.bytes_dropped += other.bytes_dropped

    @classmethod
    def merged(cls, parts: "list[ShaperStats] | Tuple[ShaperStats, ...]"
               ) -> "ShaperStats":
        """One counter set summing every given part."""
        total = cls()
        for part in parts:
            total.absorb(part)
        return total

    @classmethod
    def delta(cls, current: "ShaperStats",
              baseline: Optional["ShaperStats"] = None) -> "ShaperStats":
        """Counters accumulated since a baseline snapshot.

        Counters on a shared link grow across sessions; subtracting a
        pre-session snapshot scopes them to one session's activity.
        """
        if baseline is None:
            baseline = cls()
        return cls(
            accepted=current.accepted - baseline.accepted,
            dropped=current.dropped - baseline.dropped,
            delayed=current.delayed - baseline.delayed,
            bytes_accepted=current.bytes_accepted - baseline.bytes_accepted,
            bytes_dropped=current.bytes_dropped - baseline.bytes_dropped,
        )


@dataclass
class TokenBucketShaper:
    """Rate limiter with burst credit and a bounded queue.

    Attributes:
        rate_bps: Shaped rate in bits/second.
        burst_bytes: Bucket depth; bursts up to this size pass through
            without delay (tc tbf's ``burst``).
        max_queue_delay_s: Longest a packet may sit in the queue before
            being tail-dropped (tc tbf's ``latency``).
        phase_name: Label of the counters currently accumulating in
            :attr:`stats` (a condition timeline sets this per phase).
        stats: Counters of the *current* phase.  A shaper that never
            changes phase keeps everything here, so static experiments
            read it exactly as before.
    """

    rate_bps: float
    burst_bytes: int = 16_000
    max_queue_delay_s: float = ms(200)
    phase_name: str = "all"
    stats: ShaperStats = field(default_factory=ShaperStats)

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ConfigurationError(f"shaper rate must be positive: {self.rate_bps}")
        if self.burst_bytes <= 0:
            raise ConfigurationError("burst_bytes must be positive")
        if self.max_queue_delay_s < 0:
            raise ConfigurationError("max_queue_delay_s must be >= 0")
        self._virtual_finish = float("-inf")
        self._phase_history: List[Tuple[str, ShaperStats]] = []

    @property
    def burst_seconds(self) -> float:
        """Time credit represented by a full bucket."""
        return bytes_to_bits(self.burst_bytes) / self.rate_bps

    def submit(self, now: float, wire_bytes: int) -> Optional[float]:
        """Offer a packet of ``wire_bytes`` at time ``now``.

        Returns the time at which the shaper releases the packet, or
        ``None`` if the queue is full and the packet is dropped.

        The drop decision uses the *pre-service* queue wait (how long
        the packet would sit before transmission starts), so it is
        independent of the packet's own size -- a DropTail queue does
        not privilege small packets once it is full.
        """
        service_time = bytes_to_bits(wire_bytes) / self.rate_bps
        start = max(now - self.burst_seconds, self._virtual_finish)
        queue_wait = max(0.0, start - now)
        if queue_wait > self.max_queue_delay_s:
            self.stats.dropped += 1
            self.stats.bytes_dropped += wire_bytes
            return None
        finish = start + service_time
        release = max(now, finish)
        self._virtual_finish = finish
        self.stats.accepted += 1
        self.stats.bytes_accepted += wire_bytes
        if release > now:
            self.stats.delayed += 1
        return release

    # ------------------------------------------------------------- #
    # Mid-flight mutation (the condition-timeline hooks).
    # ------------------------------------------------------------- #

    def queued_bits(self, now: float) -> float:
        """Bits committed to the virtual clock but not yet serviced."""
        backlog_s = self._virtual_finish - (now - self.burst_seconds)
        return max(0.0, backlog_s) * self.rate_bps

    def set_rate(
        self,
        now: float,
        rate_bps: float,
        burst_bytes: Optional[int] = None,
    ) -> None:
        """Change the shaped rate (and optionally burst) mid-flight.

        The virtual clock is rebased so the bits already queued keep
        draining -- at the *new* rate -- instead of being silently
        stretched or compressed by the rate change: the backlog is
        converted to bits under the old parameters and re-expressed as
        a virtual finish time under the new ones.
        """
        if rate_bps <= 0:
            raise ConfigurationError(f"shaper rate must be positive: {rate_bps}")
        if burst_bytes is not None and burst_bytes <= 0:
            raise ConfigurationError("burst_bytes must be positive")
        backlog_bits = self.queued_bits(now)
        self.rate_bps = rate_bps
        if burst_bytes is not None:
            self.burst_bytes = burst_bytes
        self._virtual_finish = (now - self.burst_seconds) + (
            backlog_bits / rate_bps
        )

    # ------------------------------------------------------------- #
    # Per-phase statistics.
    # ------------------------------------------------------------- #

    def start_phase(self, name: str) -> None:
        """Roll the live counters into history and relabel the shaper.

        Packets already queued keep their admission accounting in the
        finished phase (they were accepted under its conditions).
        """
        self._phase_history.append((self.phase_name, self.stats))
        self.phase_name = name
        self.stats = ShaperStats()

    def stats_by_phase(self) -> Dict[str, ShaperStats]:
        """Counters keyed by phase name, merged across re-entries."""
        phases: Dict[str, ShaperStats] = {}
        for name, stats in self._phase_history + [(self.phase_name, self.stats)]:
            phases.setdefault(name, ShaperStats()).absorb(stats)
        return phases

    def total_stats(self) -> ShaperStats:
        """Counters summed over every phase this shaper has seen."""
        return ShaperStats.merged(
            [stats for _, stats in self._phase_history] + [self.stats]
        )

    def reset(self) -> None:
        """Clear queue state and statistics (all phases)."""
        self._virtual_finish = float("-inf")
        self.stats = ShaperStats()
        self._phase_history = []
