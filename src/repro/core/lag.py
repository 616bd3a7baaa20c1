"""Streaming-lag extraction from packet traces (Figure 2).

"We purposefully set the video screen of a meeting host to be a
blank-screen with periodic flashes of an image ... The first big packet
that appears after more than a second-long quiescent period indicates
the arrival of a non-blank video signal.  We measure streaming lag
between the meeting host and the other participant with the time shift
between the first big packet on sender-side and receiver-side."
(Section 4.2.)

:class:`LagDetector` implements exactly that detector over the
capture records of :mod:`repro.net.capture`; it is a pure trace
analysis, so it would run unchanged over real pcap-derived records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..net.capture import Capture, Direction
from ..units import to_ms

#: Payload threshold separating video bursts from background chatter
#: ("periodic spikes of big packets (>200 bytes)").
BIG_PACKET_BYTES = 200

#: Minimum gap that qualifies as a quiescent period.
QUIESCENT_PERIOD_S = 1.0


@dataclass(frozen=True)
class LagMeasurement:
    """One matched flash: sender burst time, receiver burst time."""

    sent_at: float
    received_at: float

    @property
    def lag_s(self) -> float:
        """Streaming lag in seconds."""
        return self.received_at - self.sent_at

    @property
    def lag_ms(self) -> float:
        """Streaming lag in milliseconds (the unit of Figs. 4-7)."""
        return to_ms(self.lag_s)


@dataclass
class LagDetector:
    """Burst-onset detector over packet time/size series.

    Attributes:
        big_packet_bytes: L7 payload threshold for a "big" packet.
        quiescent_period_s: Silence needed before a burst onset counts.
    """

    big_packet_bytes: int = BIG_PACKET_BYTES
    quiescent_period_s: float = QUIESCENT_PERIOD_S

    def burst_onsets(self, series: Sequence[Tuple[float, int]]) -> List[float]:
        """Timestamps of first-big-packet-after-quiescence events.

        Args:
            series: (timestamp, payload_bytes) pairs in time order.
        """
        onsets: List[float] = []
        last_big: float | None = None
        for timestamp, payload in series:
            if payload <= self.big_packet_bytes:
                continue
            if last_big is None or timestamp - last_big > self.quiescent_period_s:
                onsets.append(timestamp)
            last_big = timestamp
        return onsets

    def match_bursts(
        self,
        sender_onsets: Sequence[float],
        receiver_onsets: Sequence[float],
        max_lag_s: float = 0.9,
    ) -> List[LagMeasurement]:
        """Pair sender bursts with the first receiver burst that follows.

        Unmatched bursts (flash lost in transit, or observed before the
        receiver joined) are skipped.  ``max_lag_s`` bounds plausible
        lags; with two-second flash periodicity anything approaching a
        full period is a mismatch, not a lag.
        """
        if max_lag_s <= 0:
            raise MeasurementError("max_lag_s must be positive")
        measurements: List[LagMeasurement] = []
        receiver_index = 0
        receiver_list = list(receiver_onsets)
        for sent_at in sender_onsets:
            while (
                receiver_index < len(receiver_list)
                and receiver_list[receiver_index] < sent_at
            ):
                receiver_index += 1
            if receiver_index >= len(receiver_list):
                break
            received_at = receiver_list[receiver_index]
            if received_at - sent_at <= max_lag_s:
                measurements.append(LagMeasurement(sent_at, received_at))
                receiver_index += 1
        return measurements


def measure_streaming_lag(
    sender_capture: Capture,
    receiver_capture: Capture,
    detector: LagDetector | None = None,
) -> List[LagMeasurement]:
    """End-to-end lag measurement between two captures.

    Takes the sender's outgoing and the receiver's incoming time/size
    series, detects burst onsets on both sides and matches them.

    Raises:
        MeasurementError: If either capture contains no media packets.
    """
    detector = detector if detector is not None else LagDetector()
    sent_series = sender_capture.time_size_series(Direction.OUT)
    received_series = receiver_capture.time_size_series(Direction.IN)
    if not sent_series:
        raise MeasurementError("sender capture has no outgoing packets")
    if not received_series:
        raise MeasurementError("receiver capture has no incoming packets")
    sender_onsets = detector.burst_onsets(sent_series)
    receiver_onsets = detector.burst_onsets(received_series)
    return detector.match_bursts(sender_onsets, receiver_onsets)


def lag_statistics_ms(measurements: Sequence[LagMeasurement]) -> dict:
    """Summary statistics (ms) over matched lag measurements."""
    if not measurements:
        raise MeasurementError("no lag measurements to summarise")
    values = np.array([m.lag_ms for m in measurements])
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "p10": float(np.percentile(values, 10)),
        "p90": float(np.percentile(values, 90)),
        "std": float(values.std()),
    }
