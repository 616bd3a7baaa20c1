"""Active probing: RTT measurement against service endpoints.

The client monitor "discovers streaming service endpoints (IP address,
TCP/UDP port) from packet streams, and performs round-trip-time (RTT)
measurements against them.  We use tcpping for RTT measurements because
ICMP pings are blocked" (Section 3.2).  :class:`Prober` reproduces the
loop: periodic small probes to an endpoint, replies matched by probe id,
RTTs measured on the prober's local clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..errors import MeasurementError
from ..net.address import Address, EndpointKey
from ..net.node import Host
from ..net.packet import Packet, PacketKind
from ..units import to_ms

_probe_ids = itertools.count(1)


@dataclass
class ProbeResult:
    """RTT samples collected against one endpoint.

    Attributes:
        endpoint: The probed service endpoint.
        rtts_s: Round-trip times in seconds, in completion order.
        sent: Probes transmitted.
        lost: Probes that never saw a reply (judged at collection end).
    """

    endpoint: EndpointKey
    rtts_s: List[float] = field(default_factory=list)
    sent: int = 0
    lost: int = 0

    @property
    def received(self) -> int:
        """Number of successful probe round trips."""
        return len(self.rtts_s)

    def mean_rtt_ms(self) -> float:
        """Average RTT in milliseconds (the unit of Figs. 8-11)."""
        if not self.rtts_s:
            raise MeasurementError(f"no probe replies from {self.endpoint}")
        return to_ms(float(np.mean(self.rtts_s)))


class Prober:
    """Sends paced probes from a host and matches the replies.

    The prober owns an ephemeral source port on its host; replies are
    matched via the probe id echoed in packet metadata (the simulator's
    stand-in for tcpping's SYN/RST sequence matching).
    """

    def __init__(self, host: Host) -> None:
        self._host = host
        self._address = host.bind_ephemeral(self._on_packet)
        self._in_flight: Dict[int, float] = {}
        self._results: Dict[EndpointKey, ProbeResult] = {}
        self._probe_endpoint: Dict[int, EndpointKey] = {}

    def probe(
        self,
        endpoint: EndpointKey,
        count: int = 100,
        interval_s: float = 1.0,
        start_delay_s: float = 0.0,
    ) -> ProbeResult:
        """Schedule ``count`` probes; returns the live result object.

        The returned :class:`ProbeResult` fills in as the simulation
        runs -- read it after the simulator has advanced past the last
        probe's reply.
        """
        if count < 1:
            raise MeasurementError("probe count must be >= 1")
        if interval_s <= 0:
            raise MeasurementError("probe interval must be positive")
        result = self._results.setdefault(endpoint, ProbeResult(endpoint))
        simulator = self._host.network.simulator
        # One destination address shared by the whole probe train.
        destination = endpoint.address
        for i in range(count):
            simulator.schedule(
                start_delay_s + i * interval_s, self._send_probe, endpoint,
                destination,
            )
        return result

    def _send_probe(self, endpoint: EndpointKey, destination: Address) -> None:
        probe_id = next(_probe_ids)
        result = self._results[endpoint]
        result.sent += 1
        packet = Packet(
            src=self._address,
            dst=destination,
            payload_bytes=20,
            kind=PacketKind.PROBE,
            flow_id=f"probe-{self._host.name}",
            metadata={"probe_id": probe_id},
        )
        # Replies reference the probe packet's id (reply_template sets
        # metadata["in_reply_to"]), so the ledger is keyed by it.
        self._in_flight[packet.packet_id] = self._host.local_time()
        self._probe_endpoint[packet.packet_id] = endpoint
        self._host.send(packet)

    def _on_packet(self, packet: Packet, host: Host) -> None:
        if packet.kind is not PacketKind.PROBE_REPLY:
            return
        original_id = packet.metadata.get("in_reply_to")
        if original_id is None or original_id not in self._in_flight:
            return
        sent_at = self._in_flight.pop(original_id)
        endpoint = self._probe_endpoint.pop(original_id)
        rtt = self._host.local_time() - sent_at
        self._results[endpoint].rtts_s.append(rtt)

    def finalize(self) -> None:
        """Mark unanswered probes as lost (call after the run)."""
        for probe_id in list(self._in_flight):
            endpoint = self._probe_endpoint.pop(probe_id)
            self._in_flight.pop(probe_id)
            self._results[endpoint].lost += 1

    def results(self) -> List[ProbeResult]:
        """All collected probe results."""
        return list(self._results.values())
