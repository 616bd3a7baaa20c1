"""Packet-path fast lane: fused vs forced-slow event counts.

The fast lane fuses the propagate->arrive->deliver chain into a single
delivery event on quiet paths (see :mod:`repro.net.routing`).  This
guard drives the same pinned packet path both ways on the same seed
and asserts what is exact on any hardware: a fused packet costs 2
simulator events, a slow one 4, and every packet on the quiet path is
fused at the sender.  A change that stops the lane engaging (or makes
the slow lane start to) moves these counts; wall-clock timing would
only see it through machine noise.

Run with ``pytest benchmarks/test_perf_packet_path.py``; wall-clock
numbers for real sessions come from ``python3 perfbench/run.py``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.net.geo import GeoPoint, LatencyModel
from repro.net.packet import Packet, PacketKind
from repro.net.routing import Network
from repro.net.simulator import Simulator


def _packet_path_once(packets: int, fast_lane: bool) -> Dict[str, int]:
    """Drive ``packets`` media packets sender -> receiver and count.

    The topology is pinned: two hosts 1000 km apart, a jitter-free
    latency model (so the fully fused single-event path is eligible),
    captures running on both ends, and a paced sender emitting
    MTU-sized fragments -- the same per-packet work a streamer session
    does, minus the codec.
    """
    simulator = Simulator()
    network = Network(
        simulator=simulator,
        latency_model=LatencyModel(jitter_fraction=0.0),
        rng=np.random.default_rng(0),
        fast_lane=fast_lane,
    )
    sender = network.add_host("bench-tx", GeoPoint("tx", 40.0, -74.0))
    receiver = network.add_host("bench-rx", GeoPoint("rx", 41.0, -87.0))
    sender.start_capture()
    receiver.start_capture()
    received = []
    receiver.bind(5000, lambda packet, host: received.append(packet.payload_bytes))
    source = sender.address(4000)
    destination = receiver.address(5000)
    send = sender.send
    fast = Packet.fast

    def emit() -> None:
        send(fast(source, destination, 1200, PacketKind.MEDIA_VIDEO,
                  "bench|flow", seq=len(received)))

    # Pace sends at 20k packets/sec of simulated time so the uplink
    # never backlogs and every event stays on the packet path proper.
    interval = 5e-5
    for i in range(packets):
        simulator.schedule_at(i * interval, emit)
    simulator.run()
    assert len(received) == packets, (
        f"packet path dropped packets: {len(received)}/{packets}"
    )
    return {
        "packets": packets,
        "events": simulator.events_processed,
        "fused": network.fast_lane_fused,
        "sender_fused": network.fast_lane_sender_fused,
    }


def test_fused_path_removes_events():
    fast = _packet_path_once(2_000, fast_lane=True)
    slow = _packet_path_once(2_000, fast_lane=False)
    # 2 events/packet fused (send + fused delivery) vs 4 slow
    # (send + propagate + arrive + deliver); exact, not statistical.
    assert fast["events"] == 2 * fast["packets"]
    assert slow["events"] == 4 * slow["packets"]
    assert fast["fused"] == fast["packets"]
    assert fast["sender_fused"] == fast["packets"]
    assert slow["fused"] == 0
