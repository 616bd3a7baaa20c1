"""Bit-identity of the packet-path fast lane.

The fused packet path (:mod:`repro.net.routing`) removes up to two of
the three heap events every packet costs, but it must be *exactly* the
same simulation: identical capture rows, identical rng consumption,
identical QoE inputs.  These tests run full sessions -- one static, one
with a multi-phase dynamics timeline whose boundaries force in-flight
packets back onto the slow path -- with the fast lane force-disabled
and force-enabled, and diff everything.
"""

from __future__ import annotations

import itertools

import pytest

import repro.net.packet as packet_mod
import repro.net.routing as routing
from repro.core.session import SessionConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.media.frames import FrameSpec
from repro.net.dynamics import bandwidth_ramp_timeline, handover_timeline
from repro.net.geo import GeoPoint, LatencyModel
from repro.net.packet import Packet, PacketKind
from repro.net.routing import Network
from repro.units import mbps

CLIENTS = ("US-East", "US-East2", "US-Central")


@pytest.fixture(autouse=True)
def _restore_fast_lane_default():
    original = routing.FAST_LANE_DEFAULT
    yield
    routing.FAST_LANE_DEFAULT = original


def _run_session(fast_lane: bool, timeline=None, probes: bool = True):
    """One full session; returns comparable artifact signatures."""
    routing.FAST_LANE_DEFAULT = fast_lane
    # Packet ids are process-global; reset so runs are comparable.
    packet_mod._packet_ids = itertools.count(1)
    testbed = Testbed(TestbedConfig(seed=11))
    for name in CLIENTS:
        testbed.add_vm(name)
    config = SessionConfig(
        duration_s=6.0,
        feed="high",
        pad_fraction=0.15,
        content_spec=FrameSpec(128, 96, 12),
        probes=probes,
        record_video=True,
        session_index=0,
        feed_seed=11,
        timelines=None if timeline is None else {"US-East2": timeline},
    )
    artifacts = testbed.run_session("zoom", list(CLIENTS), "US-East", config)
    captures = {
        name: [tuple(row) for row in capture._rows]
        for name, capture in artifacts.captures.items()
    }
    qoe_inputs = {
        name: b"".join(frame.tobytes() for frame in recorder.frames_head(24))
        for name, recorder in artifacts.recorders.items()
    }
    network = testbed.network
    return {
        "captures": captures,
        "qoe_inputs": qoe_inputs,
        "rng_state": str(network.rng.bit_generator.state),
        "now": network.simulator.now,
        "rates": artifacts.rate_summary(),
        "fused": network.fast_lane_fused,
        "epoch_misses": network.fast_lane_epoch_misses,
        "shaper_dropped": network.packets_shaper_dropped,
        "condition_lost": network.packets_condition_lost,
    }


def _assert_identical(fast: dict, slow: dict) -> None:
    assert fast["captures"] == slow["captures"]
    assert fast["qoe_inputs"] == slow["qoe_inputs"]
    assert fast["rng_state"] == slow["rng_state"]
    assert fast["now"] == slow["now"]
    assert fast["rates"] == slow["rates"]
    assert fast["shaper_dropped"] == slow["shaper_dropped"]
    assert fast["condition_lost"] == slow["condition_lost"]


class TestStaticSession:
    def test_bit_identical_and_fast_lane_engaged(self):
        fast = _run_session(True)
        slow = _run_session(False)
        _assert_identical(fast, slow)
        assert slow["fused"] == 0
        assert fast["fused"] > 1000, "fast lane never engaged"
        assert fast["epoch_misses"] == 0


class TestDynamicsSessions:
    def test_handover_timeline_bit_identical(self):
        timeline = handover_timeline(3.0, 3.0, outage_s=0.5)
        fast = _run_session(True, timeline=timeline)
        slow = _run_session(False, timeline=timeline)
        _assert_identical(fast, slow)
        assert fast["fused"] > 0
        assert fast["epoch_misses"] == 0

    def test_ramp_timeline_bit_identical(self):
        timeline = bandwidth_ramp_timeline(
            [mbps(4), mbps(1), mbps(0.5), mbps(2)], step_s=1.5
        )
        fast = _run_session(True, timeline=timeline)
        slow = _run_session(False, timeline=timeline)
        _assert_identical(fast, slow)
        assert fast["fused"] > 0
        assert fast["epoch_misses"] == 0


class TestFullFusion:
    """The jitter-free topology where the single-event path engages."""

    def _drive(self, fast_lane: bool, packets: int = 400):
        from repro.net.simulator import Simulator
        import numpy as np

        packet_mod._packet_ids = itertools.count(1)
        simulator = Simulator()
        network = Network(
            simulator=simulator,
            latency_model=LatencyModel(jitter_fraction=0.0),
            rng=np.random.default_rng(0),
            fast_lane=fast_lane,
        )
        tx = network.add_host("tx", GeoPoint("tx", 40.0, -74.0))
        rx = network.add_host("rx", GeoPoint("rx", 41.0, -87.0))
        rx.start_capture()
        delivered = []
        rx.bind(5000, lambda p, h: delivered.append((simulator.now, p.packet_id)))
        src = tx.address(4000)
        dst = rx.address(5000)
        for i in range(packets):
            simulator.schedule_at(
                i * 5e-5,
                lambda: tx.send(Packet.fast(src, dst, 1200,
                                            PacketKind.MEDIA_VIDEO, "f")),
            )
        simulator.run()
        rows = [tuple(row) for row in rx._captures[0]._rows]
        return delivered, rows, network

    def test_single_event_path_is_exact(self):
        fast_delivered, fast_rows, fast_net = self._drive(True)
        slow_delivered, slow_rows, slow_net = self._drive(False)
        assert fast_delivered == slow_delivered
        assert fast_rows == slow_rows
        assert fast_net.fast_lane_sender_fused == len(fast_delivered)
        assert fast_net.fast_lane_epoch_misses == 0

    def test_backlogged_downlink_rearms_exactly(self):
        """Deliveries behind a slow downlink still match the slow path."""
        from repro.net.link import AccessLink
        from repro.net.simulator import Simulator
        import numpy as np

        def drive(fast_lane):
            simulator = Simulator()
            network = Network(
                simulator=simulator,
                latency_model=LatencyModel(jitter_fraction=0.0),
                rng=np.random.default_rng(0),
                fast_lane=fast_lane,
            )
            tx = network.add_host("tx", GeoPoint("tx", 40.0, -74.0))
            # A downlink slower than the offered rate: every fused
            # delivery estimate lands early and must re-arm.
            rx = network.add_host(
                "rx", GeoPoint("rx", 41.0, -87.0),
                link=AccessLink(downlink_bps=2_000_000.0),
            )
            delivered = []
            rx.bind(5000, lambda p, h: delivered.append((simulator.now, p.payload_bytes)))
            src = tx.address(4000)
            dst = rx.address(5000)
            for i in range(200):
                simulator.schedule_at(
                    i * 1e-4,
                    lambda: tx.send(Packet.fast(src, dst, 1200,
                                                PacketKind.MEDIA_VIDEO, "f")),
                )
            simulator.run()
            return delivered, network

        fast_delivered, fast_net = drive(True)
        slow_delivered, _ = drive(False)
        assert fast_delivered == slow_delivered
        assert fast_net.fast_lane_rearmed > 0


def _run_model_session(fast_lane: bool):
    """A 6-party size-modelled (SFU fan-out) session."""
    routing.FAST_LANE_DEFAULT = fast_lane
    packet_mod._packet_ids = itertools.count(1)
    names = ["US-East", "US-East2", "US-East3",
             "US-Central", "US-Central2", "US-West"]
    testbed = Testbed(TestbedConfig(seed=11))
    for name in names:
        testbed.add_vm(name)
    config = SessionConfig(
        duration_s=4.0,
        feed="high",
        use_codec=False,
        content_spec=FrameSpec(640, 480, 30),
        probes=True,
        record_video=False,
        audio=False,
        session_index=0,
        feed_seed=11,
    )
    artifacts = testbed.run_session("webex", names, names[0], config)
    network = testbed.network
    return {
        "captures": {
            name: [tuple(row) for row in capture._rows]
            for name, capture in artifacts.captures.items()
        },
        "rng_state": str(network.rng.bit_generator.state),
        "now": network.simulator.now,
        "rates": artifacts.rate_summary(),
        "packets": sum(host.packets_sent for host in network.hosts()),
        "fused": network.fast_lane_fused,
    }


class TestModelSession:
    """SFU fan-out: relay copies on the fused path match the slow path."""

    def test_sfu_fan_out_bit_identical(self):
        fast = _run_model_session(True)
        slow = _run_model_session(False)
        assert fast["captures"] == slow["captures"]
        assert fast["rng_state"] == slow["rng_state"]
        assert fast["now"] == slow["now"]
        assert fast["rates"] == slow["rates"]
        assert fast["packets"] == slow["packets"]
        assert slow["fused"] == 0
        assert fast["fused"] > 1000, "fast lane never engaged"
