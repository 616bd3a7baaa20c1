"""Exact guards for the SFU fan-out path's per-copy work.

A relay copies every media packet to each subscriber, so anything the
fan-out builds per copy -- an address, a route list, a throwaway stats
record -- multiplies by the session size.  These tests count object
constructions and clock reads over the 6-party size-modelled webex
session (the ``sfu_session`` workload's shape), so a regression shows
up as a count that grows with the number of packets, not as a timing.
"""

from __future__ import annotations

import dis
import itertools

import numpy as np
import pytest

import repro.net.packet as packet_mod
from repro.clients import receiver as receiver_module
from repro.clients.client import BaseClient
from repro.clients.receiver import ReceiverEngine
from repro.clients.streamer import _SenderBase
from repro.core.session import SessionConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.media.frames import FrameSpec
from repro.net.address import Address
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.routing import Network
from repro.net.simulator import Simulator
from repro.platforms.base import RelayTiming, ServiceRelay

NAMES = ["US-East", "US-East2", "US-East3",
         "US-Central", "US-Central2", "US-West"]


def _run_model_session(duration_s: float, patch=None) -> int:
    """A 6-party size-modelled webex session; returns packets sent.

    The session of ``test_fast_lane_equivalence.py``'s SFU fan-out
    twin, with the duration as a parameter.

    ``patch(monkeypatch)`` installs counters around
    :meth:`Testbed.run_session` only, so they skip the testbed's
    construction.
    """
    packet_mod._packet_ids = itertools.count(1)
    testbed = Testbed(TestbedConfig(seed=11))
    for name in NAMES:
        testbed.add_vm(name)
    config = SessionConfig(
        duration_s=duration_s,
        feed="high",
        use_codec=False,
        content_spec=FrameSpec(640, 480, 30),
        probes=True,
        record_video=False,
        audio=False,
        session_index=0,
        feed_seed=11,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        if patch is not None:
            patch(monkeypatch)
        testbed.run_session("webex", NAMES, NAMES[0], config)
    return sum(host.packets_sent for host in testbed.network.hosts())


def _counter(owner, name, calls):
    """A ``patch`` that counts calls of ``owner.name`` into ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    return lambda monkeypatch: monkeypatch.setattr(owner, name, counted)


class TestSessionCounts:
    def test_address_constructions_do_not_grow_with_packets(self):
        built = {}
        for duration_s in (2.0, 4.0):
            calls = [0]
            packets = _run_model_session(
                duration_s, _counter(Address, "__post_init__", calls)
            )
            built[duration_s] = (calls[0], packets)
        # Non-vacuous: twice the session sends about twice the packets.
        assert built[4.0][1] > 1.9 * built[2.0][1] > 5000
        assert built[2.0][0] == built[4.0][0]

    def test_one_flow_stats_per_receiver_and_flow(self):
        pairs = set()
        on_media = ReceiverEngine.on_media

        def recording(engine, packet):
            pairs.add((id(engine), packet.flow_id))
            on_media(engine, packet)

        calls = [0]
        count_stats = _counter(receiver_module.FlowStats, "__init__", calls)

        def patch(monkeypatch):
            monkeypatch.setattr(ReceiverEngine, "on_media", recording)
            count_stats(monkeypatch)

        packets = _run_model_session(2.0, patch)
        assert pairs and packets > 2000
        assert calls[0] == len(pairs)

    def test_packet_path_reads_no_clock_property(self):
        reads = [0]
        now = Simulator.now.fget

        def counted(simulator):
            reads[0] += 1
            return now(simulator)

        packets = _run_model_session(
            2.0,
            lambda monkeypatch: monkeypatch.setattr(
                Simulator, "now", property(counted)
            ),
        )
        # Streamer ticks and probes still read the property; the
        # per-packet send, transmit, propagate and deliver stages don't.
        assert reads[0] * 10 < packets

    def test_packet_path_reads_no_network_property(self):
        reads = [0]
        network = Host.network.fget

        def counted(host):
            reads[0] += 1
            return network(host)

        packets = _run_model_session(
            2.0,
            lambda monkeypatch: monkeypatch.setattr(
                Host, "network", property(counted)
            ),
        )
        # Session wiring, feedback ticks and probes still read it; the
        # relay and the senders keep their simulator from construction.
        assert packets > 2000
        assert reads[0] * 10 < packets


#: Per-packet stages: each runs once per packet or per relayed copy.
PER_PACKET_STAGES = [
    Host.send,
    Host.deliver,
    Network.transmit,
    Network._propagate,
    Network._fast_deliver,
    ServiceRelay._handle,
    ServiceRelay._forward,
    BaseClient._on_packet,
    ReceiverEngine.on_media,
    ReceiverEngine._on_video,
    _SenderBase._emit,
]


@pytest.mark.parametrize(
    "stage", PER_PACKET_STAGES, ids=lambda stage: stage.__qualname__
)
def test_per_packet_stage_reads_no_enum_class(stage):
    """Enum members come from module aliases on the packet path.

    A member read such as ``PacketKind.PROBE`` goes through the Enum
    metaclass's slow attribute lookup, several times the cost of a
    module global; these stages run per packet.
    """
    loaded = {
        instruction.argval
        for instruction in dis.get_instructions(stage)
        if instruction.opname == "LOAD_GLOBAL"
    }
    assert not loaded & {"PacketKind", "Direction", "StreamLayer"}


@pytest.mark.parametrize("scale", [0.0004, 0.0015, 0.02])
def test_scaled_standard_draws_equal_numpy_scaled_draws(scale):
    """The packet path's draw forms are numpy's own arithmetic.

    ``_propagate`` draws jitter as ``scale * standard_gamma(2.0)`` and
    the relay its delay as ``scale * standard_exponential()``; numpy
    computes ``gamma``/``exponential`` as exactly those products, so the
    draws (and every stream position after them) are the same.  The
    lognormal draws interleave as the streamers' frame sizes do.
    """
    reference = np.random.default_rng(2024)
    hoisted = np.random.default_rng(2024)
    for _ in range(2000):
        assert float(reference.gamma(shape=2.0, scale=scale)) == (
            scale * hoisted.standard_gamma(2.0)
        )
        assert float(reference.exponential(scale)) == (
            scale * hoisted.standard_exponential()
        )
        assert reference.lognormal(0.0, 0.25) == hoisted.lognormal(0.0, 0.25)


@pytest.fixture
def relay_setup(network, registry):
    relay_host = network.add_host(
        "relay", registry.site("webex-us-east"), tier="infra"
    )
    sender = network.add_host("sender", registry.get("US-East").location)
    receivers = [
        network.add_host(name, registry.get(name).location)
        for name in ("US-West", "US-Central")
    ]
    relay = ServiceRelay.install(
        relay_host, 9000, RelayTiming(), np.random.default_rng(0)
    )
    inbox = []
    for host in receivers:
        host.bind(40404, lambda packet, host: inbox.append((host.name, packet)))
    return network, relay, sender, receivers, inbox


def _media(sender, relay, flow="s|a|v-high"):
    return Packet(
        src=sender.address(40404),
        dst=relay.address,
        payload_bytes=1000,
        kind=PacketKind.MEDIA_VIDEO,
        flow_id=flow,
    )


class TestRelayFanOut:
    def test_copies_carry_the_relay_address(self, relay_setup):
        network, relay, sender, receivers, inbox = relay_setup
        relay.register_route(
            "s|a|v-high", [host.address(40404) for host in receivers]
        )
        sender.send(_media(sender, relay))
        sender.send(_media(sender, relay))
        network.simulator.run()
        assert len(inbox) == 4
        for _name, copy in inbox:
            assert copy.src == relay.address
            # Built once: every copy shares the relay's one address.
            assert copy.src is relay.address

    def test_mutating_registered_list_does_not_change_forwarding(
        self, relay_setup
    ):
        network, relay, sender, receivers, inbox = relay_setup
        destinations = [receivers[0].address(40404)]
        relay.register_route("s|a|v-high", destinations)
        destinations.append(receivers[1].address(40404))
        sender.send(_media(sender, relay))
        destinations.clear()
        network.simulator.run()
        assert [name for name, _ in inbox] == ["US-West"]

    def test_route_is_shared_not_copied_per_packet(self, relay_setup, monkeypatch):
        network, relay, sender, receivers, inbox = relay_setup
        relay.register_route(
            "s|a|v-high", [(host.address(40404), 1.0) for host in receivers]
        )
        seen = []
        forward = ServiceRelay._forward

        def recording(self, packet, destinations):
            seen.append(destinations)
            forward(self, packet, destinations)

        monkeypatch.setattr(ServiceRelay, "_forward", recording)
        for _ in range(3):
            sender.send(_media(sender, relay))
        network.simulator.run()
        assert len(seen) == 3 and len(inbox) == 6
        assert isinstance(seen[0], tuple)
        assert seen[0] is seen[1] is seen[2]


def test_schedule_pushes_without_schedule_at(monkeypatch):
    """``schedule`` is on every relay hop: it pushes onto the heap itself."""

    def refuse(*args):
        raise AssertionError("schedule went through schedule_at")

    simulator = Simulator()
    monkeypatch.setattr(simulator, "schedule_at", refuse)
    fired = []
    simulator.schedule(0.5, fired.append, 1)
    simulator.run()
    assert fired == [1] and simulator.now == 0.5
