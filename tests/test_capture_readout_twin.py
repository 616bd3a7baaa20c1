"""The columnar session readout against its row-wise reference.

``SessionArtifacts._media_rate`` and ``Capture.remote_endpoints`` read
``Capture``'s columns and rows without building per-packet objects.
The row-wise versions they replaced live on here as a reference: a
hypothesis twin diffs the two over generated captures, and a guard on
a real relayed session checks that the readout never materialises a
``CapturedPacket`` nor builds more than one ``EndpointKey`` per
distinct endpoint.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import MEDIA_KINDS, SessionArtifacts, SessionConfig
from repro.errors import MeasurementError
from repro.media.frames import FrameSpec
from repro.net import capture as capture_module
from repro.net.address import Address, EndpointKey
from repro.net.capture import Capture, Direction
from repro.net.packet import Packet, PacketKind, Protocol

LOCAL = Address("10.0.0.1", 50000)
REMOTE_IPS = ("172.16.0.1", "172.16.0.2", "10.0.0.9")
REMOTE_PORTS = (8801, 9000, 19305, 50001)
WINDOW = (2.0, 5.0)


# --------------------------------------------------------------------- #
# Row-wise reference (the readout as it was before it went columnar).
# --------------------------------------------------------------------- #

def reference_media_rate(capture, direction, media_window):
    start, end = media_window
    records = [
        r
        for r in capture.filter(direction=direction, kinds=MEDIA_KINDS)
        if start <= r.timestamp <= end
    ]
    if not records:
        raise MeasurementError("no media packets in the rate window")
    total = sum(r.payload_bytes for r in records)
    return total * 8.0 / (end - start)


def reference_remote_endpoints(capture, direction=None, port=None,
                               media_only=True):
    media_kinds = {PacketKind.MEDIA_VIDEO, PacketKind.MEDIA_AUDIO}
    found = set()
    for record in capture:
        if direction is not None and record.direction is not direction:
            continue
        if media_only and record.kind not in media_kinds:
            continue
        endpoint = record.remote_endpoint
        if port is not None and endpoint.port != port:
            continue
        found.add(endpoint)
    return found


def artifacts_with_window(media_window):
    """Bare artifacts: the rate readout needs only the window."""
    artifacts = SessionArtifacts(
        config=SessionConfig(), wiring=None, host_name="host",
        clients={}, captures={},
    )
    artifacts.media_window = media_window
    return artifacts


def record(capture, t, direction, payload=1000, kind=PacketKind.MEDIA_VIDEO,
           remote=("172.16.0.1", 8801), proto=Protocol.UDP):
    remote_address = Address(*remote)
    src, dst = ((LOCAL, remote_address) if direction is Direction.OUT
                else (remote_address, LOCAL))
    capture.record(
        Packet(src=src, dst=dst, payload_bytes=payload, proto=proto,
               kind=kind),
        direction, t,
    )


# --------------------------------------------------------------------- #
# Differential twin over generated captures.
# --------------------------------------------------------------------- #

#: Timestamps on both window edges, inside, and outside on either side.
timestamps = st.one_of(
    st.sampled_from((0.0, WINDOW[0], 3.5, WINDOW[1], 7.0)),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)

packet_rows = st.tuples(
    timestamps,
    st.sampled_from(tuple(Direction)),
    st.sampled_from(tuple(PacketKind)),
    st.sampled_from(tuple(Protocol)),
    st.sampled_from(REMOTE_IPS),
    st.sampled_from(REMOTE_PORTS),
    st.integers(min_value=0, max_value=1500),
)


def build_capture(rows):
    capture = Capture("host")
    for t, direction, kind, proto, ip, port, payload in sorted(
        rows, key=lambda row: row[0]
    ):
        record(capture, t, direction, payload=payload, kind=kind,
               remote=(ip, port), proto=proto)
    return capture


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(packet_rows, max_size=40))
def test_media_rate_matches_rowwise_reference(rows):
    capture = build_capture(rows)
    artifacts = artifacts_with_window(WINDOW)
    for direction in Direction:
        try:
            expected = reference_media_rate(capture, direction, WINDOW)
        except MeasurementError:
            with pytest.raises(MeasurementError):
                artifacts._media_rate(capture, direction)
            continue
        assert artifacts._media_rate(capture, direction) == expected


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(packet_rows, max_size=40))
def test_remote_endpoints_match_rowwise_reference(rows):
    capture = build_capture(rows)
    for direction in (None, *Direction):
        for port in (None, *REMOTE_PORTS):
            for media_only in (True, False):
                expected = reference_remote_endpoints(
                    capture, direction, port, media_only
                )
                assert capture.remote_endpoints(
                    direction=direction, port=port, media_only=media_only
                ) == expected


# --------------------------------------------------------------------- #
# Window edges and errors of the rate readout.
# --------------------------------------------------------------------- #

class TestMediaRateWindow:
    def test_packets_on_both_window_edges_are_counted(self):
        capture = Capture("host")
        record(capture, 1.0, Direction.IN, payload=99)
        record(capture, WINDOW[0], Direction.IN, payload=1000)
        record(capture, WINDOW[1], Direction.IN, payload=500,
               kind=PacketKind.MEDIA_AUDIO)
        record(capture, 6.0, Direction.IN, payload=77)
        rate = artifacts_with_window(WINDOW)._media_rate(capture, Direction.IN)
        assert rate == 1500 * 8.0 / (WINDOW[1] - WINDOW[0])

    def test_only_control_packets_in_window_raise_measurement_error(self):
        capture = Capture("host")
        record(capture, 1.0, Direction.IN)  # media, but before the window
        record(capture, 3.0, Direction.IN, kind=PacketKind.PROBE)
        record(capture, 4.0, Direction.IN, kind=PacketKind.SIGNALING)
        record(capture, 4.5, Direction.OUT)  # media, other direction
        with pytest.raises(MeasurementError):
            artifacts_with_window(WINDOW)._media_rate(capture, Direction.IN)


# --------------------------------------------------------------------- #
# Structural guard on a real relayed session.
# --------------------------------------------------------------------- #

NAMES = ["US-East", "US-East2", "US-West"]


@pytest.fixture
def relayed_session(testbed):
    for name in NAMES:
        testbed.add_vm(name)
    return testbed.run_session(
        "zoom", NAMES, "US-East",
        SessionConfig(duration_s=6.0, feed="flash", pad_fraction=0.0,
                      content_spec=FrameSpec(64, 48, 10), gop_size=600),
    )


def readout(artifacts):
    return (
        artifacts.rate_summary(),
        {name: artifacts.download_rate_bps(name) for name in NAMES[1:]},
        {name: artifacts.discovered_endpoints(name) for name in NAMES},
    )


def test_readout_builds_no_per_packet_objects(relayed_session, monkeypatch):
    expected = readout(relayed_session)
    # Non-vacuous: every client saw media from at least one endpoint.
    assert all(expected[2].values())

    def refuse(row):
        raise AssertionError("the session readout materialised a packet")

    built = []

    def counting_key(*args):
        built.append(args)
        return EndpointKey(*args)

    monkeypatch.setattr(Capture, "_materialise", staticmethod(refuse))
    monkeypatch.setattr(capture_module, "EndpointKey", counting_key)
    assert readout(relayed_session) == expected
    # One key per distinct endpoint across the three discoveries.
    assert len(built) == sum(len(keys) for keys in expected[2].values())
