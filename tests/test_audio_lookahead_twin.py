"""Audio look-ahead twin: the sender against a per-tick reference.

:class:`AudioStreamer` encodes up to a second of frames in one codec
call and emits them tick by tick.  The reference here is the per-tick
sender it replaced: each tick reads its own 100 ms microphone window
and encodes it alone.  Both run on fresh, identically seeded testbeds
and must emit the same packets at the same times with the same
payload frames, and leave the codec and microphone in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clients.streamer import AUDIO_FRAMES_PER_TICK, AudioStreamer
from repro.core.testbed import Testbed, TestbedConfig
from repro.media.audio import SpeechLikeSource
from repro.media.audio_codec import AudioCodecConfig, FRAME_DURATION_S
from repro.net.packet import PacketKind
from repro.platforms.base import ClientBinding
from repro.platforms.ratecontrol import RateContext


class _PerTickAudioStreamer(AudioStreamer):
    """The per-tick sender: one microphone read and one encode a tick."""

    def _tick(self):
        if not self._running():
            return False
        stream_time = self.simulator.now - self._start_time
        batch = self.client.microphone.read_at(
            stream_time, AUDIO_FRAMES_PER_TICK * FRAME_DURATION_S
        )
        frame_samples = self.codec.config.frame_samples
        usable = (len(batch) // frame_samples) * frame_samples
        encoded_frames = list(self.codec.encode(batch[:usable]))
        self._emit_paced(
            self.wiring.audio_flow(self.client.name),
            PacketKind.MEDIA_AUDIO,
            [encoded.size_bytes for encoded in encoded_frames],
            encoded_frames,
            FRAME_DURATION_S,
        )
        self.frames_sent += len(encoded_frames)
        return None


def _stream(cls, bitrate, duration_s, start_delay_s, idle_s, seed):
    """Run one audio sender to completion; return it and its packets.

    ``idle_s`` advances the simulator clock before the stream is
    started, so the tick grid sits on an arbitrary float origin.
    """
    testbed = Testbed(TestbedConfig(seed=7))
    host = testbed.add_vm("US-East")
    peer = testbed.add_vm("US-West")
    platform = testbed.platform("zoom")
    bindings = [ClientBinding(c.name, c.host, 40404) for c in (host, peer)]
    wiring = platform.create_session(
        bindings, "US-East", RateContext(num_participants=2),
        {c.name: c.view for c in (host, peer)},
    )
    host.attach_microphone(SpeechLikeSource(seed=seed))
    streamer = cls(host, wiring, AudioCodecConfig(bitrate_bps=bitrate))
    simulator = testbed.network.simulator
    simulator.run(until=simulator.now + idle_s)
    sent = []
    emit = streamer._emit

    def spy(flow_id, payload_bytes, kind, payload=None, delay=0.0,
            extra_metadata=None):
        sent.append((simulator.now + delay, flow_id, payload_bytes, payload))
        emit(flow_id, payload_bytes, kind, payload=payload, delay=delay,
             extra_metadata=extra_metadata)

    streamer._emit = spy
    streamer.start(duration_s, start_delay_s=start_delay_s)
    simulator.run()
    return streamer, sent


def assert_streams_equal(bitrate, duration_s, start_delay_s, idle_s=0.0,
                         seed=3):
    got, got_sent = _stream(AudioStreamer, bitrate, duration_s,
                            start_delay_s, idle_s, seed)
    want, want_sent = _stream(_PerTickAudioStreamer, bitrate, duration_s,
                              start_delay_s, idle_s, seed)
    assert len(got_sent) == len(want_sent)
    for (t_a, flow_a, size_a, frame_a), (t_b, flow_b, size_b, frame_b) in zip(
        got_sent, want_sent
    ):
        assert t_a == t_b
        assert flow_a == flow_b
        assert size_a == size_b
        assert frame_a.index == frame_b.index
        assert frame_a.q_step == frame_b.q_step
        assert frame_a.size_bytes == frame_b.size_bytes
        assert np.array_equal(frame_a.indices, frame_b.indices)
        assert np.array_equal(frame_a.values, frame_b.values)
    assert got.frames_sent == want.frames_sent
    assert got.packets_sent == want.packets_sent
    assert got.codec._next_index == want.codec._next_index
    assert (got.client.microphone.samples_served
            == want.client.microphone.samples_served)
    return got


@pytest.mark.parametrize(
    "duration_s, start_delay_s, bitrate",
    [
        (0.1, 0.0, 45_000),
        (0.95, 0.37, 8_000),
        (1.05, 1.234, 90_000),
        (3.33, 0.5, 40_000),
        (16.0, 2.0, 45_000),  # 16 look-ahead windows
    ],
)
def test_lookahead_matches_per_tick_sender(duration_s, start_delay_s,
                                           bitrate):
    streamer = assert_streams_equal(bitrate, duration_s, start_delay_s)
    assert streamer.frames_sent > 0
    # Every frame the stream produced was sent: nothing is left encoded
    # ahead past the end of the stream.
    assert not streamer._encoded_ahead


@settings(max_examples=20, deadline=None)
@given(
    duration_s=st.floats(min_value=0.01, max_value=2.5),
    start_delay_s=st.floats(min_value=0.0, max_value=3.0),
    idle_s=st.floats(min_value=0.0, max_value=5.0),
    bitrate=st.floats(min_value=6_000.0, max_value=128_000.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lookahead_matches_per_tick_sender_anywhere(
    duration_s, start_delay_s, idle_s, bitrate, seed
):
    """Any stream origin, length and bitrate: the same packets."""
    assert_streams_equal(bitrate, duration_s, start_delay_s, idle_s, seed)
