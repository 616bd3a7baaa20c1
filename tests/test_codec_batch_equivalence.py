"""Codec twins: reference audio codec, deferred and closed-loop video.

Each codec has one implementation.  The audio codec encodes a whole
buffer with one DCT over its ``(frames, samples)`` matrix and one
vectorised quantiser bisection, and decodes lazily with one batched
IDCT.  A per-frame reference kept here -- one DCT, one scalar 24-probe
bisection and one IDCT per frame -- pins it frame by frame: levels,
quantiser steps, frame indices, sizes and decoded samples.

The video decoder's deferred mode parks delivered frames and replays
them at materialise time; it is diffed against eager decoding, down to
the frames a desktop recorder grabs.  The encoder's closed-loop
reference is diffed against the decoder's reconstruction.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sp_fft

from repro.clients.recorder import DEFAULT_RESAMPLE, DesktopRecorder
from repro.core.testbed import Testbed, TestbedConfig
from repro.errors import CodecError
from repro.media.audio import SpeechLikeSource, ToneSource
from repro.media.audio_codec import (
    AudioCodec,
    AudioCodecConfig,
    AudioDecoder,
    EncodedAudioFrame,
)
from repro.media.feeds import HighMotionFeed, LowMotionFeed, StaticFeed
from repro.media.frames import FrameSpec
from repro.media.padding import resize_frames
from repro.media.video_codec import (
    BLOCK,
    QUANT_WEIGHTS,
    SKIP_DEADZONE_LUMA,
    EncodedFrame,
    VideoCodec,
    VideoCodecConfig,
    VideoDecoder,
    _apply_prediction,
    _block_dct,
    _block_grid,
    _block_idct,
    _estimate_bits,
    _padded_plane,
    _residual_plane_sparse,
    _skip_deadzone_mask,
)


# --------------------------------------------------------------------- #
# Audio: the per-frame reference codec.
# --------------------------------------------------------------------- #


def _reference_probe_bits(levels):
    """Bit-model cost of one frame's non-negative quantised levels."""
    per_level = np.log2(1.0 + levels)
    return 1.7 * np.sum(per_level) + 2.5 * np.count_nonzero(levels) + 64.0


def _reference_fit_quantiser(coeffs, budget_bits):
    """Scalar 24-probe bisection for one frame's quantiser step."""
    lo, hi = 1e-4, 10.0
    magnitudes = np.abs(coeffs)
    for _ in range(24):
        mid = math.sqrt(lo * hi)
        levels = np.round(magnitudes / mid)
        if float(_reference_probe_bits(levels)) > budget_bits:
            lo = mid
        else:
            hi = mid
    return hi


class _ReferenceAudioEncoder:
    """Per-frame audio encoder: one DCT and one bisection per frame."""

    def __init__(self, config):
        self.config = config
        self._next_index = 0

    def encode(self, samples):
        n = self.config.frame_samples
        return [self._encode_one(samples[i : i + n])
                for i in range(0, len(samples), n)]

    def _encode_one(self, samples):
        coeffs = sp_fft.dct(np.asarray(samples, dtype=np.float64), norm="ortho")
        q_step = _reference_fit_quantiser(coeffs, self.config.frame_budget_bits)
        levels = np.round(coeffs / q_step).astype(np.int32)
        nonzero = np.nonzero(levels)[0]
        values = levels[nonzero].astype(np.int16)
        bits = 64.0
        if values.size:
            magnitudes = np.abs(values.astype(np.float64))
            bits += float(np.sum(2.5 + 1.7 * np.log2(1.0 + magnitudes)))
        frame = EncodedAudioFrame(
            index=self._next_index,
            q_step=q_step,
            indices=nonzero.astype(np.int32),
            values=values,
            frame_samples=self.config.frame_samples,
            size_bytes=int(np.ceil(bits / 8.0)),
        )
        self._next_index += 1
        return frame


class _ReferenceAudioDecoder(AudioDecoder):
    """Eager decoder: one IDCT per pushed frame, nothing parked."""

    def push(self, frame):
        coeffs = np.zeros(frame.frame_samples, dtype=np.float64)
        coeffs[frame.indices] = frame.values.astype(np.float64) * frame.q_step
        self._frames[frame.index] = sp_fft.idct(coeffs, norm="ortho")
        self._max_index = max(self._max_index, frame.index)
        self.frames_received += 1


def assert_audio_frames_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.index == b.index
        assert a.q_step == b.q_step
        assert a.frame_samples == b.frame_samples
        assert a.indices.dtype == b.indices.dtype
        assert a.values.dtype == b.values.dtype
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)
        assert a.size_bytes == b.size_bytes


def _encode_both(config, samples, ticks=(10**9,)):
    """Encode with the codec and the reference, cycling through ``ticks``
    frames per call (default: the whole buffer in one call); asserts the
    two agree and returns the codec's frames."""
    codec, reference = AudioCodec(config), _ReferenceAudioEncoder(config)
    got, want = [], []
    start, tick = 0, 0
    while start < len(samples):
        end = start + ticks[tick % len(ticks)] * config.frame_samples
        got += codec.encode(samples[start:end])
        want += reference.encode(samples[start:end])
        start, tick = end, tick + 1
    assert_audio_frames_equal(got, want)
    return got


def _signal(kind, frames, frame_samples, seed):
    count = frames * frame_samples
    rng = np.random.default_rng(seed)
    if kind == "speech":
        return SpeechLikeSource(seed=seed).samples(0, count)
    if kind == "silence":
        return np.zeros(count)
    if kind == "noise":
        return rng.normal(0.0, 0.4, count)
    return rng.normal(0.0, 80.0, count)  # overload: far beyond any budget


@settings(max_examples=60, deadline=None)
@given(
    bitrate=st.floats(min_value=4_000.0, max_value=128_000.0),
    kind=st.sampled_from(["speech", "silence", "noise", "overload"]),
    frames=st.integers(min_value=0, max_value=30),
    ticks=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                   max_size=8),
    concealment=st.sampled_from(["repeat", "silence"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_audio_codec_matches_per_frame_reference(
    bitrate, kind, frames, ticks, concealment, seed
):
    """Batched encode and lazy decode equal the per-frame reference for
    any bitrate, signal and split of the stream into ticks."""
    config = AudioCodecConfig(bitrate_bps=bitrate, concealment=concealment)
    n = config.frame_samples
    got = _encode_both(config, _signal(kind, frames, n, seed), ticks)
    assert [f.index for f in got] == list(range(frames))

    # Deliver out of order with losses and a duplicate, draining the
    # lazy decoder part-way through.
    rng = random.Random(seed)
    delivered = [f for f in got if rng.random() > 0.2]
    rng.shuffle(delivered)
    if delivered:
        delivered.append(delivered[rng.randrange(len(delivered))])
    drain_at = rng.randrange(len(delivered) + 1)
    lazy = AudioDecoder(AudioCodec(config))
    eager = _ReferenceAudioDecoder(AudioCodec(config))
    for position, frame in enumerate(delivered):
        if position == drain_at:
            lazy.waveform(frames)
            eager.waveform(frames)
        lazy.push(frame)
        eager.push(frame)
    assert np.array_equal(lazy.waveform(frames), eager.waveform(frames))
    assert np.array_equal(lazy.waveform(), eager.waveform())
    assert lazy.frames_received == eager.frames_received
    assert lazy.frames_concealed == eager.frames_concealed


class TestAudioEncodeEquivalence:
    @pytest.mark.parametrize("bitrate", [8_000, 45_000, 90_000])
    def test_speech_bit_identical(self, bitrate):
        config = AudioCodecConfig(bitrate_bps=bitrate)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 1.5)
        assert _encode_both(config, speech), "speech clip produced no frames"

    def test_silence_and_noise_and_overload(self):
        config = AudioCodecConfig(bitrate_bps=45_000)
        rng = np.random.default_rng(0)
        signals = [
            np.zeros(320 * 7),
            rng.normal(0.0, 0.4, 320 * 13),
            rng.normal(0.0, 80.0, 320 * 3),  # far beyond any budget
            ToneSource().read_duration(0.0, 0.2),
        ]
        for samples in signals:
            _encode_both(config, samples)

    def test_empty_buffer(self):
        assert AudioCodec().encode(np.zeros(0)) == []

    def test_misaligned_buffer_rejected(self):
        codec = AudioCodec()
        with pytest.raises(CodecError):
            codec.encode(np.zeros(codec.config.frame_samples + 1))

    def test_index_continuity_across_batches(self):
        """Tick-sized batches continue the frame index like the loop."""
        config = AudioCodecConfig(bitrate_bps=45_000)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 1.0)
        frames = _encode_both(config, speech, ticks=(5,))
        assert [f.index for f in frames] == list(range(len(frames)))


class TestAudioDecodeEquivalence:
    def _frames(self):
        config = AudioCodecConfig(bitrate_bps=45_000)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 1.0)
        return config, AudioCodec(config).encode(speech)

    def test_lazy_batched_waveform_bit_identical(self):
        config, frames = self._frames()
        lazy = AudioDecoder(AudioCodec(config))
        eager = _ReferenceAudioDecoder(AudioCodec(config))
        order = [f for f in frames if f.index not in {5, 6, 40}]
        random.Random(1).shuffle(order)
        order.append(order[3])  # duplicate delivery
        for frame in order:
            lazy.push(frame)
            eager.push(frame)
        total = len(frames)
        assert np.array_equal(lazy.waveform(total), eager.waveform(total))
        assert lazy.frames_received == eager.frames_received
        assert lazy.frames_concealed == eager.frames_concealed

    def test_waveform_idempotent_after_drain(self):
        config, frames = self._frames()
        lazy = AudioDecoder(AudioCodec(config))
        for frame in frames:
            lazy.push(frame)
        first = lazy.waveform(len(frames))
        again = lazy.waveform(len(frames))
        assert np.array_equal(first, again)

    def test_push_after_drain_decodes_late_frame(self):
        config, frames = self._frames()
        lazy = AudioDecoder(AudioCodec(config))
        eager = _ReferenceAudioDecoder(AudioCodec(config))
        for frame in frames[:-1]:
            lazy.push(frame)
            eager.push(frame)
        lazy.waveform(len(frames))  # drain mid-stream
        lazy.push(frames[-1])
        eager.push(frames[-1])
        assert np.array_equal(
            lazy.waveform(len(frames)), eager.waveform(len(frames))
        )


class TestQuantiserProperties:
    def test_silent_frame_minimal_size(self):
        codec = AudioCodec()
        [frame] = codec.encode(np.zeros(codec.config.frame_samples))
        assert frame.indices.size == 0
        assert frame.values.size == 0
        assert frame.size_bytes == 8  # ceil(64-bit header / 8)

    def test_fitted_step_meets_budget(self):
        """The returned step's realised probe bits fit the budget."""
        config = AudioCodecConfig(bitrate_bps=45_000)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 0.5)
        stack = sp_fft.dct(speech.reshape(-1, config.frame_samples),
                           norm="ortho")
        steps = AudioCodec(config)._fit_quantiser_batch(
            stack, config.frame_budget_bits
        )
        for coeffs, step in zip(stack, steps):
            bits = _reference_probe_bits(np.round(np.abs(coeffs) / step))
            assert bits <= config.frame_budget_bits or step == 10.0

    def test_batch_fit_matches_scalar_fit(self):
        config = AudioCodecConfig(bitrate_bps=45_000)
        codec = AudioCodec(config)
        rng = np.random.default_rng(2)
        stack = sp_fft.dct(rng.normal(0, 0.5, (17, 320)), norm="ortho")
        batched = codec._fit_quantiser_batch(stack, config.frame_budget_bits)
        scalar = [
            _reference_fit_quantiser(stack[i], config.frame_budget_bits)
            for i in range(stack.shape[0])
        ]
        assert np.array_equal(batched, np.array(scalar))

    def test_higher_budget_finer_step(self):
        codec = AudioCodec()
        rng = np.random.default_rng(3)
        coeffs = sp_fft.dct(rng.normal(0, 0.5, (1, 320)), norm="ortho")
        fine = codec._fit_quantiser_batch(coeffs, 2000.0)
        coarse = codec._fit_quantiser_batch(coeffs, 500.0)
        assert fine[0] <= coarse[0]


# --------------------------------------------------------------------- #
# Video codec.
# --------------------------------------------------------------------- #


SPEC = FrameSpec(128, 96, 12)


def _encoded_stream(count=24, gop=6):
    codec = VideoCodec(SPEC, VideoCodecConfig(gop_size=gop),
                       target_bps=300_000)
    return codec.encode_batch(np.stack(LowMotionFeed(SPEC).frames(count)))


def _encode_in_sync(spec, feed_cls, count, gop=5, rate=300_000, splits=None,
                    force_at=None, retarget_at=None):
    """Encode bursts and decode every frame as it is produced.

    After every burst the decoder's reconstruction must equal the
    encoder's closed-loop reference bit for bit: the encoder dequantises
    its dense int16 levels, the decoder the sparse frame.
    """
    codec = VideoCodec(spec, VideoCodecConfig(gop_size=gop), target_bps=rate)
    decoder = VideoDecoder(spec)
    frames = np.stack(feed_cls(spec, seed=3).frames(count))
    encoded = []
    start = 0
    for size in splits or [count]:
        if force_at is not None and start == force_at:
            codec.request_keyframe()
        if retarget_at is not None and start == retarget_at:
            codec.rate_controller.set_target(rate / 3.0)
        burst = codec.encode_batch(frames[start : start + size])
        for frame in burst:
            assert decoder.decode(frame) is not None
        assert np.array_equal(decoder._reference, codec._reference)
        encoded += burst
        start += size
    assert [f.index for f in encoded] == list(range(count))
    assert decoder.frames_decoded == count
    return encoded


class TestVideoEncodeEquivalence:
    """Encoder reference and decoder reconstruction stay bit-identical."""

    def test_gop_cadence_bit_identical(self):
        encoded = _encode_in_sync(SPEC, LowMotionFeed, 17, gop=5,
                                  splits=[8, 9])
        assert [f.keyframe for f in encoded] == [
            f.index % 5 == 0 for f in encoded
        ]

    def test_high_motion_with_forced_keyframe(self):
        encoded = _encode_in_sync(SPEC, HighMotionFeed, 14, gop=30,
                                  splits=[7, 7], force_at=7)
        assert [f.index for f in encoded if f.keyframe] == [0, 7]

    def test_rate_change_boundary(self):
        encoded = _encode_in_sync(SPEC, HighMotionFeed, 16, gop=8,
                                  splits=[8, 8], retarget_at=8)
        assert encoded[-1].q_step > encoded[7].q_step

    def test_static_feed_skip_deadzone(self):
        encoded = _encode_in_sync(SPEC, StaticFeed, 12, gop=600)
        # The deadzone must actually engage: settled frames code nothing.
        assert any(f.values.size == 0 and not f.keyframe for f in encoded)

    def test_odd_resolution_through_padding(self):
        spec = FrameSpec(100, 75, 10)
        encoded = _encode_in_sync(spec, LowMotionFeed, 9, splits=[3, 3, 3])
        assert all(f.shape == (80, 104) for f in encoded)
        assert all(tuple(f.crop) == (75, 100) for f in encoded)

    def test_minimal_plane(self):
        _encode_in_sync(FrameSpec(16, 16, 10), LowMotionFeed, 6)

    def test_float_input_stack(self):
        """Integral float frames encode exactly like their uint8 source."""
        frames = np.stack(LowMotionFeed(SPEC, seed=3).frames(6))

        def signature(stack):
            return [(f.keyframe, f.q_step, f.size_bytes, f.indices.tobytes(),
                     f.values.tobytes())
                    for f in VideoCodec(SPEC).encode_batch(stack)]

        assert signature(frames.astype(np.float64)) == signature(frames)
        assert signature(frames.astype(np.float32)) == signature(frames)

    def test_single_frame_and_empty_batch(self):
        codec = VideoCodec(SPEC)
        assert codec.encode_batch(np.zeros((0,) + SPEC.shape, np.uint8)) == []
        _encode_in_sync(SPEC, LowMotionFeed, 1)

    def test_wrong_geometry_rejected(self):
        codec = VideoCodec(SPEC)
        with pytest.raises(CodecError):
            codec.encode_batch(np.zeros((3, 10, 10), dtype=np.uint8))


class TestVideoDecodeEquivalence:
    """A deferred decoder replays to exactly what eager decoding showed."""

    def _assert_same_decode(self, deliveries, materialise_after=None):
        """``deliveries``: encoded frames, or ints for transport losses."""
        deferred = VideoDecoder(SPEC, defer=True)
        eager = VideoDecoder(SPEC)
        expected = []
        for position, item in enumerate(deliveries):
            if isinstance(item, int):
                deferred.mark_lost(item)
                expected.append(eager.mark_lost(item))
            else:
                deferred.decode(item)
                expected.append(eager.decode(item))
            if position == materialise_after:
                deferred.materialise()
        for token, want in enumerate(expected, start=1):
            got = deferred.frame_at_token(token)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
        assert deferred.frames_decoded == eager.frames_decoded
        assert deferred.frames_frozen == eager.frames_frozen
        if eager._reference is None:
            assert deferred._reference is None
        else:
            assert np.array_equal(deferred._reference, eager._reference)

    def test_clean_burst(self):
        self._assert_same_decode(_encoded_stream())

    def test_losses_freeze_and_resync(self):
        frames = _encoded_stream()
        self._assert_same_decode([f for f in frames if f.index not in {3, 13}])

    def test_burst_starting_on_inter_frame(self):
        frames = _encoded_stream()
        self._assert_same_decode(frames[2:])

    def test_burst_ending_frozen_keeps_awaiting_state(self):
        """A replay that ends frozen leaves the inner decoder awaiting a
        keyframe, so frames deferred after it freeze exactly as the
        eager history does."""
        frames = _encoded_stream(count=20, gop=8)
        kept = [f for f in frames[:12] if f.index != 10]  # ends frozen
        self._assert_same_decode(kept + frames[12:],
                                 materialise_after=len(kept) - 1)

    def test_mark_lost_between_bursts(self):
        frames = _encoded_stream()
        self._assert_same_decode(frames[:2] + [2] + frames[3:],
                                 materialise_after=1)

    def test_stats_only_decoder_matches_pixel_stats(self):
        frames = _encoded_stream()
        kept = [f for f in frames if f.index not in {4, 9, 10}]
        stats = VideoDecoder(SPEC, pixels=False)
        pixel = VideoDecoder(SPEC, pixels=True)
        for frame in kept:
            stats.decode(frame)
            pixel.decode(frame)
        assert stats.frames_decoded == pixel.frames_decoded
        assert stats.frames_frozen == pixel.frames_frozen
        assert stats.last_frame is None
        assert pixel.last_frame is not None


class TestDeferredDecodeEquivalence:
    """Deferred receiver decode: park events, replay at materialise.

    ``defer=True`` runs the freeze/resync metadata machine eagerly but
    parks all pixel work as an event log; :meth:`materialise` replays it
    through an internal eager decoder.  Counters must read true at every
    simulated moment, and each recorder token must resolve to exactly
    the frame the eager path would have grabbed.
    """

    def test_token_replay_bit_identical(self):
        frames = _encoded_stream()
        deferred = VideoDecoder(SPEC, defer=True)
        eager = VideoDecoder(SPEC, defer=False)
        expected = []
        for frame in frames:
            if frame.index in {3, 13}:  # transport losses
                assert deferred.mark_lost(frame.index) is None
                expected.append(eager.mark_lost(frame.index))
            else:
                assert deferred.decode(frame) is None
                expected.append(eager.decode(frame))
            # The metadata state machine is eager and exact throughout.
            assert deferred.frames_decoded == eager.frames_decoded
            assert deferred.frames_frozen == eager.frames_frozen
            assert deferred.has_output == (eager.frames_decoded > 0)
        assert deferred.events_seen == len(expected)
        assert deferred.frame_at_token(0) is None
        for token, want in enumerate(expected, start=1):
            got = deferred.frame_at_token(token)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)
        assert np.array_equal(deferred.last_frame, eager.last_frame)
        assert np.array_equal(deferred._reference, eager._reference)

    def test_materialise_cycles_compose(self):
        """Mid-stream materialise + further deferral stays exact."""
        frames = _encoded_stream(count=20, gop=5)
        deferred = VideoDecoder(SPEC, defer=True)
        eager = VideoDecoder(SPEC, defer=False)
        expected = []
        for frame in frames[:8]:
            deferred.decode(frame)
            expected.append(eager.decode(frame))
        assert np.array_equal(deferred.last_frame, eager.last_frame)
        deferred.mark_lost(8)
        expected.append(eager.mark_lost(8))
        for frame in frames[9:]:
            deferred.decode(frame)
            expected.append(eager.decode(frame))
        for token, want in enumerate(expected, start=1):
            got = deferred.frame_at_token(token)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)

    def test_defer_requires_pixels(self):
        assert not VideoDecoder(SPEC, pixels=False, defer=True).defer
        assert VideoDecoder(SPEC, pixels=True, defer=True).defer


class TestDeferredRecorder:
    """A desktop recorder on a deferred decoder vs one on an eager one.

    The deferred recorder parks a decoder event count per tick and
    resolves it when its frames are read; it must record exactly what
    the eager recorder grabbed live -- through black pre-roll, a
    transport loss, the freeze after it and the keyframe resync.  Both
    must match the recording as a full, eager finalize produced it,
    whatever order the lazy frame view is read in.
    """

    LOST = 8  # GOP 6: frames 9-11 freeze, keyframe 12 resyncs

    def _session(self, decoder: VideoDecoder):
        testbed = Testbed(TestbedConfig(seed=11))
        client = testbed.add_vm("US-East")
        simulator = testbed.network.simulator
        codec = VideoCodec(SPEC, VideoCodecConfig(gop_size=6),
                           target_bps=300_000)
        stream = codec.encode_batch(np.stack(LowMotionFeed(SPEC).frames(24)))
        # Twice the stream rate, so most content is grabbed twice.
        recorder = DesktopRecorder(client, SPEC, pad_fraction=0.15,
                                   record_fps=2 * SPEC.fps)
        recorder.start(decoder, duration_s=25 / SPEC.fps)
        for encoded in stream:
            # Deliveries sit between recorder ticks, after one
            # tick of black pre-roll.
            when = (encoded.index + 1.25) / SPEC.fps
            if encoded.index == self.LOST:
                simulator.schedule_at(when, decoder.mark_lost, encoded.index)
            else:
                simulator.schedule_at(when, decoder.decode, encoded)
        return recorder, simulator

    def _record(self, defer: bool) -> DesktopRecorder:
        decoder = VideoDecoder(SPEC, defer=defer)
        assert decoder.defer == defer
        recorder, simulator = self._session(decoder)
        simulator.run()
        assert decoder.frames_frozen == 4
        return recorder

    def _eager_full_finalize(self) -> np.ndarray:
        """Every tick's screen grabbed live from an eager decoder, then
        one screen-scaling round trip over the whole recording."""
        decoder = VideoDecoder(SPEC)
        recorder, simulator = self._session(decoder)
        grabbed = []

        def grab():
            frame = decoder.last_frame
            grabbed.append(np.zeros(SPEC.shape, dtype=np.uint8)
                           if frame is None else frame.copy())

        # Deliveries never coincide with a tick, so grabbing at the
        # tick times sees exactly what each tick saw.
        for when in self._record(defer=False).timestamps:
            simulator.schedule_at(when, grab)
        simulator.run()
        rendered = np.stack([recorder._overlay_widgets(f) for f in grabbed])
        small = (int(SPEC.height * DEFAULT_RESAMPLE),
                 int(SPEC.width * DEFAULT_RESAMPLE))
        return resize_frames(resize_frames(rendered, small), SPEC.shape)

    def test_deferred_recording_bit_identical(self):
        deferred = self._record(defer=True)
        eager = self._record(defer=False)
        assert deferred.timestamps == eager.timestamps
        assert deferred.stale_flags == eager.stale_flags
        assert True in deferred.stale_flags and False in deferred.stale_flags
        assert len(deferred.frames) == len(eager.frames) == 50
        for got, want in zip(deferred.frames, eager.frames):
            assert np.array_equal(got, want)

    #: Read sequences on a fresh recording, each ending in a full read.
    ACCESS_ORDERS = {
        "tail_slice_first": [slice(40, None), slice(None)],
        "overlapping_slices": [slice(10, 30), slice(20, 45), slice(None)],
        "single_indices": [7, 0, 49, 8, slice(None)],
        "negative_indices": [-1, -50, -26, slice(-5, None), slice(None)],
        "frames_head": ["head", slice(None)],
        "mixed": [slice(3, 4), -3, "head", slice(None, None, 7), slice(None)],
    }

    @pytest.mark.parametrize("defer", [True, False])
    @pytest.mark.parametrize("order", sorted(ACCESS_ORDERS))
    def test_every_access_order_matches_eager_full_finalize(self, defer, order):
        expected = self._eager_full_finalize()
        recorder = self._record(defer)
        frames = recorder.frames
        assert len(frames) == len(expected) == 50
        for read in self.ACCESS_ORDERS[order]:
            if read == "head":
                got, want = recorder.frames_head(12), expected[:12]
            elif isinstance(read, slice):
                got, want = frames[read], expected[read]
            else:
                got, want = [frames[read]], expected[read][None]
            assert isinstance(got, list) and len(got) == len(want)
            for frame, reference in zip(got, want):
                assert frame.dtype == np.uint8
                assert np.array_equal(frame, reference)
        assert np.array_equal(np.asarray(frames), expected)
        with pytest.raises(IndexError):
            frames[50]

    @pytest.mark.parametrize("defer", [True, False])
    def test_shared_grabs_are_read_only(self, defer):
        recorder = self._record(defer)
        frames = recorder.frames
        shared = [i for i in range(1, len(frames)) if frames[i] is frames[i - 1]]
        # Ticks at twice the stream rate grab most frames twice.
        assert len(shared) >= 10
        tick = shared[0]
        before = frames[tick - 1].copy()
        assert all(not frame.flags.writeable for frame in frames)
        with pytest.raises(ValueError):
            frames[tick][0, 0] = 255 - frames[tick][0, 0]
        assert np.array_equal(frames[tick - 1], before)


def _reference_deadzone_mask(residual):
    """Block peaks through a transposed, flattened copy of each block."""
    by, bx = residual.shape[0] // BLOCK, residual.shape[1] // BLOCK
    return np.abs(residual).reshape(by, BLOCK, bx, BLOCK).transpose(
        0, 2, 1, 3
    ).reshape(by, bx, -1).max(axis=-1) < SKIP_DEADZONE_LUMA


class _DenseReferenceCodec(VideoCodec):
    """Encoder that scatters every frame's levels into a dense plane.

    Sparse extraction is one ``nonzero`` over the whole level plane,
    occupancy is counted on it, and the closed-loop reconstruction
    re-derives the occupied blocks from its int16 copy.
    """

    def encode(self, frame):
        keyframe = self._next_is_keyframe()
        self._force_keyframe = False
        pad = ((0, (-frame.shape[0]) % BLOCK), (0, (-frame.shape[1]) % BLOCK))
        plane = np.pad(frame.astype(np.float64), pad, mode="edge")
        return self._encode_plane(plane, frame.shape, keyframe)

    def _encode_plane(self, plane, crop, keyframe):
        q_step = self.rate_controller.q_step
        divisor = q_step * QUANT_WEIGHTS
        if keyframe:
            coeffs = _block_dct(plane - 128.0)
            levels = np.round(coeffs / divisor).astype(np.int32)
        else:
            residual = plane - self._reference
            keep = ~_reference_deadzone_mask(residual)
            levels = np.zeros(keep.shape + (BLOCK, BLOCK), dtype=np.int32)
            if keep.any():
                coeffs = sp_fft.dctn(
                    _block_grid(residual)[keep], axes=(-2, -1), norm="ortho"
                )
                levels[keep] = np.round(coeffs / divisor).astype(np.int32)
        flat = levels.reshape(-1)
        nonzero = np.nonzero(flat)[0]
        values = flat[nonzero].astype(np.int16)
        num_blocks = levels.shape[0] * levels.shape[1]
        occupied = int(
            levels.reshape(num_blocks, BLOCK * BLOCK).any(axis=-1).sum()
        )
        size_bytes = _estimate_bits(values, num_blocks, occupied)
        encoded = EncodedFrame(
            index=self._frame_index, keyframe=keyframe, q_step=q_step,
            shape=plane.shape, crop=crop, indices=nonzero.astype(np.int32),
            values=values, size_bytes=size_bytes,
        )
        if not (values.size == 0 and not keyframe):
            residual_rec = _residual_plane_sparse(
                levels.astype(np.int16), np.float64(q_step), encoded.shape
            )
            self._reference = _apply_prediction(
                residual_rec, keyframe, self._reference
            )
        self._frame_index += 1
        self.rate_controller.update(size_bytes * 8.0, keyframe)
        return encoded


_FEEDS = {"low": LowMotionFeed, "high": HighMotionFeed, "static": StaticFeed}


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(min_value=16, max_value=90),
    height=st.integers(min_value=16, max_value=70),
    feed=st.sampled_from(sorted(_FEEDS)),
    gop=st.integers(min_value=1, max_value=12),
    rate=st.floats(min_value=20_000.0, max_value=2_000_000.0),
    count=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_video_encode_matches_dense_reference(
    width, height, feed, gop, rate, count, seed
):
    """Block-sparse extraction, padding and deadzone equal the dense
    formulation frame by frame, closed-loop reference included."""
    spec = FrameSpec(width, height, 10)
    config = VideoCodecConfig(gop_size=gop)
    codec = VideoCodec(spec, config, target_bps=rate)
    reference = _DenseReferenceCodec(spec, config, target_bps=rate)
    for frame in _FEEDS[feed](spec, seed=seed).frames(count):
        got, want = codec.encode(frame), reference.encode(frame)
        assert (got.index, got.keyframe, got.q_step, got.shape, got.crop,
                got.size_bytes) == (want.index, want.keyframe, want.q_step,
                                    want.shape, want.crop, want.size_bytes)
        assert got.indices.dtype == want.indices.dtype
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(codec._reference, reference._reference)


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=40),
    dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_padded_plane_matches_edge_pad(height, width, dtype, seed):
    frame = np.random.default_rng(seed).integers(
        0, 256, size=(height, width)
    ).astype(dtype)
    pad = ((0, (-height) % BLOCK), (0, (-width) % BLOCK))
    want = np.pad(frame.astype(np.float64), pad, mode="edge")
    got = _padded_plane(frame)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 1), (7, 9), (8, 8), (156, 208),
                                   (144, 192), (75, 100)])
def test_padded_plane_named_shapes(shape):
    frame = np.random.default_rng(0).integers(0, 256, size=shape,
                                              dtype=np.uint8)
    pad = ((0, (-shape[0]) % BLOCK), (0, (-shape[1]) % BLOCK))
    assert np.array_equal(
        _padded_plane(frame),
        np.pad(frame.astype(np.float64), pad, mode="edge"),
    )


@settings(max_examples=60, deadline=None)
@given(
    by=st.integers(min_value=1, max_value=12),
    bx=st.integers(min_value=1, max_value=12),
    spread=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_skip_deadzone_mask_matches_reference(by, bx, spread, seed):
    """Values straddle the deadzone edge, exact ties included."""
    rng = np.random.default_rng(seed)
    shape = (by * BLOCK, bx * BLOCK)
    residual = SKIP_DEADZONE_LUMA + rng.normal(0.0, spread, size=shape)
    residual *= rng.choice([-1.0, 1.0], size=shape)
    residual[rng.random(shape) < 0.05] = SKIP_DEADZONE_LUMA
    residual[rng.random(shape) < 0.5] *= 0.5
    assert np.array_equal(
        _skip_deadzone_mask(residual), _reference_deadzone_mask(residual)
    )


class TestBlockKernelProperties:
    def test_single_block_plane_roundtrip(self):
        rng = np.random.default_rng(3)
        plane = rng.normal(0, 10, size=(BLOCK, BLOCK))
        coeffs = _block_dct(plane)
        assert coeffs.shape == (1, 1, BLOCK, BLOCK)
        assert np.allclose(_block_idct(coeffs, plane.shape), plane)

    def test_skip_deadzone_mask_matches_reference_formulation(self):
        rng = np.random.default_rng(4)
        residual = rng.normal(0, 1.0, size=(24, 40))
        by, bx = residual.shape[0] // BLOCK, residual.shape[1] // BLOCK
        reference = np.abs(residual).reshape(by, BLOCK, bx, BLOCK).transpose(
            0, 2, 1, 3
        ).reshape(by, bx, -1).max(axis=-1) < 1.25
        assert np.array_equal(_skip_deadzone_mask(residual), reference)

    def test_estimate_bits_empty_is_skip_flags_only(self):
        assert _estimate_bits(np.zeros(0, np.int16), 192, 0) == int(
            np.ceil((192 + 256) / 8.0)
        )

    def test_estimate_bits_monotone_in_occupancy(self):
        values = np.array([3, -4, 10], dtype=np.int16)
        assert _estimate_bits(values, 192, 3) >= _estimate_bits(values, 192, 1)

    def test_budget_exhaustion_every_block_skipped(self):
        """A settled static scene codes zero coefficients everywhere."""
        codec = VideoCodec(SPEC, VideoCodecConfig(gop_size=600),
                           target_bps=300_000)
        feed = StaticFeed(SPEC)
        frames = codec.encode_batch(np.stack(feed.frames(8)))
        settled = frames[-1]
        assert not settled.keyframe
        assert settled.values.size == 0
        num_blocks = (settled.shape[0] // BLOCK) * (settled.shape[1] // BLOCK)
        assert settled.size_bytes == int(np.ceil((num_blocks + 256) / 8.0))
