"""Bit-identity of the codec batching engine.

PR 5 vectorises both codecs -- one DCT over a tick's audio frame
matrix, stacked block transforms and sparse block gathering for video
-- but, like the packet-path fast lane, batching must be *exactly* the
same codec: identical quantiser walks, identical sparse coefficients,
identical size estimates, identical reconstructions and rate-controller
state.  These tests diff the batched entry points against their
per-frame twins (``batch=False``) coefficient by coefficient, then run
a full session both ways and diff every artifact.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import repro.media.batching as batching
import repro.net.packet as packet_mod
from repro.clients.recorder import DEFAULT_RESAMPLE, DesktopRecorder
from repro.core.session import SessionConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.errors import CodecError
from repro.media.audio import SpeechLikeSource, ToneSource
from repro.media.audio_codec import (
    AudioCodec,
    AudioCodecConfig,
    AudioDecoder,
)
from repro.media.feeds import HighMotionFeed, LowMotionFeed, StaticFeed
from repro.media.frames import FrameSpec
from repro.media.padding import resize_frames
from repro.media.video_codec import (
    BLOCK,
    VideoCodec,
    VideoCodecConfig,
    VideoDecoder,
    _block_dct,
    _block_idct,
    _estimate_bits,
    _pad_to_blocks,
    _skip_deadzone_mask,
)


@pytest.fixture(autouse=True)
def _restore_batch_default():
    original = batching.BATCH_DEFAULT
    yield
    batching.BATCH_DEFAULT = original


def assert_audio_frames_equal(batched, per_frame):
    assert len(batched) == len(per_frame)
    for a, b in zip(batched, per_frame):
        assert a.index == b.index
        assert a.q_step == b.q_step
        assert a.frame_samples == b.frame_samples
        assert a.indices.dtype == b.indices.dtype
        assert a.values.dtype == b.values.dtype
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)
        assert a.size_bytes == b.size_bytes


def assert_video_frames_equal(batched, per_frame):
    assert len(batched) == len(per_frame)
    for a, b in zip(batched, per_frame):
        assert a.index == b.index
        assert a.keyframe == b.keyframe
        assert a.q_step == b.q_step
        assert a.shape == b.shape
        assert tuple(a.crop) == tuple(b.crop)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)
        assert a.size_bytes == b.size_bytes


# --------------------------------------------------------------------- #
# Audio codec.
# --------------------------------------------------------------------- #


class TestAudioEncodeEquivalence:
    @pytest.mark.parametrize("bitrate", [8_000, 45_000, 90_000])
    def test_speech_bit_identical(self, bitrate):
        config = AudioCodecConfig(bitrate_bps=bitrate)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 1.5)
        batched = AudioCodec(config, batch=True).encode(speech)
        per_frame = AudioCodec(config, batch=False).encode(speech)
        assert batched, "speech clip produced no frames"
        assert_audio_frames_equal(batched, per_frame)

    def test_per_frame_path_is_the_encode_frame_loop(self):
        config = AudioCodecConfig(bitrate_bps=45_000)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 0.5)
        codec = AudioCodec(config, batch=False)
        loop = AudioCodec(config, batch=True)
        frame_samples = config.frame_samples
        manual = [
            loop.encode_frame(speech[i : i + frame_samples])
            for i in range(0, len(speech), frame_samples)
        ]
        assert_audio_frames_equal(manual, codec.encode(speech))

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
            batched = AudioCodec(config, batch=True).encode(samples)
            per_frame = AudioCodec(config, batch=False).encode(samples)
            assert_audio_frames_equal(batched, per_frame)

    def test_empty_buffer(self):
        assert AudioCodec(batch=True).encode(np.zeros(0)) == []

    def test_misaligned_buffer_rejected(self):
        codec = AudioCodec(batch=True)
        with pytest.raises(CodecError):
            codec.encode(np.zeros(codec.config.frame_samples + 1))

    def test_batch_default_respected(self):
        batching.BATCH_DEFAULT = False
        assert not AudioCodec().batch
        batching.BATCH_DEFAULT = True
        assert AudioCodec().batch
        assert not AudioCodec(batch=False).batch

    def test_index_continuity_across_batches(self):
        """Tick-sized batches continue the frame index like the loop."""
        config = AudioCodecConfig(bitrate_bps=45_000)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 1.0)
        tick = 5 * config.frame_samples
        batched = AudioCodec(config, batch=True)
        per_frame = AudioCodec(config, batch=False)
        out_b, out_s = [], []
        for start in range(0, len(speech), tick):
            out_b += batched.encode(speech[start : start + tick])
            out_s += per_frame.encode(speech[start : start + tick])
        assert [f.index for f in out_b] == list(range(len(out_b)))
        assert_audio_frames_equal(out_b, out_s)


class TestAudioDecodeEquivalence:
    def _frames(self):
        config = AudioCodecConfig(bitrate_bps=45_000)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 1.0)
        return config, AudioCodec(config).encode(speech)

    def test_lazy_batched_waveform_bit_identical(self):
        config, frames = self._frames()
        lazy = AudioDecoder(AudioCodec(config), batch=True)
        eager = AudioDecoder(AudioCodec(config), batch=False)
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
        lazy = AudioDecoder(AudioCodec(config), batch=True)
        for frame in frames:
            lazy.push(frame)
        first = lazy.waveform(len(frames))
        again = lazy.waveform(len(frames))
        assert np.array_equal(first, again)

    def test_push_after_drain_decodes_late_frame(self):
        config, frames = self._frames()
        lazy = AudioDecoder(AudioCodec(config), batch=True)
        eager = AudioDecoder(AudioCodec(config), batch=False)
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
        codec = AudioCodec(batch=True)
        [frame] = codec.encode(np.zeros(codec.config.frame_samples))
        assert frame.indices.size == 0
        assert frame.values.size == 0
        assert frame.size_bytes == 8  # ceil(64-bit header / 8)

    def test_fitted_step_meets_budget(self):
        """The returned step's realised probe bits fit the budget."""
        config = AudioCodecConfig(bitrate_bps=45_000)
        codec = AudioCodec(config)
        speech = SpeechLikeSource(seed=5).read_duration(0.0, 0.5)
        n = config.frame_samples
        from scipy import fft as sp_fft

        for start in range(0, len(speech), n):
            coeffs = sp_fft.dct(speech[start : start + n], norm="ortho")
            step = codec._fit_quantiser(coeffs, config.frame_budget_bits)
            levels = np.round(np.abs(coeffs) / step)
            bits = float(codec._probe_bits(levels))
            assert bits <= config.frame_budget_bits or step == 10.0

    def test_batch_fit_matches_scalar_fit(self):
        config = AudioCodecConfig(bitrate_bps=45_000)
        codec = AudioCodec(config)
        rng = np.random.default_rng(2)
        from scipy import fft as sp_fft

        stack = sp_fft.dct(rng.normal(0, 0.5, (17, 320)), norm="ortho")
        batched = codec._fit_quantiser_batch(stack, config.frame_budget_bits)
        scalar = [
            codec._fit_quantiser(stack[i], config.frame_budget_bits)
            for i in range(stack.shape[0])
        ]
        assert np.array_equal(batched, np.array(scalar))

    def test_higher_budget_finer_step(self):
        codec = AudioCodec()
        rng = np.random.default_rng(3)
        from scipy import fft as sp_fft

        coeffs = sp_fft.dct(rng.normal(0, 0.5, 320), norm="ortho")
        fine = codec._fit_quantiser(coeffs, 2000.0)
        coarse = codec._fit_quantiser(coeffs, 500.0)
        assert fine <= coarse


# --------------------------------------------------------------------- #
# Video codec.
# --------------------------------------------------------------------- #


SPEC = FrameSpec(128, 96, 12)


def _encode_both(spec, feed_cls, count, gop=5, rate=300_000, splits=None,
                 force_at=None, retarget_at=None, dtype=None):
    """Encode the same frames batched and per-frame; return both lists."""
    config = VideoCodecConfig(gop_size=gop)
    batched = VideoCodec(spec, config, target_bps=rate, batch=True)
    per_frame = VideoCodec(spec, config, target_bps=rate, batch=False)
    feed = feed_cls(spec, seed=3)
    frames = np.stack(feed.frames(count))
    if dtype is not None:
        frames = frames.astype(dtype)
    splits = splits or [count]
    out_b, out_s = [], []
    start = 0
    for size in splits:
        if force_at is not None and start == force_at:
            batched.request_keyframe()
            per_frame.request_keyframe()
        if retarget_at is not None and start == retarget_at:
            batched.rate_controller.set_target(rate / 3.0)
            per_frame.rate_controller.set_target(rate / 3.0)
        chunk = frames[start : start + size]
        out_b += batched.encode_batch(chunk)
        out_s += [per_frame.encode(frame) for frame in chunk]
        start += size
    assert_video_frames_equal(out_b, out_s)
    assert batched.rate_controller.q_step == per_frame.rate_controller.q_step
    assert np.array_equal(batched._reference, per_frame._reference)
    return out_b, out_s


class TestVideoEncodeEquivalence:
    def test_gop_cadence_bit_identical(self):
        _encode_both(SPEC, LowMotionFeed, 17, gop=5, splits=[8, 9])

    def test_high_motion_with_forced_keyframe(self):
        _encode_both(SPEC, HighMotionFeed, 14, gop=30, splits=[7, 7],
                     force_at=7)

    def test_rate_change_boundary(self):
        _encode_both(SPEC, HighMotionFeed, 16, gop=8, splits=[8, 8],
                     retarget_at=8)

    def test_static_feed_skip_deadzone(self):
        encoded, _ = _encode_both(SPEC, StaticFeed, 12, gop=600)
        # The deadzone must actually engage: settled frames code nothing.
        assert any(f.values.size == 0 and not f.keyframe for f in encoded)

    def test_odd_resolution_through_padding(self):
        _encode_both(FrameSpec(100, 75, 10), LowMotionFeed, 9,
                     splits=[3, 3, 3])

    def test_minimal_plane(self):
        _encode_both(FrameSpec(16, 16, 10), LowMotionFeed, 6)

    def test_float_input_stack(self):
        _encode_both(SPEC, LowMotionFeed, 6, dtype=np.float64)
        _encode_both(SPEC, LowMotionFeed, 6, dtype=np.float32)

    def test_single_frame_and_empty_batch(self):
        codec = VideoCodec(SPEC, batch=True)
        assert codec.encode_batch(np.zeros((0,) + SPEC.shape, np.uint8)) == []
        _encode_both(SPEC, LowMotionFeed, 1)

    def test_wrong_geometry_rejected(self):
        codec = VideoCodec(SPEC, batch=True)
        with pytest.raises(CodecError):
            codec.encode_batch(np.zeros((3, 10, 10), dtype=np.uint8))


class TestVideoDecodeEquivalence:
    def _encoded(self, count=24, gop=6):
        codec = VideoCodec(SPEC, VideoCodecConfig(gop_size=gop),
                           target_bps=300_000)
        return codec.encode_batch(np.stack(LowMotionFeed(SPEC).frames(count)))

    def _assert_same_decode(self, frames):
        batched = VideoDecoder(SPEC, batch=True)
        per_frame = VideoDecoder(SPEC, batch=False)
        out_b = batched.decode_batch(frames)
        out_s = [per_frame.decode(frame) for frame in frames]
        assert len(out_b) == len(out_s)
        for a, b in zip(out_b, out_s):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)
        assert batched.frames_decoded == per_frame.frames_decoded
        assert batched.frames_frozen == per_frame.frames_frozen
        if per_frame._reference is None:
            assert batched._reference is None
        else:
            assert np.array_equal(batched._reference, per_frame._reference)

    def test_clean_burst(self):
        self._assert_same_decode(self._encoded())

    def test_losses_freeze_and_resync(self):
        frames = self._encoded()
        self._assert_same_decode([f for f in frames if f.index not in {3, 13}])

    def test_burst_starting_on_inter_frame(self):
        frames = self._encoded()
        self._assert_same_decode(frames[2:])

    def test_burst_ending_frozen_keeps_awaiting_state(self):
        """A burst whose tail is lost leaves the decoder awaiting a
        keyframe, so later per-frame decodes freeze exactly like the
        pure per-frame history."""
        frames = self._encoded(count=20, gop=8)
        kept = [f for f in frames[:12] if f.index != 10]  # ends frozen
        batched = VideoDecoder(SPEC, batch=True)
        per_frame = VideoDecoder(SPEC, batch=False)
        batched.decode_batch(kept)
        [per_frame.decode(f) for f in kept]
        for frame in frames[12:]:
            a = batched.decode(frame)
            b = per_frame.decode(frame)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)
        assert batched.frames_decoded == per_frame.frames_decoded
        assert batched.frames_frozen == per_frame.frames_frozen
        assert np.array_equal(batched._reference, per_frame._reference)

    def test_mark_lost_between_bursts(self):
        frames = self._encoded()
        batched = VideoDecoder(SPEC, batch=True)
        per_frame = VideoDecoder(SPEC, batch=False)
        batched.decode_batch(frames[:2])
        [per_frame.decode(f) for f in frames[:2]]
        batched.mark_lost(2)
        per_frame.mark_lost(2)
        out_b = batched.decode_batch(frames[3:])
        out_s = [per_frame.decode(f) for f in frames[3:]]
        for a, b in zip(out_b, out_s):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)
        assert batched.frames_frozen == per_frame.frames_frozen

    def test_stats_only_decoder_matches_pixel_stats(self):
        frames = self._encoded()
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

    def _encoded(self, count=24, gop=6):
        codec = VideoCodec(SPEC, VideoCodecConfig(gop_size=gop),
                           target_bps=300_000)
        return codec.encode_batch(np.stack(LowMotionFeed(SPEC).frames(count)))

    def test_token_replay_bit_identical(self):
        frames = self._encoded()
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
        frames = self._encoded(count=20, gop=5)
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


class TestBlockKernelProperties:
    def test_stacked_pad_matches_per_frame(self):
        rng = np.random.default_rng(1)
        stack = rng.integers(0, 256, size=(5, 75, 100)).astype(np.float64)
        padded = _pad_to_blocks(stack)
        assert padded.shape == (5, 80, 104)
        for i in range(5):
            assert np.array_equal(padded[i], _pad_to_blocks(stack[i]))
        # Edge padding replicates the border rows/columns.
        assert np.array_equal(padded[0, 75:, :100],
                              np.tile(stack[0, 74], (5, 1)))

    def test_stacked_block_dct_matches_per_frame(self):
        rng = np.random.default_rng(2)
        stack = rng.normal(0, 30, size=(4, 32, 40))
        coeffs = _block_dct(stack)
        for i in range(4):
            assert np.array_equal(coeffs[i], _block_dct(stack[i]))
        back = _block_idct(coeffs, (32, 40))
        for i in range(4):
            assert np.array_equal(back[i], _block_idct(coeffs[i], (32, 40)))

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


# --------------------------------------------------------------------- #
# End-to-end: one session, batching on vs off.
# --------------------------------------------------------------------- #


CLIENTS = ("US-East", "US-East2", "US-Central")


def _run_session(codec_batch: bool):
    """One short A/V session; returns comparable artifact signatures."""
    packet_mod._packet_ids = itertools.count(1)
    testbed = Testbed(TestbedConfig(seed=11))
    for name in CLIENTS:
        testbed.add_vm(name)
    config = SessionConfig(
        duration_s=4.0,
        feed="low",
        pad_fraction=0.15,
        content_spec=FrameSpec(128, 96, 12),
        audio=True,
        record_video=True,
        record_audio=True,
        probes=False,
        session_index=0,
        feed_seed=11,
        codec_batch=codec_batch,
    )
    artifacts = testbed.run_session("zoom", list(CLIENTS), "US-East", config)
    captures = {
        name: [tuple(row) for row in capture._rows]
        for name, capture in artifacts.captures.items()
    }
    qoe_inputs = {
        name: b"".join(frame.tobytes() for frame in recorder.frames_head(16))
        for name, recorder in artifacts.recorders.items()
    }
    audio_flow = artifacts.wiring.audio_flow("US-East")
    waveforms = {
        name: artifacts.recorded_audio(name, audio_flow).tobytes()
        for name in CLIENTS
        if name != "US-East"
    }
    network = testbed.network
    return {
        "captures": captures,
        "qoe_inputs": qoe_inputs,
        "waveforms": waveforms,
        "rng_state": str(network.rng.bit_generator.state),
        "now": network.simulator.now,
        "rates": artifacts.rate_summary(),
    }


class TestSessionRegression:
    def test_batching_on_off_bit_identical(self):
        on = _run_session(True)
        off = _run_session(False)
        assert on["captures"] == off["captures"]
        assert on["qoe_inputs"] == off["qoe_inputs"]
        assert on["waveforms"] == off["waveforms"]
        assert on["rng_state"] == off["rng_state"]
        assert on["now"] == off["now"]
        assert on["rates"] == off["rates"]
