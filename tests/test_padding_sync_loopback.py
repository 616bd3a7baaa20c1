"""Padding workflow (Fig. 13), A/V alignment, loopback devices."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, MediaError
from repro.media.audio import SpeechLikeSource, ToneSource
from repro.media.feeds import HighMotionFeed, LowMotionFeed
from repro.media.frames import FrameSpec
from repro.media.loopback import VirtualCamera, VirtualMicrophone
from repro.media import padding
from repro.media.padding import (
    PaddedSource,
    add_padding,
    crop_padding,
    pad_size,
    resize_frame,
    resize_frames,
)
from repro.media.sync import (
    _frame_similarity,
    align_recordings,
    find_audio_offset,
    measure_loudness,
    normalize_loudness,
    trim_to_offset,
)


class TestPadding:
    def test_pad_size(self):
        assert pad_size(100, 0.15) == 15

    def test_pad_fraction_bounds(self):
        with pytest.raises(MediaError):
            pad_size(100, 0.6)

    def test_add_padding_dimensions(self):
        frame = np.zeros((48, 64), dtype=np.uint8)
        padded = add_padding(frame, 0.25)
        assert padded.shape == (48 + 24, 64 + 32)

    def test_crop_roundtrip(self):
        frame = np.arange(48 * 64, dtype=np.uint8).reshape(48, 64)
        padded = add_padding(frame, 0.2)
        assert np.array_equal(crop_padding(padded, frame.shape), frame)

    def test_crop_too_large_rejected(self):
        with pytest.raises(MediaError):
            crop_padding(np.zeros((10, 10)), (20, 20))

    def test_padding_value_is_mid_grey(self):
        padded = add_padding(np.zeros((48, 64), dtype=np.uint8), 0.2)
        assert padded[0, 0] == 128

    def test_multichannel_rejected(self):
        with pytest.raises(MediaError):
            add_padding(np.zeros((10, 10, 3)))


class TestPaddedSource:
    def test_spec_expanded(self, small_spec):
        padded = PaddedSource(LowMotionFeed(small_spec), 0.15)
        assert padded.spec.width > small_spec.width
        assert padded.spec.height > small_spec.height

    def test_frame_crop_roundtrip(self, small_spec):
        content = LowMotionFeed(small_spec)
        padded = PaddedSource(content, 0.2)
        frame = padded.frame(4)
        assert np.array_equal(padded.crop(frame), content.frame(4))

    def test_fps_preserved(self, small_spec):
        padded = PaddedSource(LowMotionFeed(small_spec), 0.15)
        assert padded.spec.fps == small_spec.fps


class TestResize:
    def test_identity(self):
        frame = np.arange(100, dtype=np.uint8).reshape(10, 10)
        assert np.array_equal(resize_frame(frame, (10, 10)), frame)

    def test_downscale_shape(self):
        frame = np.zeros((48, 64), dtype=np.uint8)
        assert resize_frame(frame, (24, 32)).shape == (24, 32)

    def test_upscale_shape(self):
        frame = np.zeros((24, 32), dtype=np.uint8)
        assert resize_frame(frame, (48, 64)).shape == (48, 64)

    def test_constant_frame_preserved(self):
        frame = np.full((32, 32), 77, dtype=np.uint8)
        out = resize_frame(frame, (20, 28))
        assert np.all(out == 77)

    def test_dtype_preserved_for_uint8(self):
        frame = np.zeros((16, 16), dtype=np.uint8)
        assert resize_frame(frame, (24, 24)).dtype == np.uint8

    def test_invalid_target(self):
        with pytest.raises(MediaError):
            resize_frame(np.zeros((16, 16)), (0, 10))


class TestResizeFrames:
    def test_matches_per_frame_exactly(self, rng):
        stack = rng.integers(0, 256, (20, 48, 64), dtype=np.uint8)
        batched = resize_frames(stack, (30, 40))
        per_frame = np.stack([resize_frame(f, (30, 40)) for f in stack])
        assert np.array_equal(batched, per_frame)

    def test_matches_per_frame_float(self, rng):
        stack = rng.random((6, 24, 32))
        batched = resize_frames(stack, (48, 64))
        per_frame = np.stack([resize_frame(f, (48, 64)) for f in stack])
        assert np.array_equal(batched, per_frame)

    def test_block_boundaries_consistent(self, rng, monkeypatch):
        # Stacks longer than one processing block must stitch cleanly.
        from repro.media import padding

        stack = rng.integers(0, 256, (40, 48, 64), dtype=np.uint8)
        expected = np.stack([resize_frame(f, (30, 40)) for f in stack])
        monkeypatch.setattr(padding, "_RESIZE_BLOCK_BYTES", 48 * 64 * 8 * 3)
        assert np.array_equal(resize_frames(stack, (30, 40)), expected)

    def test_identity_copies(self):
        stack = np.zeros((3, 16, 16), dtype=np.uint8)
        out = resize_frames(stack, (16, 16))
        assert out is not stack
        assert np.array_equal(out, stack)

    def test_rejects_non_stack(self):
        with pytest.raises(MediaError):
            resize_frames(np.zeros((16, 16)), (8, 8))

    def test_plan_cache_reused(self):
        from repro.media.padding import _resize_plan

        _resize_plan.cache_clear()
        resize_frame(np.zeros((16, 12), dtype=np.uint8), (8, 6))
        resize_frame(np.ones((16, 12), dtype=np.uint8), (8, 6))
        info = _resize_plan.cache_info()
        assert info.hits >= 1 and info.misses == 1
        # The cached plan is the shared flat one: corner indices into
        # a row-major 16x12 frame and weights at the output shape, all
        # read-only so no caller can corrupt later resizes.
        corners, weights = _resize_plan((16, 12), (8, 6))
        assert _resize_plan.cache_info().hits == info.hits + 1
        for array in corners + weights:
            assert array.shape == (8, 6)
            assert not array.flags.writeable
        for index in corners:
            assert 0 <= index.min() and index.max() < 16 * 12
        wx0, wx1, wy0, wy1 = weights
        assert np.array_equal(wx0 + wx1, np.ones((8, 6)))
        assert np.array_equal(wy0 + wy1, np.ones((8, 6)))


def _reference_resize(stack, shape):
    """The bilinear resize as one full-stack gather + lerp (the
    formulation before the flat in-place kernel), kept here as the
    kernel's twin."""
    in_h, in_w = stack.shape[-2:]
    out_h, out_w = shape
    if (in_h, in_w) == (out_h, out_w):
        return stack.copy()
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = np.clip(ys, 0, in_h - 1)
    xs = np.clip(xs, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    row0 = np.take(stack, y0, axis=-2)
    row1 = np.take(stack, y1, axis=-2)
    c00 = np.take(row0, x0, axis=-1).astype(np.float64, copy=False)
    c01 = np.take(row0, x1, axis=-1).astype(np.float64, copy=False)
    c10 = np.take(row1, x0, axis=-1).astype(np.float64, copy=False)
    c11 = np.take(row1, x1, axis=-1).astype(np.float64, copy=False)
    top = c00 * (1 - wx) + c01 * wx
    bottom = c10 * (1 - wx) + c11 * wx
    resized = top * (1 - wy) + bottom * wy
    if stack.dtype == np.uint8:
        return np.clip(np.round(resized), 0, 255).astype(np.uint8)
    return resized


#: Frames per processing block in the kernel twin property.
_TWIN_STEP = 3


@settings(max_examples=80, deadline=None)
@given(
    dtype=st.sampled_from([np.uint8, np.float64]),
    # Below, at and above one block of _TWIN_STEP frames, and T=1.
    count=st.sampled_from([1, _TWIN_STEP - 1, _TWIN_STEP, _TWIN_STEP + 1,
                           2 * _TWIN_STEP + 1]),
    in_shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    # Up- and downscaling, same shape and 1-pixel targets.
    out_shape=st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        st.just((1, 1)),
        st.just(None),
    ),
    # Crops reach the kernel as strided views.
    cropped=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_resize_frames_matches_reference_formulation(
    dtype, count, in_shape, out_shape, cropped, seed
):
    rng = np.random.default_rng(seed)
    shape = (count, in_shape[0], in_shape[1] + 2)
    if dtype == np.uint8:
        stack = rng.integers(0, 256, shape, dtype=np.uint8)
    else:
        stack = rng.normal(128.0, 90.0, shape)
    stack = stack[..., 1:-1] if cropped else stack[..., 2:].copy()
    target = in_shape if out_shape is None else out_shape
    frame_bytes = max(in_shape[0] * in_shape[1], target[0] * target[1]) * 8
    with mock.patch.object(
        padding, "_RESIZE_BLOCK_BYTES", _TWIN_STEP * frame_bytes
    ):
        got = resize_frames(stack, target)
    want = _reference_resize(stack, target)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(resize_frame(stack[0], target), want[0])


class TestVideoAlignment:
    def test_finds_known_shift(self, small_spec):
        feed = HighMotionFeed(small_spec)
        reference = feed.frames(30)
        recorded = feed.frames(25, start=5)  # starts 5 frames late
        shift, ref_aligned, rec_aligned = align_recordings(
            reference, recorded, max_shift=10
        )
        assert shift == -5
        assert len(ref_aligned) == len(rec_aligned)
        assert np.array_equal(ref_aligned[0], rec_aligned[0])

    def test_zero_shift(self, small_spec):
        feed = HighMotionFeed(small_spec)
        frames = feed.frames(20)
        shift, _, _ = align_recordings(frames, frames, max_shift=5)
        assert shift == 0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            align_recordings([], [np.zeros((8, 8))])

    def test_accepts_frame_stacks(self, small_spec):
        feed = HighMotionFeed(small_spec)
        reference = np.stack(feed.frames(30))
        recorded = np.stack(feed.frames(25, start=5))
        shift, ref_aligned, rec_aligned = align_recordings(
            reference, recorded, max_shift=10
        )
        assert shift == -5
        assert np.array_equal(ref_aligned[0], rec_aligned[0])

    def test_matches_sequential_search(self, small_spec, rng):
        # The one-matrix scoring must pick the same shift the original
        # per-shift Python loop would.
        feed = HighMotionFeed(small_spec)
        reference = feed.frames(40)
        for true_shift in (-7, -3, 0, 4, 9):
            if true_shift >= 0:
                recorded = [
                    np.clip(
                        f.astype(int) + rng.integers(-2, 3), 0, 255
                    ).astype(np.uint8)
                    for f in feed.frames(25, start=true_shift)
                ]
                shift, _, _ = align_recordings(
                    reference, recorded, max_shift=12
                )
                assert shift == -true_shift
            else:
                # Reference starting late means the recording leads it:
                # a positive shift of the same magnitude.
                recorded = feed.frames(25)
                shift, _, _ = align_recordings(
                    feed.frames(40, start=-true_shift), recorded, max_shift=12
                )
                assert shift == -true_shift

    def test_ragged_frames_rejected(self):
        with pytest.raises(AnalysisError):
            align_recordings(
                [np.zeros((8, 8)), np.zeros((9, 9))], [np.zeros((8, 8))]
            )


class TestFrameSimilarity:
    def test_textured_identical(self, rng):
        frame = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert _frame_similarity(frame, frame) == pytest.approx(1.0)

    def test_flat_frames_different_brightness_not_identical(self):
        # Regression: mean subtraction used to map flat frames of any
        # brightness to zero vectors that compared as identical.
        dark = np.zeros((16, 16), dtype=np.uint8)
        bright = np.full((16, 16), 200, dtype=np.uint8)
        assert _frame_similarity(dark, bright) == 0.0

    def test_flat_frames_same_brightness_identical(self):
        flat = np.full((16, 16), 93, dtype=np.uint8)
        assert _frame_similarity(flat, flat.copy()) == 1.0

    def test_flat_vs_textured_not_identical(self, rng):
        flat = np.full((16, 16), 128, dtype=np.uint8)
        textured = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert _frame_similarity(flat, textured) == 0.0

    def test_alignment_not_fooled_by_flat_leader(self, small_spec):
        # A recording led by flat frames at the wrong brightness must
        # not align to a flat stretch of the reference.
        feed = LowMotionFeed(small_spec)
        reference = [np.full(small_spec.shape, 30, dtype=np.uint8)] * 3
        reference += feed.frames(20)
        recorded = [np.full(small_spec.shape, 200, dtype=np.uint8)] * 3
        recorded += feed.frames(20)
        shift, ref_aligned, rec_aligned = align_recordings(
            reference, recorded, max_shift=5
        )
        assert shift == 0
        assert np.array_equal(ref_aligned[5], rec_aligned[5])


class TestAudioAlignment:
    def test_finds_sample_offset(self):
        speech = SpeechLikeSource().read_duration(0, 1.0)
        recorded = speech[400:]
        offset = find_audio_offset(speech, recorded, max_offset=1000)
        assert offset == -400

    def test_positive_offset(self):
        speech = SpeechLikeSource().read_duration(0, 1.0)
        recorded = np.concatenate([np.zeros(300), speech])
        offset = find_audio_offset(speech, recorded, max_offset=1000)
        assert offset == 300

    def test_trim_to_offset(self):
        reference = np.arange(100, dtype=np.float64)
        recorded = np.concatenate([np.zeros(10), reference])
        ref_aligned, rec_aligned = trim_to_offset(reference, recorded, 10)
        assert np.array_equal(ref_aligned, rec_aligned[: len(ref_aligned)])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            find_audio_offset(np.array([]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["reference", "recorded"])
    def test_non_finite_rejected(self, bad, side):
        # argmax stops at the first NaN, so a NaN in the correlation
        # used to return the most negative lag instead of failing.
        speech = SpeechLikeSource().read_duration(0, 0.5)[:4000]
        spoiled = speech.copy()
        spoiled[1234] = bad
        args = (spoiled, speech) if side == "reference" else (speech, spoiled)
        with pytest.raises(AnalysisError, match="non-finite"):
            find_audio_offset(*args)


class TestLoudness:
    def test_normalized_loudness_hits_target(self):
        speech = SpeechLikeSource().read_duration(0, 2.0)
        out = normalize_loudness(speech, target_lufs=-23.0)
        assert measure_loudness(out) == pytest.approx(-23.0, abs=0.5)

    def test_quiet_signal_amplified(self):
        speech = SpeechLikeSource().read_duration(0, 2.0) * 0.01
        out = normalize_loudness(speech, target_lufs=-23.0)
        assert np.abs(out).max() > np.abs(speech).max()

    def test_silence_measures_floor(self):
        assert measure_loudness(np.zeros(16_000)) == -70.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            measure_loudness(np.array([]))


class TestLoopback:
    def test_camera_serves_frames_by_time(self, small_spec):
        camera = VirtualCamera(LowMotionFeed(small_spec))
        frame = camera.read_frame_at(1.0)
        assert frame.shape == small_spec.shape
        assert camera.frame_index_at(1.0) == small_spec.fps

    def test_camera_counts_served(self, small_spec):
        camera = VirtualCamera(LowMotionFeed(small_spec))
        camera.read_frame_at(0.0)
        camera.read_frame(3)
        assert camera.frames_served == 2

    def test_camera_negative_time_rejected(self, small_spec):
        with pytest.raises(MediaError):
            VirtualCamera(LowMotionFeed(small_spec)).read_frame_at(-1.0)

    def test_microphone_serves_samples(self):
        microphone = VirtualMicrophone(ToneSource())
        samples = microphone.read_at(0.5, 0.25)
        assert len(samples) == 4000
        assert microphone.samples_served == 4000

    def test_microphone_sample_rate(self):
        assert VirtualMicrophone(ToneSource()).sample_rate == 16_000
