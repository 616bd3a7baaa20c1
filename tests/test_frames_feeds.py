"""Frame sources and the paper's three synthetic feeds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, MediaError
from repro.media.feeds import FlashFeed, HighMotionFeed, LowMotionFeed, StaticFeed
from repro.media.frames import FrameSpec, smooth_noise_texture, to_uint8


class TestFrameSpec:
    def test_shape(self):
        assert FrameSpec(640, 480, 30).shape == (480, 640)

    def test_pixels(self):
        assert FrameSpec(640, 480, 30).pixels == 307_200

    def test_frame_duration(self):
        assert FrameSpec(64, 48, 10).frame_duration() == pytest.approx(0.1)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameSpec(8, 8, 30)

    def test_zero_fps_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameSpec(64, 48, 0)

    def test_scaled(self):
        spec = FrameSpec(640, 480, 30).scaled(0.25)
        assert spec.width == 160 and spec.height == 120
        assert spec.fps == 30

    def test_scaled_floors_at_16(self):
        spec = FrameSpec(64, 48, 30).scaled(0.01)
        assert spec.width >= 16 and spec.height >= 16


class TestHelpers:
    def test_texture_range(self, rng):
        texture = smooth_noise_texture(rng, (48, 64), low=40, high=210)
        assert texture.min() >= 40 - 1e-9
        assert texture.max() <= 210 + 1e-9

    def test_to_uint8_clips(self):
        frame = np.array([[-5.0, 300.0]])
        out = to_uint8(frame)
        assert out.dtype == np.uint8
        assert out[0, 0] == 0 and out[0, 1] == 255


class TestDeterminism:
    @pytest.mark.parametrize(
        "feed_cls", [StaticFeed, LowMotionFeed, HighMotionFeed, FlashFeed]
    )
    def test_same_seed_same_frames(self, feed_cls, small_spec):
        a = feed_cls(small_spec, seed=5)
        b = feed_cls(small_spec, seed=5)
        for index in (0, 7, 31):
            assert np.array_equal(a.frame(index), b.frame(index))

    @pytest.mark.parametrize("feed_cls", [LowMotionFeed, HighMotionFeed])
    def test_different_seed_different_frames(self, feed_cls, small_spec):
        a = feed_cls(small_spec, seed=1)
        b = feed_cls(small_spec, seed=2)
        assert not np.array_equal(a.frame(0), b.frame(0))

    def test_frames_are_uint8_with_spec_shape(self, small_spec):
        for feed_cls in (StaticFeed, LowMotionFeed, HighMotionFeed, FlashFeed):
            frame = feed_cls(small_spec).frame(3)
            assert frame.dtype == np.uint8
            assert frame.shape == small_spec.shape

    def test_frames_batch(self, small_spec):
        feed = LowMotionFeed(small_spec)
        frames = feed.frames(5, start=10)
        assert len(frames) == 5
        assert np.array_equal(frames[0], feed.frame(10))

    def test_negative_count_rejected(self, small_spec):
        with pytest.raises(MediaError):
            LowMotionFeed(small_spec).frames(-1)


class TestMotionCharacter:
    def test_static_feed_has_zero_motion(self, small_spec):
        assert StaticFeed(small_spec).mean_motion_energy(10) == 0.0

    def test_high_motion_exceeds_low_motion(self, small_spec):
        low = LowMotionFeed(small_spec).mean_motion_energy(20)
        high = HighMotionFeed(small_spec).mean_motion_energy(20)
        assert high > 5 * low

    def test_low_motion_is_nonzero(self, small_spec):
        assert LowMotionFeed(small_spec).mean_motion_energy(20) > 0

    def test_motion_energy_first_frame_zero(self, small_spec):
        assert HighMotionFeed(small_spec).motion_energy(0) == 0.0

    def test_scene_cut_spikes_motion(self, small_spec):
        feed = HighMotionFeed(small_spec, scene_duration_s=1.0)
        frames_per_scene = small_spec.fps
        cut = feed.motion_energy(frames_per_scene)
        within = feed.motion_energy(frames_per_scene // 2)
        assert cut > within


class TestFlashFeed:
    def test_flash_timing(self, small_spec):
        feed = FlashFeed(small_spec, period_s=2.0, flash_duration_s=0.2)
        assert feed.is_flash_frame(0)
        assert not feed.is_flash_frame(small_spec.fps)  # 1 s in: blank

    def test_blank_frames_are_black(self, small_spec):
        feed = FlashFeed(small_spec)
        blank = feed.frame(small_spec.fps)  # 1 s in
        assert blank.max() == 0

    def test_flash_frames_are_bright(self, small_spec):
        feed = FlashFeed(small_spec)
        assert feed.frame(0).mean() > 60

    def test_flash_times(self, small_spec):
        feed = FlashFeed(small_spec, period_s=2.0)
        assert feed.flash_times(7.0) == [0.0, 2.0, 4.0, 6.0]

    def test_flash_longer_than_period_rejected(self, small_spec):
        with pytest.raises(ConfigurationError):
            FlashFeed(small_spec, period_s=1.0, flash_duration_s=1.5)


class TestFeedValidation:
    def test_low_motion_gesture_timing(self, small_spec):
        with pytest.raises(ConfigurationError):
            LowMotionFeed(small_spec, gesture_period_s=0)

    def test_high_motion_scene_duration(self, small_spec):
        with pytest.raises(ConfigurationError):
            HighMotionFeed(small_spec, scene_duration_s=-1)

    def test_high_motion_object_count(self, small_spec):
        with pytest.raises(ConfigurationError):
            HighMotionFeed(small_spec, num_objects=-1)


def _full_grid_low_motion(feed, index):
    """``LowMotionFeed.frame`` as written over full-frame ``mgrid`` planes."""
    spec = feed.spec
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
    yy = yy.astype(np.float64)
    xx = xx.astype(np.float64)
    t = index / spec.fps
    frame = feed._background.copy()
    cy = spec.height * 0.42 + feed.bob_amplitude_px * np.sin(
        2.0 * np.pi * 0.5 * t
    )
    cx = spec.width * 0.5 + feed.bob_amplitude_px * 0.6 * np.sin(
        2.0 * np.pi * 0.3 * t + 1.0
    )
    ry, rx = spec.height * 0.22, spec.width * 0.14
    head = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    frame[head] = feed._head_texture[head]
    shoulders = (yy > spec.height * 0.66) & (
        np.abs(xx - spec.width * 0.5) < spec.width * 0.28
    )
    frame[shoulders] = 0.5 * frame[shoulders] + 45.0
    phase = t % feed.gesture_period_s
    if phase < feed.gesture_duration_s:
        progress = phase / feed.gesture_duration_s
        gx = spec.width * (0.30 + 0.4 * progress)
        gy = spec.height * 0.8
        radius = spec.width * 0.05
        blob = ((yy - gy) ** 2 + (xx - gx) ** 2) <= radius**2
        frame[blob] = 235.0
    return to_uint8(frame)


def _full_grid_high_motion(feed, index):
    """``HighMotionFeed.frame`` as written over full-frame ``mgrid`` planes."""
    spec = feed.spec
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
    yy = yy.astype(np.float64)
    xx = xx.astype(np.float64)
    frames_per_scene = max(1, int(feed.scene_duration_s * spec.fps))
    scene_index = index // frames_per_scene
    within = index % frames_per_scene
    texture = feed._scene(scene_index)[0]
    offset = int(within * feed.pan_speed_px) % spec.width
    frame = texture[:, offset : offset + spec.width].copy()
    rng = feed._rng_for(500 + scene_index)
    for _obj in range(feed.num_objects):
        x0 = rng.uniform(0, spec.width)
        y0 = rng.uniform(0, spec.height)
        vx = rng.uniform(-6, 6)
        vy = rng.uniform(-4, 4)
        brightness = rng.uniform(200, 255)
        ox = (x0 + vx * within) % spec.width
        oy = (y0 + vy * within) % spec.height
        radius = spec.width * 0.04
        blob = ((yy - oy) ** 2 + (xx - ox) ** 2) <= radius**2
        frame[blob] = brightness
    return to_uint8(frame)


#: At 30 fps: 0-14 and 120-134 fall in the 0.5 s gesture windows of a
#: 4 s period, 15-119 outside; 89/90 and 179/180 straddle scene cuts.
EXACT_INDICES = [0, 7, 14, 15, 60, 89, 90, 91, 120, 127, 179, 180]

EXACT_GEOMETRIES = [(16, 16), (17, 33), (33, 17), (64, 48), (97, 61)]


class TestFeedExactness:
    """Broadcast coordinate vectors paint exactly the full-grid pixels."""

    @pytest.mark.parametrize("width,height", EXACT_GEOMETRIES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_low_motion_matches_full_grid(self, width, height, seed):
        feed = LowMotionFeed(FrameSpec(width, height, 30), seed=seed)
        for index in EXACT_INDICES:
            np.testing.assert_array_equal(
                feed.frame(index), _full_grid_low_motion(feed, index)
            )

    @pytest.mark.parametrize("width,height", EXACT_GEOMETRIES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_high_motion_matches_full_grid(self, width, height, seed):
        feed = HighMotionFeed(FrameSpec(width, height, 30), seed=seed)
        for index in EXACT_INDICES:
            np.testing.assert_array_equal(
                feed.frame(index), _full_grid_high_motion(feed, index)
            )

    def test_high_motion_revisited_scene_matches(self, small_spec):
        # Scene textures are cached and evicted: going back to an
        # earlier scene after others must give the same frame again.
        feed = HighMotionFeed(small_spec, seed=2)
        first = feed.frame(3)
        for index in range(0, 40 * int(3 * small_spec.fps), 29):
            feed.frame(index)
        np.testing.assert_array_equal(feed.frame(3), first)
        np.testing.assert_array_equal(first, _full_grid_high_motion(feed, 3))

    def test_high_motion_revisited_scene_object_parameters(self, small_spec):
        # Object parameters are drawn once per scene and cached beside
        # its texture; after eviction a revisit draws them again, from
        # the same generator in the same order.
        feed = HighMotionFeed(small_spec, seed=6, num_objects=4)
        frames_per_scene = int(3 * small_spec.fps)
        first = list(feed._scene(1)[1])
        rng = feed._rng_for(500 + 1)
        assert first == [
            tuple(rng.uniform(*bounds) for bounds in (
                (0, small_spec.width), (0, small_spec.height),
                (-6, 6), (-4, 4), (200, 255),
            ))
            for _ in range(4)
        ]
        frame = feed.frame(frames_per_scene + 5)
        for scene in range(2, 14):
            feed.frame(scene * frames_per_scene)
        assert 1 not in feed._scene_cache
        np.testing.assert_array_equal(feed.frame(frames_per_scene + 5), frame)
        assert feed._scene(1)[1] == first
        np.testing.assert_array_equal(
            frame, _full_grid_high_motion(feed, frames_per_scene + 5)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(16, 97),
        height=st.integers(16, 97),
        fps=st.integers(1, 60),
        seed=st.integers(0, 2**16),
        indices=st.lists(st.integers(0, 2000), min_size=1, max_size=4),
        bob=st.floats(-150.0, 150.0),
        gesture=st.tuples(st.floats(0.05, 6.0), st.floats(0.05, 6.0)),
        num_objects=st.integers(0, 12),
    )
    def test_windowed_shapes_match_full_grid(
        self, width, height, fps, seed, indices, bob, gesture, num_objects
    ):
        # A bob of up to 150 px pushes the head past every frame edge,
        # and object discs wrap anywhere in the frame, so shapes are
        # clipped at each edge across examples.
        spec = FrameSpec(width, height, fps)
        low = LowMotionFeed(
            spec, seed=seed, bob_amplitude_px=bob,
            gesture_period_s=gesture[0], gesture_duration_s=gesture[1],
        )
        high = HighMotionFeed(spec, seed=seed, num_objects=num_objects)
        for index in indices:
            np.testing.assert_array_equal(
                low.frame(index), _full_grid_low_motion(low, index)
            )
            np.testing.assert_array_equal(
                high.frame(index), _full_grid_high_motion(high, index)
            )

    @pytest.mark.parametrize("width,height", [(16, 16), (97, 16), (16, 97)])
    def test_shapes_clipped_at_each_frame_edge(self, width, height):
        # A head bobbing by the frame size and a gesture lasting the
        # whole period: at 120 fps the head moves under its own size
        # per frame, so over 400 frames it straddles all four edges
        # (checked below), and the blob sweeps the lower band.
        spec = FrameSpec(width, height, 120)
        bob = float(max(width, height))
        feed = LowMotionFeed(
            spec, seed=1, bob_amplitude_px=bob,
            gesture_period_s=2.0, gesture_duration_s=2.0,
        )
        crossed = set()
        for index in range(400):
            np.testing.assert_array_equal(
                feed.frame(index), _full_grid_low_motion(feed, index)
            )
            t = index / spec.fps
            cy = height * 0.42 + bob * np.sin(2.0 * np.pi * 0.5 * t)
            cx = width * 0.5 + bob * 0.6 * np.sin(2.0 * np.pi * 0.3 * t + 1.0)
            ry, rx = height * 0.22, width * 0.14
            crossed |= {
                edge for edge, past in [
                    ("top", cy - ry < 0 < cy + ry),
                    ("bottom", cy - ry < height - 1 < cy + ry),
                    ("left", cx - rx < 0 < cx + rx),
                    ("right", cx - rx < width - 1 < cx + rx),
                ] if past
            }
        assert crossed == {"top", "bottom", "left", "right"}

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bob", [float("inf"), float("nan")])
    def test_non_finite_bob_paints_no_head(self, small_spec, bob):
        # The full-grid test is false everywhere for a NaN centre.
        feed = LowMotionFeed(small_spec, bob_amplitude_px=bob)
        for index in (0, 1):
            np.testing.assert_array_equal(
                feed.frame(index), _full_grid_low_motion(feed, index)
            )

    @pytest.mark.parametrize("size", [20, 40, 50, 100])
    def test_shape_boundaries_on_pixel_centres(self, size):
        # No bob: the head is centred at row 0.42 * size, column
        # size / 2, with row radius 0.22 * size; the blob starts at row
        # 0.8 * size, column 0.3 * size, with radius size / 20.  The
        # head's lowest point (sizes 50, 100) and the blob's edges
        # (sizes 20, 40, 100) land exactly on pixel centres, which the
        # full-grid test paints and each bounding box must include.
        feed = LowMotionFeed(FrameSpec(size, size, 30), bob_amplitude_px=0.0)
        for index in (0, 1, 5):
            np.testing.assert_array_equal(
                feed.frame(index), _full_grid_low_motion(feed, index)
            )

    @pytest.mark.parametrize("pad_fraction", [0.0, 0.1, 0.15, 0.3])
    @pytest.mark.parametrize("width,height", [(16, 16), (17, 33), (64, 48)])
    def test_add_padding_matches_np_pad(self, pad_fraction, width, height):
        from repro.media.padding import PAD_VALUE, add_padding, pad_size

        frame = HighMotionFeed(FrameSpec(width, height, 30), seed=1).frame(4)
        pad_h = pad_size(height, pad_fraction)
        pad_w = pad_size(width, pad_fraction)
        expected = np.pad(
            frame,
            ((pad_h, pad_h), (pad_w, pad_w)),
            mode="constant",
            constant_values=PAD_VALUE,
        )
        padded = add_padding(frame, pad_fraction)
        assert padded.dtype == expected.dtype
        np.testing.assert_array_equal(padded, expected)
