"""The paper's video feeds, generated synthetically.

Section 4.3 uses two 640x480 feeds: "(i) a low-motion feed capturing the
upper body of a single person talking with occasional hand gestures in
an indoor environment, and (ii) a high-motion tour guide feed with
dynamically moving objects and scene changes".  Section 4.2 uses a
third: "a blank-screen with periodic flashes of an image (with
two-second periodicity)" for lag probing.

These classes generate frames with the same *statistical* character:

* :class:`LowMotionFeed` — static background, gently bobbing head
  ellipse, occasional hand-gesture blobs.  Small inter-frame residual.
* :class:`HighMotionFeed` — panning textured scene with moving objects
  and a hard scene cut every few seconds.  Large inter-frame residual.
* :class:`FlashFeed` — black frames with a bright textured flash frame
  every ``period_s`` seconds.
* :class:`StaticFeed` — a frozen frame, the degenerate baseline.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from .frames import FrameSource, FrameSpec, smooth_noise_texture, to_uint8


def _span(center: float, half: float, size: int) -> slice:
    """Indices of a frame axis within ``half`` of ``center``, plus 1 px.

    A shape test ``(d / half) ** 2 <= 1`` can round to true when ``|d|``
    exceeds ``half`` by under an ulp, so the margin keeps every pixel
    the full-frame test would paint.  A non-finite centre paints none.
    """
    if not math.isfinite(center):
        return slice(0, 0)
    low = max(0, math.floor(center - half) - 1)
    return slice(low, min(size, math.ceil(center + half) + 2))


class StaticFeed(FrameSource):
    """A completely still frame; zero motion energy."""

    def __init__(self, spec: FrameSpec, seed: int = 0) -> None:
        super().__init__(spec, seed)
        self._frame = to_uint8(
            smooth_noise_texture(self._rng_for(0), spec.shape, smoothness=8.0)
        )

    def frame(self, index: int) -> np.ndarray:
        return self._frame.copy()


class LowMotionFeed(FrameSource):
    """Single-person view against a stationary background.

    The head is an ellipse whose centre bobs by a couple of pixels at
    ~0.5 Hz; every ``gesture_period_s`` a small bright blob (a "hand")
    sweeps through the lower half of the frame for a few hundred ms.
    """

    def __init__(
        self,
        spec: FrameSpec,
        seed: int = 0,
        bob_amplitude_px: float = 2.0,
        gesture_period_s: float = 4.0,
        gesture_duration_s: float = 0.5,
    ) -> None:
        super().__init__(spec, seed)
        if gesture_period_s <= 0 or gesture_duration_s <= 0:
            raise ConfigurationError("gesture timing must be positive")
        self.bob_amplitude_px = bob_amplitude_px
        self.gesture_period_s = gesture_period_s
        self.gesture_duration_s = gesture_duration_s
        self._background = smooth_noise_texture(
            self._rng_for(1), spec.shape, smoothness=10.0, low=60, high=140
        )
        self._head_texture = smooth_noise_texture(
            self._rng_for(2), spec.shape, smoothness=3.0, low=120, high=230
        )
        # ``(H, 1)`` and ``(1, W)`` coordinate vectors: each shape is
        # tested only inside its bounding box (``_span``), so no float64
        # coordinate planes are kept and no full-frame mask is built.
        self._ys = np.arange(spec.height, dtype=np.float64)[:, None]
        self._xs = np.arange(spec.width, dtype=np.float64)[None, :]
        # Shoulders: a static rectangle below the head, as a slice.
        rows = np.flatnonzero(self._ys[:, 0] > spec.height * 0.66)
        cols = np.flatnonzero(
            np.abs(self._xs[0] - spec.width * 0.5) < spec.width * 0.28
        )
        self._shoulders = (
            slice(rows[0], rows[-1] + 1),
            slice(cols[0], cols[-1] + 1),
        )

    def frame(self, index: int) -> np.ndarray:
        spec = self.spec
        t = index / spec.fps
        frame = self._background.copy()

        # Head: ellipse centred slightly above the middle, bobbing.
        cy = spec.height * 0.42 + self.bob_amplitude_px * np.sin(
            2.0 * np.pi * 0.5 * t
        )
        cx = spec.width * 0.5 + self.bob_amplitude_px * 0.6 * np.sin(
            2.0 * np.pi * 0.3 * t + 1.0
        )
        ry, rx = spec.height * 0.22, spec.width * 0.14
        box = (_span(cy, ry, spec.height), _span(cx, rx, spec.width))
        head = (
            ((self._ys[box[0]] - cy) / ry) ** 2
            + ((self._xs[:, box[1]] - cx) / rx) ** 2
        ) <= 1.0
        np.copyto(frame[box], self._head_texture[box], where=head)

        shoulders = frame[self._shoulders]
        shoulders *= 0.5
        shoulders += 45.0

        # Occasional hand gesture: a bright blob sweeping sideways.
        phase = t % self.gesture_period_s
        if phase < self.gesture_duration_s:
            progress = phase / self.gesture_duration_s
            gx = spec.width * (0.30 + 0.4 * progress)
            gy = spec.height * 0.8
            radius = spec.width * 0.05
            box = (_span(gy, radius, spec.height), _span(gx, radius, spec.width))
            blob = (
                (self._ys[box[0]] - gy) ** 2 + (self._xs[:, box[1]] - gx) ** 2
            ) <= radius**2
            np.copyto(frame[box], 235.0, where=blob)
        return to_uint8(frame)


class HighMotionFeed(FrameSource):
    """Tour-guide style feed: panning scene, moving objects, scene cuts.

    Each scene is a distinct large texture panned across the viewport at
    ``pan_speed_px`` per frame, with ``num_objects`` bright blobs moving
    along independent trajectories.  Every ``scene_duration_s`` the
    scene changes entirely (hard cut), defeating inter-frame prediction
    just as the paper's dynamic outdoor scenes do.
    """

    def __init__(
        self,
        spec: FrameSpec,
        seed: int = 0,
        pan_speed_px: float = 4.0,
        scene_duration_s: float = 3.0,
        num_objects: int = 3,
    ) -> None:
        super().__init__(spec, seed)
        if scene_duration_s <= 0:
            raise ConfigurationError("scene_duration_s must be positive")
        if num_objects < 0:
            raise ConfigurationError("num_objects must be >= 0")
        self.pan_speed_px = pan_speed_px
        self.scene_duration_s = scene_duration_s
        self.num_objects = num_objects
        #: Scene index -> (wide texture, object parameters); at most 9.
        self._scene_cache: dict[int, tuple[np.ndarray, list[tuple]]] = {}
        # Each object's disc is tested only inside its bounding box.
        self._ys = np.arange(spec.height, dtype=np.float64)[:, None]
        self._xs = np.arange(spec.width, dtype=np.float64)[None, :]

    def _scene(self, scene_index: int) -> tuple[np.ndarray, list[tuple]]:
        """One scene's wide texture (panned by column roll) and its
        objects' ``(x0, y0, vx, vy, brightness)``; cached per scene."""
        if scene_index not in self._scene_cache:
            if len(self._scene_cache) > 8:
                self._scene_cache.clear()
            rng = self._rng_for(100 + scene_index)
            texture = smooth_noise_texture(
                rng,
                (self.spec.height, self.spec.width * 2),
                smoothness=4.0,
                low=30,
                high=225,
            )
            # Each object: linear trajectory with its own velocity.
            rng = self._rng_for(500 + scene_index)
            objects = [
                (
                    rng.uniform(0, self.spec.width),
                    rng.uniform(0, self.spec.height),
                    rng.uniform(-6, 6),
                    rng.uniform(-4, 4),
                    rng.uniform(200, 255),
                )
                for _ in range(self.num_objects)
            ]
            self._scene_cache[scene_index] = (texture, objects)
        return self._scene_cache[scene_index]

    def frame(self, index: int) -> np.ndarray:
        spec = self.spec
        frames_per_scene = max(1, int(self.scene_duration_s * spec.fps))
        scene_index = index // frames_per_scene
        within = index % frames_per_scene

        texture, objects = self._scene(scene_index)
        offset = int(within * self.pan_speed_px) % spec.width
        frame = texture[:, offset : offset + spec.width].copy()

        radius = spec.width * 0.04
        for x0, y0, vx, vy, brightness in objects:
            ox = (x0 + vx * within) % spec.width
            oy = (y0 + vy * within) % spec.height
            box = (_span(oy, radius, spec.height), _span(ox, radius, spec.width))
            blob = (
                (self._ys[box[0]] - oy) ** 2 + (self._xs[:, box[1]] - ox) ** 2
            ) <= radius**2
            np.copyto(frame[box], brightness, where=blob)
        return to_uint8(frame)


class FlashFeed(FrameSource):
    """Blank screen with periodic flashes of an image (Section 4.2).

    Black frames compress to almost nothing; the flash frame (and the
    frame after it, which must erase the flash) produce bursts of big
    packets.  The lag detector keys on the first big packet after a
    quiescent period, exactly as in the paper's Figure 2.
    """

    def __init__(
        self,
        spec: FrameSpec,
        seed: int = 0,
        period_s: float = 2.0,
        flash_duration_s: float = 0.2,
    ) -> None:
        super().__init__(spec, seed)
        if period_s <= 0 or flash_duration_s <= 0:
            raise ConfigurationError("flash timing must be positive")
        if flash_duration_s >= period_s:
            raise ConfigurationError("flash must be shorter than the period")
        self.period_s = period_s
        self.flash_duration_s = flash_duration_s
        self._flash_image = to_uint8(
            smooth_noise_texture(
                self._rng_for(3), spec.shape, smoothness=2.5, low=80, high=255
            )
        )
        self._blank = np.zeros(spec.shape, dtype=np.uint8)

    def is_flash_frame(self, index: int) -> bool:
        """Whether frame ``index`` shows the flash image."""
        t = index / self.spec.fps
        return (t % self.period_s) < self.flash_duration_s

    def flash_times(self, duration_s: float) -> list[float]:
        """Times at which flashes begin within ``duration_s`` seconds."""
        times = []
        t = 0.0
        while t < duration_s:
            times.append(t)
            t += self.period_s
        return times

    def frame(self, index: int) -> np.ndarray:
        if self.is_flash_frame(index):
            return self._flash_image.copy()
        return self._blank.copy()
