"""Padding and cropping: the Figure 13 workflow.

"One issue that complicates accurate quality comparison is the fact
that the video screen rendered by a client is partially blocked by
client-specific UI widgets ... To avoid such partial occlusion inside
the video viewing area, we prepare video feeds with enough padding."

The workflow is: pad the injected feed -> stream -> the client renders
it with UI widgets overlapping only the padding -> record the desktop
-> crop the padding back out -> resize to the injected resolution ->
compare.  These helpers implement each step; the UI occlusion itself is
applied by :mod:`repro.clients.recorder`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import MediaError
from .frames import FrameSource, FrameSpec

#: Default padding added around feeds for QoE experiments, as a
#: fraction of each dimension on every side.
DEFAULT_PAD_FRACTION = 0.15

#: Luma of the padding border (mid-grey, like the paper's figure).
PAD_VALUE = 128


def pad_size(dimension: int, pad_fraction: float) -> int:
    """Pixels of padding added on *each* side of a dimension."""
    if not 0.0 <= pad_fraction < 0.5:
        raise MediaError(f"pad_fraction must be in [0, 0.5): {pad_fraction}")
    return int(round(dimension * pad_fraction))


def padded_spec(spec: FrameSpec, pad_fraction: float) -> FrameSpec:
    """Geometry of ``spec`` frames after :func:`add_padding`."""
    return FrameSpec(
        width=spec.width + 2 * pad_size(spec.width, pad_fraction),
        height=spec.height + 2 * pad_size(spec.height, pad_fraction),
        fps=spec.fps,
    )


def add_padding(
    frame: np.ndarray, pad_fraction: float = DEFAULT_PAD_FRACTION
) -> np.ndarray:
    """Surround a frame with a uniform border (Fig. 13 preparation)."""
    if frame.ndim != 2:
        raise MediaError("expected a single-channel (H, W) frame")
    height, width = frame.shape
    pad_h = pad_size(height, pad_fraction)
    pad_w = pad_size(width, pad_fraction)
    padded = np.full(
        (height + 2 * pad_h, width + 2 * pad_w), PAD_VALUE, dtype=frame.dtype
    )
    padded[pad_h : pad_h + height, pad_w : pad_w + width] = frame
    return padded


def crop_padding(
    frame: np.ndarray,
    content_shape: tuple[int, int],
) -> np.ndarray:
    """Cut the centred content region back out of a padded frame.

    Accepts a single ``(H, W)`` frame or a ``(T, H, W)`` stack of
    them (the crop is applied to the trailing two axes).

    Args:
        frame: The recorded (padded) frame or frame stack.
        content_shape: (height, width) of the original content.

    Raises:
        MediaError: If the content does not fit inside the frame.
    """
    if frame.ndim not in (2, 3):
        raise MediaError("expected an (H, W) frame or (T, H, W) stack")
    height, width = content_shape
    if height > frame.shape[-2] or width > frame.shape[-1]:
        raise MediaError(
            f"content {content_shape} larger than frame {frame.shape}"
        )
    top = (frame.shape[-2] - height) // 2
    left = (frame.shape[-1] - width) // 2
    return frame[..., top : top + height, left : left + width]


class PaddedSource(FrameSource):
    """A frame source wrapped with the Fig. 13 padding border.

    The camera feed the harness injects is the *padded* version of the
    content feed; QoE scoring later crops the padding back out and
    compares against the unpadded content.
    """

    def __init__(
        self, content: FrameSource, pad_fraction: float = DEFAULT_PAD_FRACTION
    ) -> None:
        super().__init__(padded_spec(content.spec, pad_fraction), content.seed)
        self.content = content
        self.pad_fraction = pad_fraction

    def frame(self, index: int) -> np.ndarray:
        return add_padding(self.content.frame(index), self.pad_fraction)

    def crop(self, frame: np.ndarray) -> np.ndarray:
        """Cut the content region back out of padded/recorded frames.

        Accepts one ``(H, W)`` frame or a ``(T, H, W)`` stack.
        """
        return crop_padding(frame, self.content.spec.shape)


@lru_cache(maxsize=256)
def _resize_plan(in_shape: tuple[int, int], out_shape: tuple[int, int]):
    """Cached bilinear gather plan for one shape pair.

    Building the sample positions dominated ``resize_frame`` in
    profiles (the recorder resizes every tick at a fixed geometry), so
    the plan is computed once per ``(in_shape, out_shape)`` and reused.
    It holds the flat ``(out_h, out_w)`` indices of the four corner
    samples into a row-major ``in_h * in_w`` frame (top-left, top-right,
    bottom-left, bottom-right), and the lerp weights ``1 - wx``, ``wx``,
    ``1 - wy`` and ``wy`` broadcast to the output shape.  The arrays are
    shared and read-only.
    """
    in_h, in_w = in_shape
    out_h, out_w = out_shape
    # Sample positions mapping output pixel centres into input space.
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = np.clip(ys, 0, in_h - 1)
    xs = np.clip(xs, 0, in_w - 1)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    corners = tuple(
        rows[:, None] * in_w + cols[None, :]
        for rows, cols in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))
    )
    weights = tuple(
        np.ascontiguousarray(np.broadcast_to(weight, out_shape))
        for weight in (1 - wx, wx, 1 - wy, wy)
    )
    for array in corners + weights:
        array.setflags(write=False)
    return corners, weights


def resize_frame(frame: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resize a frame with bilinear interpolation (recording -> feed).

    Implemented directly with numpy gather + lerp so the library does
    not depend on an image package; a one-frame :func:`resize_frames`.
    """
    if frame.ndim != 2:
        raise MediaError("expected a single-channel (H, W) frame")
    return resize_frames(frame[None], shape)[0]


#: Target bytes of one float64 frame block during stack resizing --
#: the block's float64 scratch (its input plus three lerp buffers) must
#: stay cache-resident (full-stack passes are DRAM-bound and several
#: times slower).
_RESIZE_BLOCK_BYTES = 512 << 10


def resize_frames(frames: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resize a whole ``(T, H, W)`` stack through the cached plan.

    Bilinear: each output pixel is ``(c00 * (1 - wx) + c01 * wx) *
    (1 - wy) + (c10 * (1 - wx) + c11 * wx) * wy`` over its four corner
    samples, in float64; uint8 input is rounded half-to-even, clipped to
    [0, 255] and returned as uint8, any other dtype returns the float64
    result.  The stack is walked in cache-sized frame blocks: each block
    is converted to float64 once, then every corner is one flat ``take``
    into reused scratch and the lerp runs in place, so a frame's result
    does not depend on the stack it was resized in.
    """
    stack = np.asarray(frames)
    if stack.ndim != 3:
        raise MediaError("expected a (T, H, W) frame stack")
    out_h, out_w = shape
    if out_h < 1 or out_w < 1:
        raise MediaError(f"invalid target shape: {shape}")
    count, in_h, in_w = stack.shape
    if (in_h, in_w) == (out_h, out_w):
        return stack.copy()

    (i00, i01, i10, i11), (wx0, wx1, wy0, wy1) = _resize_plan(
        (in_h, in_w), (out_h, out_w)
    )
    to_uint8 = stack.dtype == np.uint8
    out = np.empty(
        (count, out_h, out_w), dtype=np.uint8 if to_uint8 else np.float64
    )
    frame_bytes = max(in_h * in_w, out_h * out_w) * 8
    step = max(1, min(count, _RESIZE_BLOCK_BYTES // frame_bytes))
    source = np.empty((step, in_h * in_w))
    top, bottom, term = (np.empty((step, out_h, out_w)) for _ in range(3))
    for start in range(0, count, step):
        n = min(step, count - start)
        src, up, down, tmp = source[:n], top[:n], bottom[:n], term[:n]
        # Copying the block in also flattens strided views (crops).
        src.reshape(n, in_h, in_w)[...] = stack[start : start + n]
        # mode="clip" skips take's bounds-check buffering; the plan's
        # indices are in range, so it never alters an index.
        np.take(src, i00, axis=1, out=up, mode="clip")
        np.multiply(up, wx0, out=up)
        np.take(src, i01, axis=1, out=tmp, mode="clip")
        np.multiply(tmp, wx1, out=tmp)
        np.add(up, tmp, out=up)
        np.take(src, i10, axis=1, out=down, mode="clip")
        np.multiply(down, wx0, out=down)
        np.take(src, i11, axis=1, out=tmp, mode="clip")
        np.multiply(tmp, wx1, out=tmp)
        np.add(down, tmp, out=down)
        np.multiply(up, wy0, out=up)
        np.multiply(down, wy1, out=down)
        if to_uint8:
            np.add(up, down, out=up)
            np.rint(up, out=up)
            np.clip(up, 0, 255, out=up)
            out[start : start + n] = up
        else:
            np.add(up, down, out=out[start : start + n])
    return out
