"""A real block-DCT video codec with rate control.

The commercial clients' codecs sit behind end-to-end encryption, so the
paper treats them as black boxes and observes only their rate/quality
behaviour.  To reproduce that behaviour mechanistically we implement an
actual codec -- 8x8 block DCT, JPEG-style frequency-weighted uniform
quantisation, inter-frame prediction from the previously decoded frame,
periodic keyframes, and a multiplicative rate controller driving the
quantiser toward a target bitrate.

This gives the reproduction the property that matters: **quality is
computed, not assumed**.  High-motion content has large inter-frame
residuals, so at a fixed bitrate the controller must coarsen the
quantiser and PSNR/SSIM/VIFp genuinely drop (the paper's Finding-3);
tighter bandwidth caps force lower encode rates and the Figure 17
curves emerge from the same mechanics.

Encoded frames store quantised coefficients sparsely (most are zero
after quantisation) and are fragmented for transport by
:mod:`repro.media.transport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy import fft as sp_fft

from ..errors import CodecError, ConfigurationError
from .frames import FrameSpec

#: Side of the transform block.
BLOCK = 8

#: Inter blocks whose residual peak is below this luma value are
#: skipped outright (see the deadzone note in ``VideoCodec.encode``).
SKIP_DEADZONE_LUMA = 1.25

#: Baseline JPEG luminance quantisation weights (normalised so the DC
#: weight is 1.0); shapes how quantisation error distributes over
#: frequencies, which is what makes SSIM/VIFp respond realistically.
_JPEG_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
QUANT_WEIGHTS = _JPEG_LUMA / _JPEG_LUMA[0, 0]

@dataclass(frozen=True)
class VideoCodecConfig:
    """Tuning knobs of the codec.

    Attributes:
        gop_size: Distance between keyframes (intra-coded frames).
        keyframe_boost: Bit-budget multiplier granted to keyframes.
        q_min / q_max: Quantiser step bounds.
        initial_q: Starting quantiser step.
        adaptation_gain: Exponent damping of the rate-control update
            (0 = frozen quantiser, 1 = full proportional correction).
    """

    gop_size: int = 30
    keyframe_boost: float = 4.0
    q_min: float = 0.05
    q_max: float = 512.0
    initial_q: float = 8.0
    adaptation_gain: float = 0.5

    def __post_init__(self) -> None:
        if self.gop_size < 1:
            raise ConfigurationError(f"gop_size must be >= 1, got {self.gop_size}")
        if not 0.0 < self.q_min <= self.initial_q <= self.q_max:
            raise ConfigurationError("need 0 < q_min <= initial_q <= q_max")
        if not 0.0 <= self.adaptation_gain <= 1.0:
            raise ConfigurationError("adaptation_gain must be in [0, 1]")
        if self.keyframe_boost < 1.0:
            raise ConfigurationError("keyframe_boost must be >= 1")


@dataclass
class EncodedFrame:
    """One compressed frame.

    Attributes:
        index: Frame index in the stream (0-based, monotonic).
        keyframe: True for intra-coded frames.
        q_step: Quantiser step used.
        shape: (height, width) of the padded coefficient plane.
        crop: Original (height, width) before block padding.
        indices: Flat positions of non-zero quantised coefficients.
        values: The non-zero quantised levels.
        size_bytes: Estimated entropy-coded size (drives packet sizes).
    """

    index: int
    keyframe: bool
    q_step: float
    shape: tuple[int, int]
    crop: tuple[int, int]
    indices: np.ndarray
    values: np.ndarray
    size_bytes: int


def _padded_plane(frame: np.ndarray) -> np.ndarray:
    """An ``(H, W)`` frame as a float64 plane edge-padded to whole blocks.

    One allocation: the frame is copied in, then its last column and
    last row are replicated outward (the corner with them), which is
    ``np.pad(frame.astype(np.float64), ..., mode="edge")`` without the
    intermediate float copy.
    """
    height, width = frame.shape
    plane = np.empty(
        (height + (-height) % BLOCK, width + (-width) % BLOCK),
        dtype=np.float64,
    )
    plane[:height, :width] = frame
    plane[:height, width:] = plane[:height, width - 1 : width]
    plane[height:] = plane[height - 1]
    return plane


def _block_grid(plane: np.ndarray) -> np.ndarray:
    """A ``(by, bx, 8, 8)`` view of a ``(H, W)`` plane (no copy)."""
    height, width = plane.shape
    return plane.reshape(
        height // BLOCK, BLOCK, width // BLOCK, BLOCK
    ).swapaxes(1, 2)


def _block_dct(plane: np.ndarray) -> np.ndarray:
    """Forward 8x8 block DCT of an ``(H, W)`` plane.

    Returns ``(by, bx, 8, 8)`` coefficients.
    """
    return sp_fft.dctn(_block_grid(plane), axes=(-2, -1), norm="ortho")


def _block_idct(coeffs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`_block_dct`; returns an ``(H, W)`` plane."""
    blocks = sp_fft.idctn(coeffs, axes=(-2, -1), norm="ortho")
    return blocks.swapaxes(1, 2).reshape(shape)


def _skip_deadzone_mask(residual: np.ndarray) -> np.ndarray:
    """Blocks whose residual peak sits inside the skip deadzone.

    An ``(H, W)`` residual -> ``(by, bx)`` booleans.  The max runs in
    two contiguous passes -- first down each block's 8 rows, then
    across each block's 8 columns -- instead of one pass over a
    strided ``(by, 8, bx, 8)`` view; a maximum is order-free, so the
    mask is exact.
    """
    height, width = residual.shape
    row_peaks = np.abs(residual).reshape(height // BLOCK, BLOCK, width).max(axis=1)
    peaks = row_peaks.reshape(height // BLOCK, width // BLOCK, BLOCK).max(axis=2)
    return peaks < SKIP_DEADZONE_LUMA


def _estimate_bits(values: np.ndarray, num_blocks: int, occupied_blocks: int) -> int:
    """Entropy-coding size proxy for the quantised levels.

    Each non-zero level costs a sign bit, a run-length escape and a
    magnitude code growing with log2(|level|).  Every block carries a
    one-bit skip flag; blocks with any coded coefficient additionally
    pay a small header (DC prediction, end-of-block).  Skipped blocks
    are nearly free, so a static scene compresses to almost nothing --
    which is what lets the Figure 2 lag detector separate blank frames
    (small packets) from flash frames (bursts of big packets).
    """
    if values.size:
        magnitudes = np.abs(values.astype(np.float64))
        per_coeff = 3.0 + 2.0 * np.log2(1.0 + magnitudes)
        coeff_bits = float(per_coeff.sum())
    else:
        coeff_bits = 0.0
    overhead_bits = 1.0 * num_blocks + 9.0 * occupied_blocks + 256.0
    return int(np.ceil((coeff_bits + overhead_bits) / 8.0))


def _levels_from_sparse(encoded: "EncodedFrame") -> np.ndarray:
    """Densify one frame's sparse levels to ``(by, bx, 8, 8)``."""
    blocks_shape = (
        encoded.shape[0] // BLOCK,
        encoded.shape[1] // BLOCK,
        BLOCK,
        BLOCK,
    )
    flat = np.zeros(int(np.prod(blocks_shape)), dtype=np.float64)
    flat[encoded.indices] = encoded.values.astype(np.float64)
    return flat.reshape(blocks_shape)


def _residual_plane_sparse(
    levels: np.ndarray, q_step: np.float64, shape: tuple[int, int]
) -> np.ndarray:
    """Inverse-transform only the occupied blocks of one frame.

    Empty blocks inverse-transform to exact zeros, so gathering the
    occupied blocks into one stacked IDCT and leaving the rest as a
    zero plane reproduces the full transform's residual.  Static
    content under rate caps leaves most blocks empty, which is where
    the encode/decode loops spend their transform time.
    """
    occupied = np.nonzero(levels.any(axis=(-2, -1)))
    return _residual_from_blocks(levels[occupied], occupied, q_step, shape)


def _residual_from_blocks(
    blocks: np.ndarray,
    where: tuple[np.ndarray, np.ndarray],
    q_step: np.float64,
    shape: tuple[int, int],
) -> np.ndarray:
    """An ``(H, W)`` residual from ``(K, 8, 8)`` occupied blocks.

    ``where`` holds the blocks' (row, column) positions on the block
    grid; every other block is left an exact zero.
    """
    residual = np.zeros(shape, dtype=np.float64)
    if len(blocks):
        coeffs = blocks * (q_step * QUANT_WEIGHTS)
        _block_grid(residual)[where] = sp_fft.idctn(
            coeffs, axes=(-2, -1), norm="ortho"
        )
    return residual


def _apply_prediction(
    residual: np.ndarray, keyframe: bool, reference: Optional[np.ndarray]
) -> np.ndarray:
    """Add the prediction basis and clamp to the pixel range.

    Works in place on ``residual``, always a fresh buffer from
    :func:`_residual_plane_sparse`; the in-place add/clip compute the
    same elementwise values as the out-of-place originals.
    """
    if keyframe:
        np.add(residual, 128.0, out=residual)
    else:
        if reference is None:
            raise CodecError("inter frame without a reference")
        np.add(residual, reference, out=residual)
    return np.clip(residual, 0.0, 255.0, out=residual)


def _reconstruct_from_sparse(
    encoded: "EncodedFrame", reference: Optional[np.ndarray]
) -> np.ndarray:
    """Reconstruct one frame's plane from its sparse coefficients."""
    if encoded.values.size == 0 and not encoded.keyframe and reference is not None:
        # Fully-skipped inter frame: the residual IDCT is exactly zero
        # and the reference is already clamped, so the reconstruction
        # is the reference unchanged.  Static scenes under caps hit
        # this on a quarter of their frames.
        return reference
    residual = _residual_plane_sparse(
        _levels_from_sparse(encoded), np.float64(encoded.q_step), encoded.shape
    )
    return _apply_prediction(residual, encoded.keyframe, reference)


class RateController:
    """Multiplicative quantiser adaptation toward a bit budget.

    After each frame the quantiser step is scaled by
    ``(actual_bits / target_bits) ** gain`` and clamped to the config's
    bounds -- the classic "buffer-based" controller shape used by
    real-time encoders.
    """

    def __init__(self, config: VideoCodecConfig, target_bps: float, fps: float) -> None:
        if target_bps <= 0 or fps <= 0:
            raise ConfigurationError("target_bps and fps must be positive")
        self._config = config
        self._fps = fps
        self._q = config.initial_q
        self.set_target(target_bps)

    @property
    def q_step(self) -> float:
        """Current quantiser step."""
        return self._q

    @property
    def target_bps(self) -> float:
        """Current bitrate target."""
        return self._target_bps

    def set_target(self, target_bps: float) -> None:
        """Change the bitrate target (platform rate-control decisions)."""
        if target_bps <= 0:
            raise ConfigurationError(f"target_bps must be positive: {target_bps}")
        self._target_bps = float(target_bps)

    def frame_budget_bits(self, keyframe: bool) -> float:
        """Bit budget for the next frame.

        Budgets are normalised over a GOP so the *average* rate equals
        the target even though keyframes get a boosted share: one
        boosted keyframe plus ``gop-1`` inter frames must spend exactly
        ``gop`` frame-periods of bits.
        """
        gop = self._config.gop_size
        boost = self._config.keyframe_boost
        per_frame = self._target_bps / self._fps
        inter_share = gop / (gop - 1.0 + boost) if gop > 1 else 1.0
        base = per_frame * inter_share
        return base * (boost if keyframe else 1.0)

    def update(self, actual_bits: float, keyframe: bool) -> None:
        """Adapt the quantiser from the realised frame size."""
        budget = self.frame_budget_bits(keyframe)
        ratio = max(0.1, min(10.0, actual_bits / max(budget, 1.0)))
        self._q *= ratio ** self._config.adaptation_gain
        self._q = float(np.clip(self._q, self._config.q_min, self._config.q_max))


class VideoCodec:
    """Encoder/decoder pair over a shared configuration.

    The encoder maintains its own decoded reference (as real encoders
    do) so encoder and decoder stay in sync as long as no frames are
    lost.  The decoder freezes on reference gaps and resynchronises at
    the next keyframe, reproducing the stall-then-recover behaviour the
    paper observes on Webex under tight caps.
    """

    def __init__(
        self,
        spec: FrameSpec,
        config: Optional[VideoCodecConfig] = None,
        target_bps: float = 1_000_000.0,
    ) -> None:
        self.spec = spec
        self.config = config if config is not None else VideoCodecConfig()
        self.rate_controller = RateController(self.config, target_bps, spec.fps)
        self._reference: Optional[np.ndarray] = None
        self._frame_index = 0
        self._force_keyframe = False

    def request_keyframe(self) -> None:
        """Force the next encoded frame to be intra-coded.

        The sender calls this on a PLI-style feedback message, letting
        receivers resynchronise after loss within roughly one RTT
        instead of waiting out the GOP.
        """
        self._force_keyframe = True

    # ----------------------------------------------------------------- #
    # Encoding.
    # ----------------------------------------------------------------- #

    def _next_is_keyframe(self) -> bool:
        return (
            self._frame_index % self.config.gop_size == 0
            or self._reference is None
            or self._force_keyframe
        )

    def encode(self, frame: np.ndarray) -> EncodedFrame:
        """Encode the next frame of the stream."""
        if frame.shape != self.spec.shape:
            raise CodecError(
                f"frame shape {frame.shape} does not match spec {self.spec.shape}"
            )
        keyframe = self._next_is_keyframe()
        self._force_keyframe = False
        return self._encode_plane(_padded_plane(frame), frame.shape, keyframe)

    def encode_batch(
        self, frames: Union[np.ndarray, Sequence[np.ndarray]]
    ) -> List[EncodedFrame]:
        """Encode a burst of consecutive frames, in order.

        The same as calling :meth:`encode` per frame, after checking
        that ``frames`` is an ``(F, H, W)`` stack of the spec's shape.
        """
        stack = np.asarray(frames)
        if stack.ndim != 3 or stack.shape[1:] != self.spec.shape:
            raise CodecError(
                f"frame stack must be (F, {self.spec.shape[0]}, "
                f"{self.spec.shape[1]}), got {stack.shape}"
            )
        return [self.encode(frame) for frame in stack]

    def _encode_plane(
        self, plane: np.ndarray, crop: tuple[int, int], keyframe: bool
    ) -> EncodedFrame:
        """Quantise, size and reconstruct one pre-padded float plane."""
        index = self._frame_index
        q_step = self.rate_controller.q_step
        divisor = q_step * QUANT_WEIGHTS
        by, bx = plane.shape[0] // BLOCK, plane.shape[1] // BLOCK
        if keyframe:
            # Fresh transform output, so quantise it in place.
            coeffs = _block_dct(plane - 128.0)
            np.divide(coeffs, divisor, out=coeffs)
            np.round(coeffs, out=coeffs)
            blocks = coeffs.astype(np.int32).reshape(by * bx, BLOCK * BLOCK)
            coded_ids = None
        else:
            # Skip deadzone: blocks whose residual is within a luma
            # step of zero carry no signal, only quantisation noise
            # from earlier frames; coding them would make the encoder
            # chase its own reconstruction error forever on static
            # content.  The mask depends on the residual alone, so
            # masked blocks' coefficients are never consumed -- gather
            # only the live blocks into one stacked transform.
            residual = plane - self._reference
            coded = ~_skip_deadzone_mask(residual)
            coded_ids = np.flatnonzero(coded)
            blocks = np.zeros((0, BLOCK * BLOCK), dtype=np.int32)
            if len(coded_ids):
                coeffs = sp_fft.dctn(
                    _block_grid(residual)[coded], axes=(-2, -1), norm="ortho"
                )
                np.divide(coeffs, divisor, out=coeffs)
                np.round(coeffs, out=coeffs)
                blocks = coeffs.astype(np.int32).reshape(-1, BLOCK * BLOCK)

        # One occupancy pass over the coded blocks feeds the sparse
        # extraction, the size estimate and the reconstruction.  Block
        # ids ascend and each block's 64 levels are contiguous in the
        # (by, bx, 8, 8) layout, so the flat indices ascend as a
        # nonzero over the whole plane would return them.
        occupied = blocks.any(axis=-1)
        block_ids = np.flatnonzero(occupied)
        if coded_ids is not None:
            block_ids = coded_ids[block_ids]
        blocks = blocks[occupied]
        which, offsets = np.nonzero(blocks)
        nonzero = block_ids[which] * (BLOCK * BLOCK) + offsets
        values = blocks[which, offsets].astype(np.int16)
        size_bytes = _estimate_bits(values, by * bx, len(block_ids))

        encoded = EncodedFrame(
            index=index,
            keyframe=keyframe,
            q_step=q_step,
            shape=plane.shape,
            crop=crop,
            indices=nonzero.astype(np.int32),
            values=values,
            size_bytes=size_bytes,
        )

        # Reconstruct exactly as the decoder will, to keep references
        # in sync (closed-loop prediction).  The decoder rebuilds the
        # levels from the int16 sparse values, so dequantise the same
        # int16 view here rather than re-scattering.  A fully-skipped
        # inter frame reconstructs to the reference unchanged (zero
        # residual into an already-clamped plane) -- no transform.
        if not (values.size == 0 and not keyframe):
            residual_rec = _residual_from_blocks(
                blocks.astype(np.int16).reshape(-1, BLOCK, BLOCK),
                np.divmod(block_ids, bx),
                np.float64(q_step),
                encoded.shape,
            )
            self._reference = _apply_prediction(
                residual_rec, keyframe, self._reference
            )
        self._frame_index += 1
        self.rate_controller.update(size_bytes * 8.0, keyframe)
        return encoded


class VideoDecoder:
    """Stateful decoder: freezes on gaps, resyncs on keyframes.

    Attributes:
        frames_decoded: Successfully decoded frame count.
        frames_frozen: Frames rendered as a freeze (gap before resync).
    """

    def __init__(
        self,
        spec: FrameSpec,
        pixels: bool = True,
        defer: bool = False,
    ) -> None:
        """``pixels=False`` runs the freeze/resync state machine only.

        The gap statistics (``frames_decoded``/``frames_frozen``)
        depend solely on frame metadata, so a stats-only decoder --
        a receiver that watches a flow nobody renders -- can skip
        every reconstruction.  ``last_frame`` stays ``None``.

        ``defer=True`` parks every delivered frame instead of
        reconstructing it: the freeze/resync state machine (and its
        counters) still runs eagerly and exactly, but pixel work is
        logged as events and replayed through :meth:`decode` on an
        internal eager decoder at :meth:`materialise` time -- so the
        simulator loop does zero codec work, and every per-event output
        is bit-identical to the eager path (only the wall-clock moment
        of the pure computation moves).  Only meaningful with pixels;
        callers must not rely on :meth:`decode` return values while
        deferring (they are ``None`` until materialised).
        """
        self.spec = spec
        self.pixels = pixels
        self.defer = bool(defer) and pixels
        self._reference: Optional[np.ndarray] = None
        self._rendered: Optional[np.ndarray] = None
        self._has_reference = False
        self._next_expected = 0
        self._awaiting_keyframe = False
        self.frames_decoded = 0
        self.frames_frozen = 0
        #: Count of decode/mark_lost events accepted so far; a deferred
        #: grab (desktop recorder tick) stores this as its token.
        self.events_seen = 0
        self._events: List[object] = []
        self._event_frames: List[Optional[np.ndarray]] = []
        self._inner: Optional["VideoDecoder"] = None

    @property
    def has_output(self) -> bool:
        """Whether :attr:`last_frame` would be non-``None``.

        Readable without forcing a deferred materialise: a frame has
        been rendered iff the decoder has ever accepted a reference.
        """
        return self._has_reference if self.pixels else False

    @property
    def last_frame(self) -> Optional[np.ndarray]:
        """The most recently rendered frame (uint8), if any.

        Memoised per reference: the desktop recorder polls this on its
        own clock, far more often than the stream actually changes, so
        the crop/clamp/cast runs once per decoded frame.  Treat the
        returned array as read-only (repeat reads share it).
        """
        if self._events:
            self.materialise()
        if self._reference is None:
            return None
        if self._rendered is None:
            height, width = self.spec.shape
            self._rendered = np.clip(
                self._reference[:height, :width], 0, 255
            ).astype(np.uint8)
        return self._rendered

    def decode(self, encoded: EncodedFrame) -> Optional[np.ndarray]:
        """Decode one frame; returns the rendered uint8 frame.

        Returns the frozen previous frame (or ``None`` before any
        output) when the stream has a gap and ``encoded`` is not a
        keyframe -- rendering continues but the new data is unusable.
        """
        if self.defer:
            # Exact metadata state machine (counters and resync state
            # must read true at any simulation time); pixels are parked
            # as an event and replayed at materialise time.
            self._events.append(encoded)
            self.events_seen += 1
            gap = encoded.index != self._next_expected
            if gap and not encoded.keyframe:
                self._awaiting_keyframe = True
            if self._awaiting_keyframe and not encoded.keyframe:
                self._next_expected = encoded.index + 1
                self.frames_frozen += 1
                return None
            if not encoded.keyframe and not self._has_reference:
                self._next_expected = encoded.index + 1
                self.frames_frozen += 1
                return None
            self._has_reference = True
            self._awaiting_keyframe = False
            self._next_expected = encoded.index + 1
            self.frames_decoded += 1
            return None
        gap = encoded.index != self._next_expected
        if gap and not encoded.keyframe:
            self._awaiting_keyframe = True
        if self._awaiting_keyframe and not encoded.keyframe:
            self._next_expected = encoded.index + 1
            self.frames_frozen += 1
            return self.last_frame
        if not encoded.keyframe and not self._has_reference:
            self._next_expected = encoded.index + 1
            self.frames_frozen += 1
            return None

        if self.pixels:
            reconstructed = _reconstruct_from_sparse(
                encoded, self._reference if not encoded.keyframe else None
            )
            if reconstructed is not self._reference:
                # Fully-skipped frames hand the reference back
                # unchanged; keep the rendered cache with it.
                self._reference = reconstructed
                self._rendered = None
        self._has_reference = True
        self._awaiting_keyframe = False
        self._next_expected = encoded.index + 1
        self.frames_decoded += 1
        return self.last_frame

    def decode_batch(
        self, frames: Sequence[EncodedFrame]
    ) -> List[Optional[np.ndarray]]:
        """Decode a burst of frames; returns each frame's rendered output.

        The same as calling :meth:`decode` per frame, in order.
        """
        return [self.decode(encoded) for encoded in frames]

    def mark_lost(self, frame_index: int) -> Optional[np.ndarray]:
        """Record that ``frame_index`` was lost in transport.

        The decoder renders a freeze and will wait for the next
        keyframe before trusting inter frames again.
        """
        if self.defer:
            self._events.append(int(frame_index))
            self.events_seen += 1
            if frame_index >= self._next_expected:
                self._next_expected = frame_index + 1
            self._awaiting_keyframe = True
            self.frames_frozen += 1
            return None
        if frame_index >= self._next_expected:
            self._next_expected = frame_index + 1
        self._awaiting_keyframe = True
        self.frames_frozen += 1
        return self.last_frame

    # ------------------------------------------------------------- #
    # Deferred decode (the receiver's path for recorded flows).
    # ------------------------------------------------------------- #

    def materialise(self) -> None:
        """Replay parked events through the eager pixel pipeline.

        Events replay in order through :meth:`decode` and
        :meth:`mark_lost` on a persistent internal eager decoder whose
        state carries across calls -- so repeated materialise/defer
        cycles compose.  Each event's rendered output is retained for
        token lookup (:meth:`frame_at_token`), and the internal
        decoder's reference becomes this decoder's, making
        :attr:`last_frame` exact.
        """
        if not self._events:
            return
        inner = self._inner
        if inner is None:
            inner = self._inner = VideoDecoder(self.spec, pixels=True)
        self._event_frames.extend(
            inner.mark_lost(event) if type(event) is int else inner.decode(event)
            for event in self._events
        )
        self._events = []
        # The replay runs the same state machine this decoder already
        # ran eagerly; any divergence is a defect, not a data error.
        assert inner.frames_decoded == self.frames_decoded
        assert inner.frames_frozen == self.frames_frozen
        assert inner._next_expected == self._next_expected
        self._reference = inner._reference
        self._rendered = inner._rendered

    def frame_at_token(self, token: int) -> Optional[np.ndarray]:
        """The rendered frame as of ``token`` events (recorder grabs).

        ``token`` is a snapshot of :attr:`events_seen`; the returned
        array is exactly what :attr:`last_frame` held at that moment
        (``None`` before any output).
        """
        if self._events:
            self.materialise()
        if token == 0:
            return None
        return self._event_frames[token - 1]
