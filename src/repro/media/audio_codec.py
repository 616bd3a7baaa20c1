"""A subband audio codec with loss concealment.

Models the platforms' audio paths (Opus-like) at the level the paper
observes: a constant configured bitrate (Zoom ~90 Kbps, Webex ~45,
Meet ~40 -- Section 4.4), quantisation noise that shrinks with bitrate,
and per-frame transport so shaper drops translate into concealment
artefacts.  Concealment strategy is configurable because the paper
finds Zoom/Meet audio robust under caps while Webex audio degrades
audibly: platforms that conceal by waveform repetition keep MOS high
under moderate loss, zero-fill concealment does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy import fft as sp_fft

from ..errors import CodecError, ConfigurationError

#: Audio frame duration used by the codec (Opus default frame).
FRAME_DURATION_S = 0.02


@dataclass(frozen=True)
class AudioCodecConfig:
    """Audio codec parameters.

    Attributes:
        bitrate_bps: Target (and effectively constant) bitrate.
        sample_rate: Input sample rate.
        concealment: ``"repeat"`` (decaying repetition of the last good
            frame, Zoom/Meet-style) or ``"silence"`` (zero fill,
            Webex-style).
    """

    bitrate_bps: float = 40_000.0
    sample_rate: int = 16_000
    concealment: str = "repeat"

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ConfigurationError("bitrate must be positive")
        if self.concealment not in ("repeat", "silence"):
            raise ConfigurationError(
                f"unknown concealment mode: {self.concealment!r}"
            )

    @property
    def frame_samples(self) -> int:
        """Samples per codec frame."""
        return int(round(self.sample_rate * FRAME_DURATION_S))

    @property
    def frame_budget_bits(self) -> float:
        """Bit budget per codec frame."""
        return self.bitrate_bps * FRAME_DURATION_S


@dataclass
class EncodedAudioFrame:
    """One compressed audio frame (sparse DCT levels)."""

    index: int
    q_step: float
    indices: np.ndarray
    values: np.ndarray
    frame_samples: int
    size_bytes: int


class AudioCodec:
    """Encoder for 20 ms audio frames.

    The encoder DCT-transforms a buffer of frames in one ``(frames,
    samples)`` call, quantises each frame with a step chosen per frame
    (one vectorised binary search over all of them) to meet the bit
    budget, and reports the realised sizes.  :class:`AudioDecoder`
    inverts, and conceals missing frames according to the configured
    strategy.
    """

    def __init__(self, config: Optional[AudioCodecConfig] = None) -> None:
        self.config = config if config is not None else AudioCodecConfig()
        self._next_index = 0

    def encode(self, samples: np.ndarray) -> list[EncodedAudioFrame]:
        """Encode a multiple-of-frame-size buffer into frames.

        The buffer is reshaped into a ``(frames, frame_samples)`` view
        -- one dtype conversion, no per-frame slice copies -- and one
        DCT over the matrix feeds one quantiser fit for every frame.
        Sparse extraction and the realised-size model stay per frame
        (they are ragged).  Each DCT row and each frame's bisection
        read only that frame, so how a stream is split into buffers
        never changes its frames.
        """
        frame_samples = self.config.frame_samples
        if len(samples) % frame_samples != 0:
            raise CodecError(
                f"buffer length {len(samples)} is not a multiple of "
                f"the frame size {frame_samples}"
            )
        frames = len(samples) // frame_samples
        if frames == 0:
            return []
        matrix = np.asarray(samples, dtype=np.float64).reshape(
            frames, frame_samples
        )
        coeff_stack = sp_fft.dct(matrix, norm="ortho")
        q_steps = self._fit_quantiser_batch(
            coeff_stack, self.config.frame_budget_bits
        )
        level_stack = np.round(coeff_stack / q_steps[:, None]).astype(np.int32)
        rows, cols = np.nonzero(level_stack)
        flat_values = level_stack[rows, cols].astype(np.int16)
        bounds = np.searchsorted(rows, np.arange(frames + 1))
        encoded: List[EncodedAudioFrame] = []
        for f in range(frames):
            start, end = bounds[f], bounds[f + 1]
            values = flat_values[start:end]
            encoded.append(
                EncodedAudioFrame(
                    index=self._next_index,
                    q_step=float(q_steps[f]),
                    indices=cols[start:end].astype(np.int32),
                    values=values,
                    frame_samples=frame_samples,
                    size_bytes=int(np.ceil(self._bits_for(values) / 8.0)),
                )
            )
            self._next_index += 1
        return encoded

    @staticmethod
    def _bits_for(values: np.ndarray) -> float:
        if values.size == 0:
            return 64.0
        magnitudes = np.abs(values.astype(np.float64))
        return float(np.sum(2.5 + 1.7 * np.log2(1.0 + magnitudes))) + 64.0

    def _fit_quantiser_batch(
        self, coeff_stack: np.ndarray, budget_bits: float
    ) -> np.ndarray:
        """Per-frame quantiser fit over a ``(frames, samples)`` stack.

        The smallest power-ladder step whose levels fit the budget:
        every frame runs 24 bisection probes with its own ``(lo, hi)``
        bracket, and one probe is one vectorised pass over the whole
        stack.  The probes read ``|coeffs|``: banker's rounding is
        sign-symmetric, so the level magnitudes -- all the bit model
        reads -- match rounding the signed coefficients.  A probe's bit
        cost is ``1.7*sum(log2(1+l)) + 2.5*nnz + 64``, which equals
        :meth:`_bits_for` on the nonzero levels because zero levels add
        an exact ``log2(1) == 0.0``.  Every reduction runs along the
        last axis, so each frame's step is the one it would get alone.
        """
        frames = coeff_stack.shape[0]
        lo = np.full(frames, 1e-4)
        hi = np.full(frames, 10.0)
        magnitudes = np.abs(coeff_stack)
        # Scratch buffers shared across probes: each pass writes the
        # rounded levels and their per-level log costs in place, so the
        # 24 probes allocate nothing but their (frames,) reductions.
        levels = np.empty_like(magnitudes)
        costs = np.empty_like(magnitudes)
        for _ in range(24):
            mid = np.sqrt(lo * hi)
            np.divide(magnitudes, mid[:, None], out=levels)
            np.round(levels, out=levels)
            nonzero = np.count_nonzero(levels, axis=-1)
            np.add(levels, 1.0, out=costs)
            np.log2(costs, out=costs)
            bits = 1.7 * costs.sum(axis=-1) + 2.5 * nonzero + 64.0
            over = bits > budget_bits
            lo = np.where(over, mid, lo)
            hi = np.where(over, hi, mid)
        return hi


class AudioDecoder:
    """Stateful frame-sequence decoder with loss concealment.

    Feed frames with :meth:`push`; missing indices are concealed.  The
    final waveform is assembled with :meth:`waveform`.

    Pushed frames are only parked; the inverse transforms run lazily in
    one batched IDCT over every pending frame when the waveform is
    assembled.  The batched IDCT transforms each row exactly as a lone
    frame, so the samples do not depend on when frames were drained.
    """

    def __init__(self, codec: AudioCodec) -> None:
        self._codec = codec
        self._frames: dict[int, np.ndarray] = {}
        self._encoded: dict[int, EncodedAudioFrame] = {}
        self._max_index = -1
        self.frames_received = 0
        self.frames_concealed = 0

    def push(self, frame: EncodedAudioFrame) -> None:
        """Accept one encoded frame (in any order).

        Raises:
            CodecError: The frame was encoded with a different frame
                size than this decoder's codec.
        """
        expected = self._codec.config.frame_samples
        if frame.frame_samples != expected:
            raise CodecError(
                f"audio frame {frame.index} has {frame.frame_samples} "
                f"samples, decoder expects {expected}"
            )
        # Park for the batched lazy decode; a duplicate push wins over
        # an already-decoded copy.
        self._encoded[frame.index] = frame
        self._frames.pop(frame.index, None)
        self._max_index = max(self._max_index, frame.index)
        self.frames_received += 1

    def _decode_pending(self) -> None:
        """One batched IDCT over every frame parked by :meth:`push`."""
        if not self._encoded:
            return
        pending = list(self._encoded.items())
        self._encoded.clear()
        frame_samples = self._codec.config.frame_samples
        coeffs = np.zeros((len(pending), frame_samples), dtype=np.float64)
        for row, (_index, frame) in enumerate(pending):
            coeffs[row, frame.indices] = (
                frame.values.astype(np.float64) * frame.q_step
            )
        chunks = sp_fft.idct(coeffs, norm="ortho")
        for row, (index, _frame) in enumerate(pending):
            self._frames[index] = chunks[row]

    def waveform(self, total_frames: Optional[int] = None) -> np.ndarray:
        """Assemble the decoded signal, concealing missing frames.

        :attr:`frames_concealed` becomes this assembly's count of
        concealed frames, so assembling twice never double-counts.

        Args:
            total_frames: Length of the stream in frames; defaults to
                the highest index received + 1.
        """
        self._decode_pending()
        frame_samples = self._codec.config.frame_samples
        if total_frames is None:
            total_frames = self._max_index + 1
        if total_frames <= 0:
            self.frames_concealed = 0
            return np.zeros(0, dtype=np.float64)
        out = np.zeros(total_frames * frame_samples, dtype=np.float64)
        last_good: Optional[np.ndarray] = None
        decay = 1.0
        mode = self._codec.config.concealment
        concealed = 0
        for index in range(total_frames):
            chunk = self._frames.get(index)
            if chunk is not None:
                last_good = chunk
                decay = 1.0
            else:
                concealed += 1
                if mode == "repeat" and last_good is not None:
                    decay *= 0.5
                    chunk = last_good * decay
                else:
                    chunk = np.zeros(frame_samples, dtype=np.float64)
            out[index * frame_samples : (index + 1) * frame_samples] = chunk
        self.frames_concealed = concealed
        return out
