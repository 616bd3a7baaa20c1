"""Recording alignment: trim search, audio offset, loudness.

Section 4.3-4.4 post-processing: "we synchronize the start/end time of
original/recorded videos with millisecond-level precision by trimming
them in a way that per-frame SSIM similarity is maximized", audio is
aligned with ``audio-offset-finder`` and normalised with EBU R128
loudness normalisation.  This module implements all three steps.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy import fft as sp_fft

from ..errors import AnalysisError


#: Frame pairs probed per candidate shift during the trim search.
PROBE_FRAMES = 10

#: Below this centred-frame norm a frame is considered flat (no
#: texture); a uint8 frame with any pixel off its mean is well above.
_FLAT_NORM = 1e-6

#: Threshold on the product of two centred norms below which the
#: normalised correlation is undefined and the degenerate rules apply.
_DEGENERATE_DENOM = 1e-12


def _frame_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Fast normalised-correlation proxy for per-frame SSIM.

    The trim search only needs a ranking over integer shifts; zero-mean
    normalised correlation ranks shifts identically to SSIM for this
    purpose and is far cheaper than the full windowed metric.

    Degenerate (flat-frame) pairs carry no texture to correlate: two
    flat frames count as identical only when their *brightness* also
    matches -- mean subtraction alone would map e.g. an all-black and
    an all-white frame both to zero vectors and score them 1.0.
    """
    fa = a.astype(np.float64).ravel()
    fb = b.astype(np.float64).ravel()
    mean_a = float(fa.mean())
    mean_b = float(fb.mean())
    fa -= mean_a
    fb -= mean_b
    norm_a = float(np.linalg.norm(fa))
    norm_b = float(np.linalg.norm(fb))
    denom = norm_a * norm_b
    if denom < _DEGENERATE_DENOM:
        both_flat = norm_a < _FLAT_NORM and norm_b < _FLAT_NORM
        return 1.0 if both_flat and np.isclose(mean_a, mean_b) else 0.0
    return float(np.dot(fa, fb) / denom)


def _probe_similarity_matrix(
    frames_a: np.ndarray, frames_b: np.ndarray
) -> np.ndarray:
    """Pairwise :func:`_frame_similarity` of two frame stacks.

    Returns ``S[i, j] = similarity(frames_a[i], frames_b[j])`` in one
    matrix product over the centred, flattened frames, with the same
    degenerate-pair rules as the scalar function.
    """
    a = frames_a.reshape(len(frames_a), -1).astype(np.float64)
    b = frames_b.reshape(len(frames_b), -1).astype(np.float64)
    mean_a = a.mean(axis=1)
    mean_b = b.mean(axis=1)
    a -= mean_a[:, None]
    b -= mean_b[:, None]
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    denom = norm_a[:, None] * norm_b[None, :]
    degenerate = denom < _DEGENERATE_DENOM
    scores = np.matmul(a, b.T) / np.where(degenerate, 1.0, denom)
    flat_match = (
        (norm_a[:, None] < _FLAT_NORM)
        & (norm_b[None, :] < _FLAT_NORM)
        & np.isclose(mean_a[:, None], mean_b[None, :])
    )
    return np.where(degenerate, flat_match.astype(np.float64), scores)


def _as_stack(frames: "Sequence[np.ndarray] | np.ndarray") -> np.ndarray:
    try:
        stack = np.asarray(frames)
    except ValueError as exc:
        raise AnalysisError(f"frames do not stack: {exc}") from exc
    if stack.ndim != 3 or stack.dtype == object:
        raise AnalysisError(
            f"expected equally-shaped (H, W) frames, got shape {stack.shape}"
        )
    return stack


def align_recordings(
    reference: Sequence[np.ndarray],
    recorded: Sequence[np.ndarray],
    max_shift: int = 30,
) -> Tuple[int, Sequence[np.ndarray], Sequence[np.ndarray]]:
    """Find the shift aligning a recording to its reference feed.

    Tries integer frame shifts in ``[-max_shift, max_shift]``, scoring
    each by mean frame similarity over the overlap, and returns
    ``(best_shift, reference_aligned, recorded_aligned)`` where both
    aligned stacks have equal length.  A positive shift means the
    recording starts ``shift`` frames later than the reference.

    All candidate shifts are scored from one pairwise correlation
    matrix over the probe window (the first ``PROBE_FRAMES +
    max_shift`` frames of each side) rather than a per-shift Python
    loop; ties keep the smallest shift, as the sequential search did.

    Raises:
        AnalysisError: If either sequence is empty or no overlap
            exists at any shift.
    """
    if len(reference) == 0 or len(recorded) == 0:
        raise AnalysisError("cannot align empty frame sequences")
    ref = _as_stack(reference)
    rec = _as_stack(recorded)
    probe_count = min(PROBE_FRAMES, len(ref), len(rec))
    window_ref = min(len(ref), probe_count + max_shift)
    window_rec = min(len(rec), probe_count + max_shift)
    similarity = _probe_similarity_matrix(ref[:window_ref], rec[:window_rec])

    shifts = np.arange(-max_shift, max_shift + 1)
    probes = np.arange(probe_count)
    forward = shifts[:, None] >= 0
    ref_idx = np.where(forward, probes[None, :], probes[None, :] - shifts[:, None])
    rec_idx = np.where(forward, probes[None, :] + shifts[:, None], probes[None, :])
    valid = (ref_idx < len(ref)) & (rec_idx < len(rec))
    gathered = similarity[
        np.minimum(ref_idx, window_ref - 1), np.minimum(rec_idx, window_rec - 1)
    ]
    counts = valid.sum(axis=1)
    if not np.any(counts > 0):
        raise AnalysisError("no overlap at any shift; cannot align")
    sums = np.where(valid, gathered, 0.0).sum(axis=1)
    scores = np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)
    best_shift = int(shifts[int(np.argmax(scores))])

    if best_shift >= 0:
        ref_slice = ref[: len(rec) - best_shift]
        rec_slice = rec[best_shift:]
    else:
        ref_slice = ref[-best_shift:]
        rec_slice = rec[: len(ref) + best_shift]
    overlap = min(len(ref_slice), len(rec_slice))
    return best_shift, ref_slice[:overlap], rec_slice[:overlap]


def _full_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-D float64 arrays via the FFT.

    Bit-identical to scipy's real-input ``fftconvolve(a, b, "full")``:
    the same fast transform length, the same calls in the same order,
    and the same length-1 shortcut (a plain broadcast product).
    """
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    fshape = [sp_fft.next_fast_len(n, True)]
    sp_a = sp_fft.rfftn(a, fshape, axes=[0])
    sp_b = sp_fft.rfftn(b, fshape, axes=[0])
    return sp_fft.irfftn(sp_a * sp_b, fshape, axes=[0])[:n].copy()


def find_audio_offset(
    reference: np.ndarray, recorded: np.ndarray, max_offset: int | None = None
) -> int:
    """Sample offset of ``recorded`` relative to ``reference``.

    Positive result: the recording lags the reference by that many
    samples.  Computed by FFT cross-correlation (the approach of the
    paper's ``audio-offset-finder`` tool).

    Raises:
        AnalysisError: On empty or non-finite (NaN/inf) audio.
    """
    if len(reference) == 0 or len(recorded) == 0:
        raise AnalysisError("cannot correlate empty audio")
    rec = recorded.astype(np.float64)
    ref = reference[::-1].astype(np.float64)
    if not (np.isfinite(rec).all() and np.isfinite(ref).all()):
        raise AnalysisError("cannot correlate non-finite audio")
    correlation = _full_convolve(rec, ref)
    lags = np.arange(-(len(reference) - 1), len(recorded))
    if max_offset is not None:
        mask = np.abs(lags) <= max_offset
        if not mask.any():
            raise AnalysisError("max_offset excludes every lag")
        correlation = correlation[mask]
        lags = lags[mask]
    return int(lags[int(np.argmax(correlation))])


def trim_to_offset(
    reference: np.ndarray, recorded: np.ndarray, offset: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply an offset, returning equal-length aligned signals."""
    if offset >= 0:
        recorded = recorded[offset:]
    else:
        reference = reference[-offset:]
    overlap = min(len(reference), len(recorded))
    if overlap == 0:
        raise AnalysisError("offset leaves no overlapping audio")
    return reference[:overlap], recorded[:overlap]


def measure_loudness(audio: np.ndarray, sample_rate: int = 16_000) -> float:
    """Gated RMS loudness in dB relative to full scale (LUFS-like).

    A simplified EBU R128: mean square over 400 ms blocks with 75 %
    overlap, absolute gate at -70, relative gate at -10 below the
    ungated mean -- omitting the K-weighting filter, which barely
    matters for our band-limited synthetic speech.
    """
    if len(audio) == 0:
        raise AnalysisError("cannot measure loudness of empty audio")
    block = max(1, int(0.4 * sample_rate))
    hop = max(1, block // 4)
    powers = []
    for start in range(0, max(1, len(audio) - block + 1), hop):
        segment = audio[start : start + block]
        powers.append(float(np.mean(segment.astype(np.float64) ** 2)))
    powers_arr = np.array(powers)
    loudness = -0.691 + 10.0 * np.log10(np.maximum(powers_arr, 1e-12))
    gated = powers_arr[loudness > -70.0]
    if gated.size == 0:
        return -70.0
    ungated_mean = -0.691 + 10.0 * np.log10(np.mean(gated))
    gate = ungated_mean - 10.0
    final = powers_arr[loudness > gate]
    if final.size == 0:
        final = gated
    return float(-0.691 + 10.0 * np.log10(np.mean(final)))


def normalize_loudness(
    audio: np.ndarray, target_lufs: float = -23.0, sample_rate: int = 16_000
) -> np.ndarray:
    """Scale audio to a target loudness (EBU R128 normalisation)."""
    current = measure_loudness(audio, sample_rate)
    gain_db = target_lufs - current
    return audio.astype(np.float64) * (10.0 ** (gain_db / 20.0))
