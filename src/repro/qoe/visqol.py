"""ViSQOL-style audio quality: NSIM similarity mapped to MOS-LQO.

ViSQOL (Hines et al.) compares gammatone spectrograms of reference and
degraded speech with the Neurogram Similarity Index Measure (NSIM) and
maps the similarity to a MOS-LQO score in [1, 5].  We reproduce the
pipeline's shape:

1. mel-spaced log-power spectrograms of both signals (a practical
   stand-in for the gammatone filterbank),
2. NSIM -- an SSIM-like luminance*structure comparison over the
   spectrogram "image",
3. a logistic map from mean NSIM to MOS-LQO calibrated so that clean
   codec output at the platforms' audio rates scores ~4.0-4.6 and
   heavily damaged audio drops below 2 -- the dynamic range seen in
   the paper's Figure 18.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft, ndimage

from ..errors import AnalysisError

#: Spectrogram parameters (16 kHz speech mode).
FRAME_SAMPLES = 512
HOP_SAMPLES = 256
NUM_BANDS = 32

#: NSIM stabilising constants (on log-power spectrogram dynamic range).
_C1 = 0.01
_C2 = 0.03


def _mel_filterbank(
    sample_rate: int, n_fft: int, num_bands: int
) -> np.ndarray:
    """Triangular mel filterbank matrix (num_bands, n_fft // 2 + 1)."""

    def hz_to_mel(hz: float) -> float:
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def mel_to_hz(mel: np.ndarray) -> np.ndarray:
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    low_mel = hz_to_mel(50.0)
    high_mel = hz_to_mel(sample_rate / 2.0)
    points_mel = np.linspace(low_mel, high_mel, num_bands + 2)
    points_hz = mel_to_hz(points_mel)
    bins = np.floor((n_fft + 1) * points_hz / sample_rate).astype(int)

    bank = np.zeros((num_bands, n_fft // 2 + 1))
    for band in range(num_bands):
        left, centre, right = bins[band], bins[band + 1], bins[band + 2]
        centre = max(centre, left + 1)
        right = max(right, centre + 1)
        for k in range(left, min(centre, bank.shape[1])):
            bank[band, k] = (k - left) / (centre - left)
        for k in range(centre, min(right, bank.shape[1])):
            bank[band, k] = (right - k) / (right - centre)
    return bank


def _stft(x: np.ndarray) -> np.ndarray:
    """One-sided STFT, ``(FRAME_SAMPLES // 2 + 1, frames)`` complex128.

    Bit-identical to scipy's ``stft(x, nperseg=512, noverlap=256,
    padded=False, boundary=None)``: a periodic Hann window built the
    same way, the same framing, transform, scaling and operation order.
    """
    fac = np.linspace(-np.pi, np.pi, FRAME_SAMPLES + 1)
    win = np.zeros(FRAME_SAMPLES + 1)
    win += 0.5 * np.cos(0 * fac)
    win += 0.5 * np.cos(1 * fac)
    win = win[:-1]
    segments = np.lib.stride_tricks.sliding_window_view(x, FRAME_SAMPLES)
    segments = segments[..., ::HOP_SAMPLES, :]
    result = sp_fft.rfft(win * segments, n=FRAME_SAMPLES)
    result *= np.sqrt(1.0 / win.sum() ** 2)
    return np.moveaxis(result, -1, -2)


def spectrogram(audio: np.ndarray, sample_rate: int = 16_000) -> np.ndarray:
    """Mel-spaced log-power spectrogram, normalised to [0, 1].

    Each spectrogram is normalised to its *own* peak over a fixed 80 dB
    range, not to a reference's: its maximum is always 1.0, a quieter
    copy of a signal maps to the same values (until bands reach the
    1e-12 power floor), and an all-zero input -- every band at that
    floor, which is then its peak -- maps to 1.0 everywhere.

    Raises:
        AnalysisError: For audio shorter than one analysis frame or
            holding a non-finite (NaN/inf) sample.
    """
    if len(audio) < FRAME_SAMPLES:
        raise AnalysisError(
            f"audio too short for spectrogram: {len(audio)} samples"
        )
    samples = audio.astype(np.float64)
    if not np.isfinite(samples).all():
        raise AnalysisError("cannot build a spectrogram of non-finite audio")
    power = np.abs(_stft(samples)) ** 2
    bank = _mel_filterbank(sample_rate, FRAME_SAMPLES, NUM_BANDS)
    mel_power = bank @ power
    log_power = 10.0 * np.log10(np.maximum(mel_power, 1e-12))
    # Normalise to [0, 1] over a fixed 80 dB range below this
    # spectrogram's own peak: anything 80 dB or more under it maps to 0.
    peak = float(log_power.max())
    floor = peak - 80.0
    return np.clip((log_power - floor) / 80.0, 0.0, 1.0)


def nsim_similarity(
    reference_spectrogram: np.ndarray, degraded_spectrogram: np.ndarray
) -> float:
    """Neurogram similarity (luminance * structure) of two spectrograms."""
    if reference_spectrogram.shape != degraded_spectrogram.shape:
        raise AnalysisError(
            "spectrogram shapes differ: "
            f"{reference_spectrogram.shape} vs {degraded_spectrogram.shape}"
        )
    r = reference_spectrogram.astype(np.float64)
    d = degraded_spectrogram.astype(np.float64)
    sigma = 1.0

    mu_r = ndimage.gaussian_filter(r, sigma, mode="reflect")
    mu_d = ndimage.gaussian_filter(d, sigma, mode="reflect")
    var_r = ndimage.gaussian_filter(r * r, sigma, mode="reflect") - mu_r**2
    var_d = ndimage.gaussian_filter(d * d, sigma, mode="reflect") - mu_d**2
    cov = ndimage.gaussian_filter(r * d, sigma, mode="reflect") - mu_r * mu_d
    var_r = np.maximum(var_r, 0.0)
    var_d = np.maximum(var_d, 0.0)

    luminance = (2.0 * mu_r * mu_d + _C1) / (mu_r**2 + mu_d**2 + _C1)
    structure = (cov + _C2 / 2.0) / (np.sqrt(var_r * var_d) + _C2 / 2.0)
    nsim = luminance * structure
    return float(np.mean(nsim))


def mos_lqo(
    reference: np.ndarray,
    degraded: np.ndarray,
    sample_rate: int = 16_000,
) -> float:
    """MOS-LQO (1 = worst, 5 = best) of degraded speech vs reference.

    The logistic map is calibrated so NSIM ~0.99 scores ~4.6 (clean
    wideband codec output) and NSIM ~0.8 scores ~1.5 (badly damaged).
    """
    ref_spec = spectrogram(reference, sample_rate)
    deg_spec = spectrogram(degraded, sample_rate)
    frames = min(ref_spec.shape[1], deg_spec.shape[1])
    if frames < 1:
        raise AnalysisError("no overlapping spectrogram frames")
    similarity = nsim_similarity(ref_spec[:, :frames], deg_spec[:, :frames])
    # Logistic mapping NSIM -> MOS-LQO.
    midpoint = 0.90
    slope = 28.0
    mos = 1.0 + 4.0 / (1.0 + np.exp(-slope * (similarity - midpoint)))
    return float(np.clip(mos, 1.0, 5.0))
