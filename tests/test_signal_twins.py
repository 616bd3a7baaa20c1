"""Exact twins of the in-repo FFT helpers against ``scipy.signal``.

The package computes its audio cross-correlation and ViSQOL STFT on
``scipy.fft`` directly, so importing it never loads ``scipy.signal``.
These tests (which may import it) pin both helpers bit-for-bit to the
scipy calls they replace, so cell outputs cannot drift.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import signal

from repro.media.audio import SpeechLikeSource
from repro.media.sync import _full_convolve
from repro.qoe.visqol import FRAME_SAMPLES, HOP_SAMPLES, _stft

_SPEECH = SpeechLikeSource()


def _input(kind: str, length: int, seed: int) -> np.ndarray:
    """A float64 test signal: speech-like audio or white noise."""
    if kind == "speech":
        return _SPEECH.samples(seed % 50_000, length)
    return np.random.default_rng(seed).standard_normal(length)


def _assert_identical(mine: np.ndarray, reference: np.ndarray) -> None:
    assert mine.shape == reference.shape
    assert mine.dtype == reference.dtype
    assert np.array_equal(mine, reference)


@settings(max_examples=120, deadline=None)
@given(
    len_a=st.integers(min_value=1, max_value=4096),
    len_b=st.integers(min_value=1, max_value=4096),
    kind_a=st.sampled_from(["speech", "noise"]),
    kind_b=st.sampled_from(["speech", "noise"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(len_a=1, len_b=1, kind_a="noise", kind_b="noise", seed=0)
@example(len_a=1, len_b=4096, kind_a="noise", kind_b="speech", seed=1)
@example(len_a=4096, len_b=1, kind_a="speech", kind_b="noise", seed=2)
@example(len_a=4096, len_b=4096, kind_a="speech", kind_b="speech", seed=3)
def test_full_convolve_matches_fftconvolve(len_a, len_b, kind_a, kind_b, seed):
    a = _input(kind_a, len_a, seed)
    b = _input(kind_b, len_b, seed + 1)
    _assert_identical(
        _full_convolve(a, b), signal.fftconvolve(a, b, mode="full")
    )


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(min_value=FRAME_SAMPLES, max_value=40_000),
    kind=st.sampled_from(["speech", "noise"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(length=FRAME_SAMPLES, kind="noise", seed=0)
@example(length=FRAME_SAMPLES + HOP_SAMPLES - 1, kind="speech", seed=1)
@example(length=FRAME_SAMPLES + HOP_SAMPLES, kind="speech", seed=2)
@example(length=40_000, kind="speech", seed=3)
def test_stft_matches_scipy_stft(length, kind, seed):
    x = _input(kind, length, seed)
    _, _, reference = signal.stft(
        x,
        fs=16_000,
        nperseg=FRAME_SAMPLES,
        noverlap=FRAME_SAMPLES - HOP_SAMPLES,
        padded=False,
        boundary=None,
    )
    mine = _stft(x)
    assert mine.dtype == np.complex128
    assert mine.shape == (
        FRAME_SAMPLES // 2 + 1,
        (length - FRAME_SAMPLES) // HOP_SAMPLES + 1,
    )
    _assert_identical(mine, reference)
