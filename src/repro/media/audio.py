"""Audio sources: deterministic synthetic signals.

The paper's audio QoE experiments inject recorded human speech and
score the received audio with ViSQOL in speech mode (Figure 18).  We
generate a *speech-like* signal instead: a harmonic series at a
modulated fundamental (voicing), shaped by a syllabic amplitude
envelope with pauses, plus a little breath noise.  This has the
spectro-temporal structure that the NSIM-style similarity metric in
:mod:`repro.qoe.visqol` responds to, while being exactly reproducible.

All sources are sample-indexed and deterministic for a given seed:
``samples(start, count)`` always returns the same waveform slice.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import ConfigurationError, MediaError

#: Default sample rate, chosen to cover the speech band (ViSQOL's
#: speech mode operates on 16 kHz input).
DEFAULT_SAMPLE_RATE = 16_000


class AudioSource(abc.ABC):
    """Deterministic sample-indexed audio generator in [-1, 1]."""

    def __init__(self, sample_rate: int = DEFAULT_SAMPLE_RATE, seed: int = 0) -> None:
        if sample_rate < 8000:
            raise ConfigurationError(f"sample_rate too low: {sample_rate}")
        self.sample_rate = sample_rate
        self.seed = seed

    @abc.abstractmethod
    def samples(self, start: int, count: int) -> np.ndarray:
        """Return ``count`` float64 samples beginning at index ``start``."""

    def duration_samples(self, duration_s: float) -> int:
        """Sample count spanning ``duration_s`` seconds."""
        if duration_s < 0:
            raise MediaError("duration must be >= 0")
        return int(round(duration_s * self.sample_rate))

    def read_duration(self, start_s: float, duration_s: float) -> np.ndarray:
        """Read a window addressed in seconds."""
        start = int(round(start_s * self.sample_rate))
        return self.samples(start, self.duration_samples(duration_s))


class SilenceSource(AudioSource):
    """All-zero samples; the "no audio/video of their own" participant."""

    def samples(self, start: int, count: int) -> np.ndarray:
        return np.zeros(count, dtype=np.float64)


class ToneSource(AudioSource):
    """A pure sine tone, useful for codec and offset tests."""

    def __init__(
        self,
        frequency_hz: float = 440.0,
        amplitude: float = 0.5,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        seed: int = 0,
    ) -> None:
        super().__init__(sample_rate, seed)
        if not 0 < frequency_hz < sample_rate / 2:
            raise ConfigurationError(f"frequency out of band: {frequency_hz}")
        if not 0 < amplitude <= 1.0:
            raise ConfigurationError(f"amplitude out of range: {amplitude}")
        self.frequency_hz = frequency_hz
        self.amplitude = amplitude

    def samples(self, start: int, count: int) -> np.ndarray:
        n = np.arange(start, start + count, dtype=np.float64)
        return self.amplitude * np.sin(
            2.0 * np.pi * self.frequency_hz * n / self.sample_rate
        )


class SpeechLikeSource(AudioSource):
    """Synthetic voiced speech: harmonics + syllabic envelope + pauses.

    Structure:

    * fundamental ~120 Hz with slow vibrato (voicing),
    * six harmonics with 1/k rolloff shaped by a formant-ish tilt,
    * a 4 Hz raised-cosine syllable envelope,
    * a pause of ``pause_duration_s`` every ``phrase_duration_s``
      (sentence rhythm),
    * low-level breath noise.
    """

    def __init__(
        self,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        seed: int = 0,
        fundamental_hz: float = 120.0,
        syllable_rate_hz: float = 4.0,
        phrase_duration_s: float = 3.0,
        pause_duration_s: float = 0.4,
        noise_level: float = 0.01,
    ) -> None:
        super().__init__(sample_rate, seed)
        if fundamental_hz <= 0 or syllable_rate_hz <= 0:
            raise ConfigurationError("rates must be positive")
        if pause_duration_s >= phrase_duration_s:
            raise ConfigurationError("pause must be shorter than the phrase")
        self.fundamental_hz = fundamental_hz
        self.syllable_rate_hz = syllable_rate_hz
        self.phrase_duration_s = phrase_duration_s
        self.pause_duration_s = pause_duration_s
        self.noise_level = noise_level
        # The tiled breath-noise buffer depends only on the seed; the
        # streamer reads this source every audio tick, and regenerating
        # one second of gaussians per read dominated the source.
        self._noise_buffer = np.random.default_rng(self.seed).standard_normal(
            self.sample_rate
        )
        #: Samples ``[0, _generated)`` generated so far, by absolute
        #: index; the buffer grows by doubling.
        self._memo = np.empty(0, dtype=np.float64)
        self._generated = 0

    def samples(self, start: int, count: int) -> np.ndarray:
        """``count`` samples from ``start``, generated at most once.

        The streamer reads the source tick by tick and scoring re-reads
        the whole reference afterwards, so every sample is generated
        once into a per-source memo and reads return copies of it.
        Each sample depends only on its own index, so the memo holds
        exactly what a direct generation of any window would give.
        """
        if start < 0 or count < 0:
            raise MediaError(f"invalid sample window: {start}+{count}")
        end = start + count
        if end > self._generated:
            if end > len(self._memo):
                grown = np.empty(max(end, 2 * len(self._memo)), dtype=np.float64)
                grown[: self._generated] = self._memo[: self._generated]
                self._memo = grown
            self._memo[self._generated : end] = self._generate(
                self._generated, end - self._generated
            )
            self._generated = end
        return self._memo[start:end].copy()

    def _generate(self, start: int, count: int) -> np.ndarray:
        n = np.arange(start, start + count, dtype=np.float64)
        t = n / self.sample_rate

        # Voicing: fundamental with 5 Hz vibrato of +-3%.
        vibrato = 1.0 + 0.03 * np.sin(2.0 * np.pi * 5.0 * t)
        phase = 2.0 * np.pi * self.fundamental_hz * vibrato * t

        # All six harmonics in one (6, count) sine call; the per-sample
        # products and the harmonic-order accumulation are unchanged,
        # so the summed signal matches the per-harmonic loop exactly.
        harmonics = np.arange(1.0, 7.0)
        sines = np.sin(harmonics[:, None] * phase)
        signal = np.zeros_like(t)
        for k, harmonic in enumerate(harmonics):
            rolloff = 1.0 / harmonic
            tilt = np.exp(-0.3 * (harmonic - 2.0) ** 2 / 4.0)  # formant bump
            signal += rolloff * tilt * sines[k]

        # Syllable envelope: raised cosine at the syllable rate.
        envelope = 0.5 * (
            1.0 - np.cos(2.0 * np.pi * self.syllable_rate_hz * t)
        )

        # Phrase gating: silence during the pause tail of each phrase.
        in_phrase = (t % self.phrase_duration_s) < (
            self.phrase_duration_s - self.pause_duration_s
        )
        envelope = envelope * in_phrase

        # Deterministic breath noise: a fixed per-seed buffer tiled
        # over the sample index (computed once in __init__).
        noise = self._noise_buffer[(n.astype(np.int64)) % len(self._noise_buffer)]

        out = 0.35 * signal * envelope + self.noise_level * noise
        return np.clip(out, -1.0, 1.0)
