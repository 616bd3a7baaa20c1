"""ViSQOL-style audio scoring."""

import numpy as np
import pytest

from repro.core.postprocess import score_recorded_audio
from repro.errors import AnalysisError
from repro.media.audio import SpeechLikeSource
from repro.media.audio_codec import AudioCodec, AudioCodecConfig, AudioDecoder
from repro.qoe.visqol import mos_lqo, nsim_similarity, spectrogram


@pytest.fixture
def speech():
    return SpeechLikeSource().read_duration(0, 2.0)


class TestSpectrogram:
    def test_shape(self, speech):
        spec = spectrogram(speech)
        assert spec.shape[0] == 32  # mel bands
        assert spec.shape[1] > 10

    def test_normalised_range(self, speech):
        spec = spectrogram(speech)
        assert spec.min() >= 0.0 and spec.max() <= 1.0

    def test_too_short_rejected(self):
        with pytest.raises(AnalysisError):
            spectrogram(np.zeros(100))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, speech, bad):
        spoiled = speech.copy()
        spoiled[5000] = bad
        with pytest.raises(AnalysisError, match="non-finite"):
            spectrogram(spoiled)

    def test_normalised_to_its_own_peak(self, speech):
        # Not anchored to any reference: every spectrogram peaks at 1.0,
        # the level drops out, and an all-zero input sits at its own
        # (floored) peak.
        assert spectrogram(1e-3 * speech).max() == 1.0
        assert np.allclose(spectrogram(speech), spectrogram(0.5 * speech))
        assert np.all(spectrogram(np.zeros(2048)) == 1.0)


class TestNsim:
    def test_identical_is_one(self, speech):
        spec = spectrogram(speech)
        assert nsim_similarity(spec, spec) == pytest.approx(1.0)

    def test_shape_mismatch(self, speech):
        spec = spectrogram(speech)
        with pytest.raises(AnalysisError):
            nsim_similarity(spec, spec[:, :-3])

    def test_noise_lowers_similarity(self, speech):
        rng = np.random.default_rng(0)
        noisy = speech + rng.normal(0, 0.1, len(speech))
        a = spectrogram(speech)
        b = spectrogram(noisy)
        frames = min(a.shape[1], b.shape[1])
        assert nsim_similarity(a[:, :frames], b[:, :frames]) < 1.0


class TestMosLqo:
    def test_identical_scores_high(self, speech):
        assert mos_lqo(speech, speech) > 4.5

    def test_clean_codec_output_scores_high(self, speech):
        codec = AudioCodec(AudioCodecConfig(bitrate_bps=45_000))
        decoder = AudioDecoder(codec)
        usable = speech[: (len(speech) // 320) * 320]
        for frame in codec.encode(usable):
            decoder.push(frame)
        assert mos_lqo(usable, decoder.waveform()) > 4.0

    def test_heavy_loss_scores_low(self, speech):
        codec = AudioCodec(
            AudioCodecConfig(bitrate_bps=45_000, concealment="silence")
        )
        decoder = AudioDecoder(codec)
        usable = speech[: (len(speech) // 320) * 320]
        frames = codec.encode(usable)
        rng = np.random.default_rng(1)
        for frame in frames:
            if rng.random() > 0.5:
                decoder.push(frame)
        damaged_mos = mos_lqo(usable, decoder.waveform(len(frames)))
        assert damaged_mos < 3.0

    def test_repeat_conceals_better_than_silence(self, speech):
        usable = speech[: (len(speech) // 320) * 320]
        scores = {}
        for mode in ("repeat", "silence"):
            codec = AudioCodec(
                AudioCodecConfig(bitrate_bps=45_000, concealment=mode)
            )
            decoder = AudioDecoder(codec)
            frames = codec.encode(usable)
            rng = np.random.default_rng(2)
            for frame in frames:
                if rng.random() > 0.15:
                    decoder.push(frame)
            scores[mode] = mos_lqo(usable, decoder.waveform(len(frames)))
        assert scores["repeat"] > scores["silence"]

    def test_score_bounds(self, speech):
        assert 1.0 <= mos_lqo(speech, np.zeros_like(speech)) <= 5.0

    def test_level_does_not_matter(self, speech):
        # Each side is normalised to its own peak.
        assert mos_lqo(speech, 1e-3 * speech) > 4.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_degraded_fails_loudly(self, speech, bad):
        # One bad sample used to turn the score into NaN.
        spoiled = speech.copy()
        spoiled[5000] = bad
        with pytest.raises(AnalysisError, match="non-finite"):
            mos_lqo(speech, spoiled)
        with pytest.raises(AnalysisError, match="non-finite"):
            score_recorded_audio(speech, spoiled)
