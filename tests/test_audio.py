"""Audio sources and the subband audio codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError, ConfigurationError, MediaError
from repro.media.audio import (
    SilenceSource,
    SpeechLikeSource,
    ToneSource,
)
from repro.media.audio_codec import (
    AudioCodec,
    AudioCodecConfig,
    AudioDecoder,
    FRAME_DURATION_S,
)


class TestSources:
    def test_silence_is_zero(self):
        assert not SilenceSource().samples(0, 100).any()

    def test_tone_amplitude(self):
        tone = ToneSource(frequency_hz=440, amplitude=0.5)
        samples = tone.samples(0, 16_000)
        assert np.max(np.abs(samples)) == pytest.approx(0.5, abs=0.01)

    def test_tone_frequency_band_check(self):
        with pytest.raises(ConfigurationError):
            ToneSource(frequency_hz=9000, sample_rate=16_000)

    def test_speech_in_range(self):
        speech = SpeechLikeSource()
        samples = speech.samples(0, 16_000)
        assert np.max(np.abs(samples)) <= 1.0
        assert np.std(samples) > 0.01

    def test_speech_deterministic(self):
        a = SpeechLikeSource(seed=3).samples(100, 500)
        b = SpeechLikeSource(seed=3).samples(100, 500)
        assert np.array_equal(a, b)

    def test_speech_window_addressing_consistent(self):
        speech = SpeechLikeSource()
        long = speech.samples(0, 1000)
        tail = speech.samples(500, 500)
        assert np.allclose(long[500:], tail)

    def test_speech_has_pauses(self):
        speech = SpeechLikeSource(phrase_duration_s=1.0, pause_duration_s=0.3)
        samples = speech.read_duration(0.75, 0.2)  # inside the pause
        assert np.max(np.abs(samples)) < 0.05

    def test_low_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            SpeechLikeSource(sample_rate=4000)

    def test_read_duration(self):
        source = ToneSource()
        assert len(source.read_duration(0.0, 0.5)) == 8000

    def test_speech_rejects_negative_window(self):
        with pytest.raises(MediaError):
            SpeechLikeSource().samples(-1, 10)
        with pytest.raises(MediaError):
            SpeechLikeSource().samples(0, -1)


class TestSpeechMemo:
    """``SpeechLikeSource.samples`` memoises by absolute sample index;
    any read sequence must give what a fresh source gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        reads=st.lists(
            st.tuples(st.integers(0, 6000), st.integers(0, 2500)),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 50),
    )
    def test_read_sequences_match_fresh_source(self, reads, seed):
        # Random starts make overlapping, backward, gapped and
        # zero-length reads.
        memo = SpeechLikeSource(seed=seed)
        for start, count in reads:
            got = memo.samples(start, count)
            assert got.shape == (count,) and got.dtype == np.float64
            fresh = SpeechLikeSource(seed=seed)
            assert np.array_equal(got, fresh.samples(start, count))
            # ...and what generating only this window gives.
            assert np.array_equal(got, fresh._generate(start, count))

    def test_overlap_backward_and_empty_reads(self):
        memo = SpeechLikeSource(seed=7)
        for start, count in [(1000, 500), (1200, 800), (0, 300), (900, 0),
                             (5000, 10), (4000, 2000), (0, 0)]:
            fresh = SpeechLikeSource(seed=7).samples(start, count)
            assert np.array_equal(memo.samples(start, count), fresh)

    def test_streamer_ticks_then_reference_read(self):
        # The audio streamer reads 100 ms per tick; scoring then reads
        # the whole 16 s reference back.
        memo = SpeechLikeSource(seed=2)
        fresh = SpeechLikeSource(seed=2).read_duration(0, 16)
        ticks = [memo.read_duration(k * 0.1, 0.1) for k in range(160)]
        assert np.array_equal(np.concatenate(ticks), fresh)
        assert np.array_equal(ticks[37], memo._generate(37 * 1600, 1600))
        assert np.array_equal(memo.read_duration(0, 16), fresh)

    def test_returned_arrays_are_copies(self):
        memo = SpeechLikeSource(seed=4)
        first = memo.samples(100, 400)
        want = first.copy()
        first[:] = 5.0
        assert np.array_equal(memo.samples(100, 400), want)
        assert np.array_equal(memo.samples(0, 1000)[100:500], want)


class TestAudioCodecConfig:
    def test_frame_samples_20ms(self):
        config = AudioCodecConfig(sample_rate=16_000)
        assert config.frame_samples == 320

    def test_frame_budget(self):
        config = AudioCodecConfig(bitrate_bps=45_000)
        assert config.frame_budget_bits == pytest.approx(900)

    def test_bad_bitrate(self):
        with pytest.raises(ConfigurationError):
            AudioCodecConfig(bitrate_bps=0)

    def test_bad_concealment(self):
        with pytest.raises(ConfigurationError):
            AudioCodecConfig(concealment="prayers")


class TestEncodeDecode:
    def test_frame_shape_enforced(self):
        # 640-sample frames from a 32 kHz codec cannot be laid into a
        # 16 kHz decoder's 320-sample slots: push refuses them rather
        # than letting waveform() fail on a numpy broadcast.
        wide = AudioCodec(AudioCodecConfig(sample_rate=32_000))
        frames = wide.encode(np.zeros(2 * wide.config.frame_samples))
        decoder = AudioDecoder(AudioCodec())
        with pytest.raises(CodecError, match="640 samples"):
            decoder.push(frames[0])
        assert decoder.frames_received == 0
        assert decoder.waveform().size == 0

    def test_buffer_must_be_multiple(self):
        codec = AudioCodec()
        with pytest.raises(CodecError):
            codec.encode(np.zeros(codec.config.frame_samples + 1))

    def test_rate_near_budget(self):
        codec = AudioCodec(AudioCodecConfig(bitrate_bps=45_000))
        speech = SpeechLikeSource().read_duration(0, 1.0)
        frames = codec.encode(speech)
        realized = np.mean([f.size_bytes for f in frames]) * 8 / FRAME_DURATION_S
        assert 0.6 * 45_000 < realized < 1.4 * 45_000

    def test_roundtrip_snr(self):
        codec = AudioCodec(AudioCodecConfig(bitrate_bps=45_000))
        speech = SpeechLikeSource().read_duration(0, 0.5)
        decoder = AudioDecoder(codec)
        for frame in codec.encode(speech):
            decoder.push(frame)
        out = decoder.waveform()
        error = np.mean((out - speech) ** 2)
        signal = np.mean(speech**2)
        snr_db = 10 * np.log10(signal / max(error, 1e-12))
        assert snr_db > 15

    def test_higher_bitrate_less_distortion(self):
        speech = SpeechLikeSource().read_duration(0, 0.5)

        def error_at(rate):
            codec = AudioCodec(AudioCodecConfig(bitrate_bps=rate))
            decoder = AudioDecoder(codec)
            for frame in codec.encode(speech):
                decoder.push(frame)
            return float(np.mean((decoder.waveform() - speech) ** 2))

        assert error_at(64_000) < error_at(8_000)

    def test_frame_indices_monotonic(self):
        codec = AudioCodec()
        speech = SpeechLikeSource().read_duration(0, 0.2)
        frames = codec.encode(speech)
        assert [f.index for f in frames] == list(range(len(frames)))


class TestConcealment:
    def _lossy_waveform(self, concealment, drop_indices):
        codec = AudioCodec(
            AudioCodecConfig(bitrate_bps=45_000, concealment=concealment)
        )
        speech = SpeechLikeSource().read_duration(0, 0.5)
        frames = codec.encode(speech)
        decoder = AudioDecoder(codec)
        for frame in frames:
            if frame.index not in drop_indices:
                decoder.push(frame)
        return decoder.waveform(len(frames)), decoder

    def test_silence_fills_zeros(self):
        out, decoder = self._lossy_waveform("silence", {5})
        frame_samples = AudioCodecConfig().frame_samples
        segment = out[5 * frame_samples : 6 * frame_samples]
        assert not segment.any()
        assert decoder.frames_concealed == 1

    def test_concealed_count_stable_across_assemblies(self):
        """Each assembly reports its own count; a second never adds."""
        out, decoder = self._lossy_waveform("repeat", {5, 6, 11})
        assert decoder.frames_concealed == 3
        again = decoder.waveform(len(out) // AudioCodecConfig().frame_samples)
        assert np.array_equal(again, out)
        assert decoder.frames_concealed == 3
        decoder.waveform(3)  # a shorter window holds no gap
        assert decoder.frames_concealed == 0

    def test_repeat_fills_decaying_copy(self):
        out, _ = self._lossy_waveform("repeat", {5})
        frame_samples = AudioCodecConfig().frame_samples
        lost = out[5 * frame_samples : 6 * frame_samples]
        previous = out[4 * frame_samples : 5 * frame_samples]
        assert np.allclose(lost, previous * 0.5)

    def test_repeat_decays_over_consecutive_losses(self):
        out, _ = self._lossy_waveform("repeat", {5, 6, 7})
        frame_samples = AudioCodecConfig().frame_samples
        e5 = np.abs(out[5 * frame_samples : 6 * frame_samples]).max()
        e7 = np.abs(out[7 * frame_samples : 8 * frame_samples]).max()
        assert e7 < e5

    def test_total_frames_extends_with_silence(self):
        codec = AudioCodec()
        decoder = AudioDecoder(codec)
        speech = SpeechLikeSource().read_duration(0, 0.1)
        for frame in codec.encode(speech):
            decoder.push(frame)
        out = decoder.waveform(total_frames=10)
        assert len(out) == 10 * codec.config.frame_samples

    def test_empty_waveform(self):
        decoder = AudioDecoder(AudioCodec())
        assert len(decoder.waveform()) == 0
