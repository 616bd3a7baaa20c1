"""Audio sources and the subband audio codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError, ConfigurationError, MediaError
from repro.media import audio
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

    @pytest.mark.parametrize("field", [
        "fundamental_hz", "syllable_rate_hz", "phrase_duration_s",
        "pause_duration_s",
    ])
    def test_speech_rejects_nan_voicing(self, field):
        with pytest.raises(ConfigurationError):
            SpeechLikeSource(**{field: float("nan")})

    def test_speech_rejects_negative_window(self):
        with pytest.raises(MediaError):
            SpeechLikeSource().samples(-1, 10)
        with pytest.raises(MediaError):
            SpeechLikeSource().samples(0, -1)


def _reference_generate(source, start, count):
    """``SpeechLikeSource`` samples generated directly for one window.

    The whole formula, voicing and breath noise, from the source's
    current attributes and seed, with nothing cached or shared.
    """
    n = np.arange(start, start + count, dtype=np.float64)
    t = n / source.sample_rate
    vibrato = 1.0 + 0.03 * np.sin(2.0 * np.pi * 5.0 * t)
    phase = 2.0 * np.pi * source.fundamental_hz * vibrato * t
    harmonics = np.arange(1.0, 7.0)
    sines = np.sin(harmonics[:, None] * phase)
    signal = np.zeros_like(t)
    for k, harmonic in enumerate(harmonics):
        rolloff = 1.0 / harmonic
        tilt = np.exp(-0.3 * (harmonic - 2.0) ** 2 / 4.0)
        signal += rolloff * tilt * sines[k]
    envelope = 0.5 * (
        1.0 - np.cos(2.0 * np.pi * source.syllable_rate_hz * t)
    )
    in_phrase = (t % source.phrase_duration_s) < (
        source.phrase_duration_s - source.pause_duration_s
    )
    envelope = envelope * in_phrase
    noise_buffer = np.random.default_rng(source.seed).standard_normal(
        source.sample_rate
    )
    noise = noise_buffer[(n.astype(np.int64)) % len(noise_buffer)]
    out = 0.35 * signal * envelope + source.noise_level * noise
    return np.clip(out, -1.0, 1.0)


class TestSpeechMemo:
    """``SpeechLikeSource.samples`` reads a process-level voicing buffer
    by absolute sample index; any read sequence must give what a fresh
    source gives."""

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
            assert np.array_equal(got, _reference_generate(fresh, start, count))

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
        assert np.array_equal(
            ticks[37], _reference_generate(memo, 37 * 1600, 1600)
        )
        assert np.array_equal(memo.read_duration(0, 16), fresh)
        assert np.array_equal(fresh, _reference_generate(memo, 0, 256_000))

    def test_returned_arrays_are_copies(self):
        memo = SpeechLikeSource(seed=4)
        first = memo.samples(100, 400)
        want = first.copy()
        first[:] = 5.0
        assert np.array_equal(memo.samples(100, 400), want)
        assert np.array_equal(memo.samples(0, 1000)[100:500], want)
        # The shared voicing is untouched for every other source too.
        other = SpeechLikeSource(seed=5)
        assert np.array_equal(
            other.samples(100, 400), _reference_generate(other, 100, 400)
        )


#: Voicing-parameter tuples the shared-buffer tests mix in one process:
#: (sample_rate, fundamental_hz, syllable_rate_hz, phrase_duration_s,
#: pause_duration_s, noise_level).
VOICINGS = [
    (16_000, 120.0, 4.0, 3.0, 0.4, 0.01),
    (16_000, 120, 4, 3, 0.4, 0.2),
    (8_000, 97.5, 3.0, 1.0, 0.3, 0.01),
    (16_000, 151.25, 5.5, 2.0, 0.25, 0.0),
    (11_025, 210.0, 2.5, 0.75, 0.5, 0.05),
]


def _source(voicing, seed):
    rate, f0, syllable, phrase, pause, noise = VOICINGS[voicing]
    return SpeechLikeSource(
        sample_rate=rate, seed=seed, fundamental_hz=f0,
        syllable_rate_hz=syllable, phrase_duration_s=phrase,
        pause_duration_s=pause, noise_level=noise,
    )


class TestSharedVoicing:
    """Sources of any seed and voicing share one voicing buffer per
    voicing tuple, and every read equals a direct generation."""

    @pytest.fixture
    def block_calls(self, monkeypatch):
        # A fresh process-level cache, with each synthesised block logged.
        calls = []
        block = audio._voicing_block

        def counted(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(audio, "_VOICING", {})
        monkeypatch.setattr(audio, "_voicing_block", counted)
        return calls

    @settings(max_examples=60, deadline=None)
    @given(
        sources=st.lists(
            st.tuples(st.integers(0, len(VOICINGS) - 1), st.integers(0, 30)),
            min_size=1,
            max_size=4,
        ),
        reads=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 40_000),
                # Short reads, and reads spanning several noise periods.
                st.integers(0, 3000) | st.integers(8000, 30_000),
            ),
            min_size=1,
            max_size=16,
        ),
    )
    def test_any_mix_of_sources_and_reads_matches_reference(
        self, sources, reads
    ):
        made = [_source(voicing, seed) for voicing, seed in sources]
        for which, start, count in reads:
            source = made[which % len(made)]
            got = source.samples(start, count)
            assert got.shape == (count,) and got.dtype == np.float64
            assert np.array_equal(
                got, _reference_generate(source, start, count)
            )

    def test_two_seeds_synthesise_the_voicing_once(self, block_calls):
        a = SpeechLikeSource(seed=1)
        b = SpeechLikeSource(seed=2)
        got_a = a.samples(0, 4000)
        got_b = b.samples(0, 4000)
        b.samples(100, 2000)
        assert len(block_calls) == 1
        assert not np.array_equal(got_a, got_b)
        assert np.array_equal(got_a, _reference_generate(a, 0, 4000))
        assert np.array_equal(got_b, _reference_generate(b, 0, 4000))
        # A longer read synthesises only the samples not yet reached.
        assert np.array_equal(
            a.samples(3000, 2000), _reference_generate(a, 3000, 2000)
        )
        assert len(block_calls) == 2 and block_calls[-1][-2:] == (4000, 1000)
        # Another voicing tuple has its own buffer.
        c = SpeechLikeSource(seed=1, fundamental_hz=130.0)
        assert np.array_equal(
            c.samples(0, 500), _reference_generate(c, 0, 500)
        )
        assert len(block_calls) == 3

    def test_voicing_attributes_changed_after_construction(self, block_calls):
        source = SpeechLikeSource(seed=3)
        before = source.samples(0, 2000)
        source.fundamental_hz = 150.0
        source.phrase_duration_s = 0.1
        source.pause_duration_s = 0.05
        source.syllable_rate_hz = 7.0
        source.noise_level = 0.1
        after = source.samples(0, 2000)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, _reference_generate(source, 0, 2000))
        assert len(block_calls) == 2
        # The default voicing's buffer is unchanged by the switch.
        assert np.array_equal(
            SpeechLikeSource(seed=3).samples(0, 2000), before
        )


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
