"""Timeline-driven sessions: static equivalence and phase segmentation."""

import numpy as np
import pytest

from repro.core.postprocess import segment_series_by_phase
from repro.core.session import SessionConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.errors import AnalysisError, MeasurementError
from repro.media.frames import FrameSpec
from repro.net.dynamics import (
    PhaseWindow,
    LinkConditions,
    bandwidth_ramp_timeline,
    constant_timeline,
)
from repro.units import kbps, mbps

CLIENTS = ("US-East", "US-East2", "US-Central")
SPEC = FrameSpec(96, 72, 10)


def _testbed() -> Testbed:
    testbed = Testbed(TestbedConfig(seed=123))
    for name in CLIENTS:
        testbed.add_vm(name)
    return testbed


def _config(**overrides) -> SessionConfig:
    settings = dict(
        duration_s=4.0,
        feed="high",
        pad_fraction=0.15,
        audio=False,
        content_spec=SPEC,
        probes=False,
        record_video=True,
        gop_size=30,
        feed_seed=5,
    )
    settings.update(overrides)
    return SessionConfig(**settings)


def _session_fingerprint(artifacts):
    captures = {
        name: [(r.timestamp, r.wire_bytes, r.flow_id) for r in capture]
        for name, capture in artifacts.captures.items()
    }
    recorder = artifacts.recorders["US-East2"]
    return captures, list(recorder.timestamps), recorder.frames


class TestConstantTimelineEquivalence:
    """A one-phase timeline must reproduce the static setup exactly."""

    def test_capped_session_bit_identical(self):
        config = _config()
        cap = kbps(300)

        static = _testbed()
        static.apply_bandwidth_cap("US-East2", cap)
        static_artifacts = static.run_session("zoom", list(CLIENTS),
                                              "US-East", config)

        dynamic = _testbed()
        timeline_config = _config(timelines={
            "US-East2": constant_timeline(
                duration_s=config.settle_s + config.duration_s + config.grace_s,
                start_offset_s=-config.settle_s,
                ingress_cap_bps=cap,
                cap_burst_bytes=8_000,
            )
        })
        dynamic_artifacts = dynamic.run_session("zoom", list(CLIENTS),
                                                "US-East", timeline_config)

        static_caps, static_ticks, static_frames = _session_fingerprint(
            static_artifacts
        )
        dynamic_caps, dynamic_ticks, dynamic_frames = _session_fingerprint(
            dynamic_artifacts
        )
        # Capture timestamps (and packet identities) are bit-identical.
        assert static_caps == dynamic_caps
        # Recorder tick clock and recorded pixels are bit-identical,
        # which pins the QoE pipeline output without re-scoring.
        assert static_ticks == dynamic_ticks
        assert len(static_frames) == len(dynamic_frames)
        for a, b in zip(static_frames, dynamic_frames):
            assert np.array_equal(a, b)
        # Measured rates follow.
        assert (static_artifacts.rate_summary()
                == dynamic_artifacts.rate_summary())

    def test_uncapped_session_bit_identical(self):
        config = _config()
        static_artifacts = _testbed().run_session("zoom", list(CLIENTS),
                                                  "US-East", config)
        timeline_config = _config(timelines={
            "US-East2": constant_timeline(config.duration_s)
        })
        dynamic_artifacts = _testbed().run_session("zoom", list(CLIENTS),
                                                   "US-East", timeline_config)
        assert (_session_fingerprint(static_artifacts)[0]
                == _session_fingerprint(dynamic_artifacts)[0])


class TestPhaseSegmentedSession:
    @pytest.fixture(scope="class")
    def ramp_artifacts(self):
        timeline = bandwidth_ramp_timeline(
            (None, kbps(250), None), step_s=2.0
        )
        config = _config(duration_s=6.0,
                         timelines={"US-East2": timeline})
        return _testbed().run_session("zoom", list(CLIENTS),
                                      "US-East", config)

    def test_phase_windows_recorded_and_clipped(self, ramp_artifacts):
        windows = ramp_artifacts.phase_windows("US-East2")
        start, end = ramp_artifacts.media_window
        assert [w.name for w in windows] == [
            "p0-uncapped", "p1-250kbps", "p2-uncapped"
        ]
        assert windows[0].start_s == pytest.approx(start)
        assert windows[-1].end_s == pytest.approx(end)

    def test_no_timeline_raises(self, ramp_artifacts):
        with pytest.raises(MeasurementError):
            ramp_artifacts.phase_windows("US-Central")

    def test_unknown_timeline_target_fails_before_side_effects(self):
        from repro.errors import SessionError

        testbed = _testbed()
        config = _config(timelines={"US-West": constant_timeline(4.0)})
        with pytest.raises(SessionError):
            testbed.run_session("zoom", list(CLIENTS), "US-East", config)
        # The rejection happened before any event was scheduled, so the
        # shared simulator is clean and the next session is unpolluted.
        assert testbed.network.simulator.pending_events == 0
        good = _config()
        artifacts = testbed.run_session("zoom", list(CLIENTS),
                                        "US-East", good)
        assert len(artifacts.captures) == 3

    def test_capped_phase_slower_than_uncapped(self, ramp_artifacts):
        rates = ramp_artifacts.phase_download_rates_bps("US-East2")
        assert rates["p1-250kbps"] < rates["p0-uncapped"]
        assert rates["p1-250kbps"] < mbps(1)

    def test_shaper_stats_segmented_by_phase(self, ramp_artifacts):
        stats = ramp_artifacts.phase_shaper_stats("US-East2")
        assert stats["p1-250kbps"].accepted > 0
        # Uncapped phases install no shaper, so only the capped phase
        # (and nothing else) accounts packets.
        assert set(stats) == {"p1-250kbps"}

    def test_shaper_stats_scoped_to_one_session(self):
        # The link and its counters are shared across sessions on one
        # testbed; artifacts must report only their own session's
        # activity, and must not mutate when later sessions run.
        timeline = bandwidth_ramp_timeline((None, kbps(250), None), step_s=2.0)
        testbed = _testbed()
        config = _config(duration_s=6.0, timelines={"US-East2": timeline})
        first = testbed.run_session("zoom", list(CLIENTS), "US-East", config)
        first_stats = first.phase_shaper_stats("US-East2")["p1-250kbps"]
        first_accepted = first_stats.accepted
        assert first_accepted > 0
        second = testbed.run_session("zoom", list(CLIENTS), "US-East", config)
        second_stats = second.phase_shaper_stats("US-East2")["p1-250kbps"]
        # Session 1's snapshot is frozen, and session 2 reports a
        # same-order (not doubled-up) count of its own.
        assert first.phase_shaper_stats("US-East2")["p1-250kbps"].accepted \
            == first_accepted
        assert second_stats.accepted < 2 * first_accepted

    def test_freeze_fractions_cover_phases(self, ramp_artifacts):
        freezes = ramp_artifacts.phase_freeze_fractions("US-East2")
        assert set(freezes) == {"p0-uncapped", "p1-250kbps", "p2-uncapped"}
        for fraction in freezes.values():
            assert 0.0 <= fraction <= 1.0


class TestSegmentSeriesByPhase:
    def test_means_per_window(self):
        windows = [
            PhaseWindow("a", 0.0, 1.0, LinkConditions()),
            PhaseWindow("b", 1.0, 2.0, LinkConditions()),
        ]
        series = [1.0, 2.0, 10.0, 20.0]
        times = [0.2, 0.7, 1.2, 1.7]
        out = segment_series_by_phase(series, times, windows)
        assert out["a"] == (2, pytest.approx(1.5))
        assert out["b"] == (2, pytest.approx(15.0))

    def test_windows_sharing_name_pool(self):
        windows = [
            PhaseWindow("a", 0.0, 1.0, LinkConditions()),
            PhaseWindow("a", 2.0, 3.0, LinkConditions()),
        ]
        out = segment_series_by_phase([1.0, 3.0], [0.5, 2.5], windows)
        assert out["a"] == (2, pytest.approx(2.0))

    def test_empty_phase_is_nan(self):
        windows = [PhaseWindow("a", 5.0, 6.0, LinkConditions())]
        count, mean = segment_series_by_phase([1.0], [0.5], windows)["a"]
        assert count == 0
        assert np.isnan(mean)

    def test_length_mismatch_raises(self):
        with pytest.raises(AnalysisError):
            segment_series_by_phase([1.0], [0.5, 0.6], [])
