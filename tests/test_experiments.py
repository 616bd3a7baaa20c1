"""Experiment drivers: scales, grids and result aggregation."""

import pytest

import repro.clients.recorder as recorder_mod
from repro.errors import ConfigurationError, MeasurementError
from repro.experiments.bandwidth_study import (
    RATE_LIMITS,
    limit_label,
    run_bandwidth_cell,
)
from repro.experiments.lag_study import LAG_SCENARIOS, run_lag_scenario
from repro.experiments.mobile_study import MobileScenario, run_mobile_scenario
from repro.experiments.qoe_study import run_qoe_cell
from repro.experiments.scale import ExperimentScale, PAPER_SCALE, QUICK_SCALE
from repro.media.frames import FrameSpec
from repro.media.sync import PROBE_FRAMES
from repro.units import kbps

FAST = ExperimentScale(
    sessions=1,
    lag_session_duration_s=8.0,
    qoe_session_duration_s=5.0,
    content_spec=FrameSpec(96, 72, 10),
    probe_count=4,
    score_frames=15,
)


class TestScale:
    def test_quick_scale_valid(self):
        assert QUICK_SCALE.sessions >= 1

    def test_paper_scale_matches_protocol(self):
        assert PAPER_SCALE.sessions == 20
        assert PAPER_SCALE.lag_session_duration_s == 120.0
        assert PAPER_SCALE.probe_count == 100

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(sessions=0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(lag_session_duration_s=1.0)


class TestLagStudy:
    def test_scenarios_cover_four_figures(self):
        figures = [s[0] for s in LAG_SCENARIOS]
        assert figures == ["fig4", "fig5", "fig6", "fig7"]

    def test_result_structure(self):
        result = run_lag_scenario("zoom", "US-East", "US", scale=FAST)
        assert len(result.lags_ms) == 6  # six receivers
        assert len(result.sessions) == 1
        lo, hi = result.lag_range_ms()
        assert lo <= hi

    def test_unknown_host_rejected(self):
        with pytest.raises(MeasurementError):
            run_lag_scenario("zoom", "CH", "US", scale=FAST)

    def test_median_requires_samples(self):
        result = run_lag_scenario("zoom", "US-East", "US", scale=FAST)
        with pytest.raises(MeasurementError):
            result.median_lag_ms("nonexistent")


class TestQoeStudy:
    def test_cell_aggregation(self):
        cell = run_qoe_cell("zoom", "low", 3, scale=FAST, compute_vifp=False)
        assert cell.num_participants == 3
        assert cell.psnr_mean > 20
        assert 0 < cell.ssim_mean <= 1
        assert cell.upload_mbps > 0
        assert len(cell.sessions) == 1

    def test_invalid_n_rejected(self):
        with pytest.raises(MeasurementError):
            run_qoe_cell("zoom", "low", 99, scale=FAST)


class TestBandwidthStudy:
    def test_limit_labels(self):
        labels = [limit_label(l) for l in RATE_LIMITS]
        assert labels == ["250Kbps", "500Kbps", "1Mbps", "Infinite"]

    def test_cell_runs_and_restores_cap(self):
        cell = run_bandwidth_cell(
            "meet", "high", 1e6, scale=FAST, compute_vifp=False
        )
        assert cell.mos_lqo_mean >= 1.0
        assert cell.psnr_mean > 0
        assert cell.download_mbps <= 1.15

    def test_cell_resamples_only_the_scored_window(self, monkeypatch):
        # A deterministic guard on the finalize work: the cell scores
        # recorder ticks [skip, skip + max_shift + PROBE_FRAMES +
        # score_frames), so the recorder's screen resample must see no
        # more frames than that window holds -- a two-step slice such
        # as recorded[skip:][:n] would resample every tick after skip.
        resampled = []
        resize_frames = recorder_mod.resize_frames

        def counting_resize(frames, shape):
            if shape[0] < frames.shape[1]:  # the downscale pass
                resampled.append(len(frames))
            return resize_frames(frames, shape)

        monkeypatch.setattr(recorder_mod, "resize_frames", counting_resize)
        scale = ExperimentScale(sessions=1)
        run_bandwidth_cell("zoom", "low", kbps(500), scale=scale,
                           compute_vifp=False)
        max_shift = 30  # score_recorded_video's default search range
        assert 0 < sum(resampled) <= max_shift + PROBE_FRAMES + scale.score_frames


class TestMobileStudy:
    def test_scenario_parsing(self):
        scenario = MobileScenario.parse("LM-Video-View")
        assert scenario.motion == "low"
        assert scenario.camera_on
        assert scenario.view_mode == "gallery"
        assert scenario.screen_on

    def test_off_scenario(self):
        scenario = MobileScenario.parse("LM-Off")
        assert not scenario.screen_on

    def test_bad_label(self):
        with pytest.raises(ConfigurationError):
            MobileScenario.parse("XL-View")

    def test_scenario_produces_readings(self):
        result = run_mobile_scenario("zoom", "LM", scale=FAST)
        assert set(result.readings) == {"S10", "J3"}
        assert result.readings["J3"].discharge_mah > 0

    def test_too_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            run_mobile_scenario("zoom", "LM", scale=FAST, num_participants=2)

    def test_table4_n6_has_extra_senders(self):
        result = run_mobile_scenario(
            "zoom", "HM", scale=FAST, num_participants=6
        )
        assert result.num_participants == 6
        assert result.readings["S10"].mean_rate_mbps > 0
