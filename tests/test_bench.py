"""The ``repro bench --check`` regression gate on hand-built payloads."""

from __future__ import annotations

from repro.bench import check_against_baseline


def _payload(**overrides) -> dict:
    benchmarks = {
        "packet_path": {"speedup_vs_slow": 1.4, "events_per_packet": 2.0},
        "audio_codec": {"frames_per_s": 9000.0},
        "campaign_fabric": {"inline_efficiency": 0.9},
    }
    for name, metrics in overrides.items():
        benchmarks[name] = metrics
    return {"benchmarks": benchmarks}


class TestCheckAgainstBaseline:
    def test_identical_run_passes(self):
        assert check_against_baseline(_payload(), _payload()) == []

    def test_ratio_below_floor_fails(self):
        fresh = _payload(campaign_fabric={"inline_efficiency": 0.5})
        failures = check_against_baseline(fresh, _payload())
        assert len(failures) == 1
        assert "fabric scheduling efficiency regressed" in failures[0]

    def test_missing_fresh_metric_is_a_named_failure(self):
        # A baseline that gates a metric the fresh benchmark no longer
        # reports (e.g. a removed lane) must fail by name, not raise.
        fresh = _payload(campaign_fabric={})
        failures = check_against_baseline(fresh, _payload())
        assert len(failures) == 1
        assert "'inline_efficiency'" in failures[0]
        assert "campaign_fabric" in failures[0]

    def test_metric_absent_from_baseline_is_not_gated(self):
        baseline = _payload()
        del baseline["benchmarks"]["campaign_fabric"]["inline_efficiency"]
        fresh = _payload(campaign_fabric={"inline_efficiency": 0.1})
        assert check_against_baseline(fresh, baseline) == []

    def test_retired_codec_ratios_are_not_gated(self):
        # Older baselines record batched-vs-per-frame codec ratios;
        # the per-frame twins they compared no longer exist.
        baseline = _payload(
            audio_codec={"batched_speedup": 6.0},
            video_codec={"encode_batched_speedup": 1.05},
        )
        assert check_against_baseline(_payload(), baseline) == []

    def test_benchmark_not_run_is_skipped(self):
        fresh = _payload()
        del fresh["benchmarks"]["campaign_fabric"]
        assert check_against_baseline(fresh, _payload()) == []

    def test_missing_packet_path_fails(self):
        fresh = _payload()
        del fresh["benchmarks"]["packet_path"]
        assert check_against_baseline(fresh, _payload()) == [
            "baseline or fresh run is missing the packet_path benchmark"
        ]
