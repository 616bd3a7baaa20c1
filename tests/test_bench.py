"""The ``repro bench --check`` regression gate on hand-built payloads."""

from __future__ import annotations

from repro.bench import check_against_baseline


def _payload(**overrides) -> dict:
    benchmarks = {
        "packet_path": {"speedup_vs_slow": 1.4, "events_per_packet": 2.0},
        "audio_codec": {"batched_speedup": 6.0},
        "video_codec": {"encode_batched_speedup": 1.05,
                        "decode_batched_speedup": 1.1},
        "campaign_fabric": {"inline_efficiency": 0.9},
    }
    for name, metrics in overrides.items():
        benchmarks[name] = metrics
    return {"benchmarks": benchmarks}


class TestCheckAgainstBaseline:
    def test_identical_run_passes(self):
        assert check_against_baseline(_payload(), _payload()) == []

    def test_ratio_below_floor_fails(self):
        fresh = _payload(audio_codec={"batched_speedup": 3.0})
        failures = check_against_baseline(fresh, _payload())
        assert len(failures) == 1
        assert "audio batched-encode speedup regressed" in failures[0]

    def test_missing_fresh_metric_is_a_named_failure(self):
        # A baseline that gates a metric the fresh benchmark no longer
        # reports (e.g. a removed lane) must fail by name, not raise.
        fresh = _payload(audio_codec={})
        failures = check_against_baseline(fresh, _payload())
        assert len(failures) == 1
        assert "'batched_speedup'" in failures[0]
        assert "audio_codec" in failures[0]

    def test_metric_absent_from_baseline_is_not_gated(self):
        baseline = _payload()
        del baseline["benchmarks"]["campaign_fabric"]["inline_efficiency"]
        fresh = _payload(campaign_fabric={"inline_efficiency": 0.1})
        assert check_against_baseline(fresh, baseline) == []

    def test_benchmark_not_run_is_skipped(self):
        fresh = _payload()
        del fresh["benchmarks"]["video_codec"]
        assert check_against_baseline(fresh, _payload()) == []

    def test_missing_packet_path_fails(self):
        fresh = _payload()
        del fresh["benchmarks"]["packet_path"]
        assert check_against_baseline(fresh, _payload()) == [
            "baseline or fresh run is missing the packet_path benchmark"
        ]
