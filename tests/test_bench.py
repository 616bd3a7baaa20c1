"""The ``repro bench --check`` regression gate on hand-built payloads."""

from __future__ import annotations

import pytest

from repro.bench import EXACT_PACKET_PATH_METRICS, check_against_baseline


def _payload(**overrides) -> dict:
    benchmarks = {
        "packet_path": {
            "speedup_vs_slow": 1.4,
            "events_per_packet": 2.0,
            "slow_events_per_packet": 4.0,
            "fused_fraction": 1.0,
        },
        "audio_codec": {"frames_per_s": 9000.0},
        "campaign_fabric": {"inline_efficiency": 0.9},
    }
    for name, metrics in overrides.items():
        benchmarks[name] = metrics
    return {"benchmarks": benchmarks}


def _packet_path(**metrics) -> dict:
    return {**_payload()["benchmarks"]["packet_path"], **metrics}


class TestCheckAgainstBaseline:
    def test_identical_run_passes(self):
        assert check_against_baseline(_payload(), _payload()) == []

    def test_ratio_below_floor_fails(self):
        fresh = _payload(campaign_fabric={"inline_efficiency": 0.5})
        failures = check_against_baseline(fresh, _payload())
        assert len(failures) == 1
        assert "fabric scheduling efficiency regressed" in failures[0]

    def test_speedup_ratio_is_not_gated(self):
        # Both lanes run the same per-packet code: a wall-clock ratio
        # far under the baseline's passes while the counters hold.
        fresh = _payload(packet_path=_packet_path(speedup_vs_slow=0.5))
        assert check_against_baseline(fresh, _payload()) == []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("events_per_packet", 2.5),
            ("events_per_packet", 1.5),
            ("slow_events_per_packet", 2.0),
            ("fused_fraction", 0.99),
        ],
    )
    def test_exact_packet_path_counter_change_fails(self, key, value):
        fresh = _payload(packet_path=_packet_path(**{key: value}))
        failures = check_against_baseline(fresh, _payload())
        assert len(failures) == 1
        assert f"packet-path {key} changed" in failures[0]

    @pytest.mark.parametrize("key", EXACT_PACKET_PATH_METRICS)
    def test_missing_fresh_counter_is_a_named_failure(self, key):
        packet_path = _packet_path()
        del packet_path[key]
        failures = check_against_baseline(
            _payload(packet_path=packet_path), _payload()
        )
        assert failures == [
            f"packet path: fresh run has no {key!r} metric "
            "(the baseline gates it)"
        ]

    def test_counter_absent_from_baseline_is_not_gated(self):
        baseline = _payload()
        del baseline["benchmarks"]["packet_path"]["slow_events_per_packet"]
        fresh = _payload(packet_path=_packet_path(slow_events_per_packet=3.0))
        assert check_against_baseline(fresh, baseline) == []

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
