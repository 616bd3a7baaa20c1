"""Session orchestration and the testbed."""

import pytest

from repro.core.probing import Prober
from repro.core.session import MeetingSession, SessionConfig, make_feed
from repro.media.padding import PaddedSource
from repro.core.testbed import Testbed, TestbedConfig
from repro.errors import ConfigurationError, MeasurementError, SessionError
from repro.media.feeds import FlashFeed, HighMotionFeed, LowMotionFeed, StaticFeed
from repro.media.frames import FrameSpec
from repro.net.address import EndpointKey


SMALL = FrameSpec(64, 48, 10)


def quick_config(**kwargs):
    defaults = dict(
        duration_s=6.0,
        feed="flash",
        pad_fraction=0.0,
        content_spec=SMALL,
        probes=False,
        gop_size=600,
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


class TestSessionConfig:
    def test_motion_property(self):
        assert quick_config(feed="high").motion == "high"
        assert quick_config(feed="low").motion == "low"
        assert quick_config(feed="flash").motion == "low"

    def test_feed_validated(self):
        with pytest.raises(SessionError):
            quick_config(feed="hologram")

    def test_duration_validated(self):
        with pytest.raises(SessionError):
            quick_config(duration_s=0)

    def test_wire_normalisation_default(self):
        assert not quick_config(feed="flash").wire_normalized
        assert quick_config(feed="low").wire_normalized

    def test_wire_normalisation_override(self):
        config = quick_config(feed="low", normalize_wire_rates=False)
        assert not config.wire_normalized

    def test_make_feed_types(self):
        assert isinstance(make_feed(quick_config(feed="flash")), FlashFeed)
        assert isinstance(make_feed(quick_config(feed="low")), LowMotionFeed)
        assert isinstance(make_feed(quick_config(feed="high")), HighMotionFeed)
        assert isinstance(make_feed(quick_config(feed="static")), StaticFeed)
        assert make_feed(quick_config(feed=None)) is None


class TestTestbed:
    def test_deploy_group_counts(self, testbed):
        assert len(testbed.deploy_group("US")) == 7

    def test_duplicate_vm_rejected(self, testbed):
        testbed.add_vm("US-East")
        with pytest.raises(ConfigurationError):
            testbed.add_vm("US-East")

    def test_platform_cached(self, testbed):
        assert testbed.platform("zoom") is testbed.platform("zoom")

    def test_run_session_requires_deployed_clients(self, testbed):
        testbed.add_vm("US-East")
        with pytest.raises(ConfigurationError):
            testbed.run_session(
                "zoom", ["US-East", "ghost"], "US-East", quick_config()
            )

    def test_vm_clocks_are_synced_but_imperfect(self, testbed):
        a = testbed.add_vm("US-East")
        b = testbed.add_vm("US-West")
        assert a.host.clock.offset_s != b.host.clock.offset_s
        assert abs(a.host.clock.offset_s) < 0.001

    def test_bandwidth_cap_roundtrip(self, testbed):
        testbed.add_vm("US-East")
        testbed.apply_bandwidth_cap("US-East", 1e6)
        assert testbed.clients["US-East"].host.link.ingress_shaper is not None
        testbed.apply_bandwidth_cap("US-East", None)
        assert testbed.clients["US-East"].host.link.ingress_shaper is None


class TestSessionRun:
    @pytest.fixture
    def three_vms(self, testbed):
        for name in ("US-East", "US-East2", "US-West"):
            testbed.add_vm(name)
        return testbed

    def test_artifacts_have_captures(self, three_vms):
        names = ["US-East", "US-East2", "US-West"]
        artifacts = three_vms.run_session(
            "zoom", names, "US-East", quick_config()
        )
        assert set(artifacts.captures) == set(names)
        assert all(len(c) > 0 for c in artifacts.captures.values())

    def test_lag_measurable(self, three_vms):
        names = ["US-East", "US-East2", "US-West"]
        artifacts = three_vms.run_session(
            "zoom", names, "US-East", quick_config(duration_s=8.0)
        )
        lags = artifacts.lag_measurements("US-West")
        assert len(lags) >= 2
        assert all(0 < m.lag_ms < 200 for m in lags)

    def test_rate_summary(self, three_vms):
        names = ["US-East", "US-East2", "US-West"]
        artifacts = three_vms.run_session(
            "zoom", names, "US-East",
            quick_config(feed="low", pad_fraction=0.15, duration_s=5.0,
                         gop_size=30),
        )
        rates = artifacts.rate_summary()
        assert rates.upload_bps > 0
        assert set(rates.download_bps_by_client) == {"US-East2", "US-West"}

    def test_probing_collects_rtts(self, three_vms):
        names = ["US-East", "US-East2", "US-West"]
        artifacts = three_vms.run_session(
            "zoom", names, "US-East",
            quick_config(probes=True, probe_count=5, probe_interval_s=0.3),
        )
        rtt = artifacts.mean_rtt_ms("US-West")
        assert 1.0 < rtt < 150.0

    def test_endpoint_discovery_sees_platform_port(self, three_vms):
        names = ["US-East", "US-East2", "US-West"]
        artifacts = three_vms.run_session(
            "webex", names, "US-East", quick_config()
        )
        endpoints = artifacts.discovered_endpoints("US-West")
        assert endpoints
        assert all(e.port == 9000 for e in endpoints)

    def test_sessions_are_reentrant(self, three_vms):
        names = ["US-East", "US-East2", "US-West"]
        first = three_vms.run_session("zoom", names, "US-East", quick_config())
        second = three_vms.run_session("zoom", names, "US-East", quick_config())
        assert first.wiring.session_id != second.wiring.session_id
        assert len(second.captures["US-West"]) > 0

    def test_zoom_two_party_is_p2p(self, three_vms):
        artifacts = three_vms.run_session(
            "zoom", ["US-East", "US-West"], "US-East", quick_config()
        )
        assert artifacts.wiring.p2p

    @pytest.mark.parametrize("feed", ["low", "high", "static", "flash"])
    @pytest.mark.parametrize("pad_fraction", [0.0, 0.1, 0.15, 0.27, 0.49])
    @pytest.mark.parametrize(
        "content_spec",
        [FrameSpec(192, 144, 15), FrameSpec(17, 23, 5), FrameSpec(640, 480, 30)],
    )
    def test_camera_spec_matches_padded_feed(
        self, three_vms, feed, pad_fraction, content_spec
    ):
        """The camera geometry is derived without building the feed,
        and equals what the padded feed reports."""
        config = quick_config(feed=feed, pad_fraction=pad_fraction,
                              content_spec=content_spec)
        session = MeetingSession(
            three_vms.platform("zoom"),
            [three_vms.clients["US-East"], three_vms.clients["US-West"]],
            "US-East",
            config,
        )
        if pad_fraction > 0 and feed != "flash":
            want = PaddedSource(make_feed(config), pad_fraction).spec
        else:
            want = make_feed(config).spec
        assert session._camera_spec() == want

    def test_host_must_be_member(self, three_vms):
        with pytest.raises(SessionError):
            MeetingSession(
                three_vms.platform("zoom"),
                [three_vms.clients["US-East"], three_vms.clients["US-West"]],
                "CH",
                quick_config(),
            )

    def test_mean_rtt_without_probes_raises(self, three_vms):
        names = ["US-East", "US-East2", "US-West"]
        artifacts = three_vms.run_session(
            "zoom", names, "US-East", quick_config(probes=False)
        )
        with pytest.raises(MeasurementError):
            artifacts.mean_rtt_ms("US-West")


class TestProberUnit:
    def test_probe_and_reply(self, testbed):
        testbed.add_vm("US-East")
        testbed.add_vm("US-West")
        artifacts = testbed.run_session(
            "webex", ["US-East", "US-West"], "US-East", quick_config()
        )
        # Fresh prober against the session endpoint after the fact.
        client = testbed.clients["US-East"]
        endpoint = artifacts.wiring.service_endpoint_key("US-East")
        prober = Prober(client.host)
        result = prober.probe(endpoint, count=3, interval_s=0.1)
        testbed.network.simulator.run()
        prober.finalize()
        assert result.received == 3
        assert result.lost == 0
        assert result.mean_rtt_ms() > 0

    def test_probe_validation(self, testbed):
        client = testbed.add_vm("US-East")
        prober = Prober(client.host)
        with pytest.raises(MeasurementError):
            prober.probe(EndpointKey("1.2.3.4", 80), count=0)

    def test_unanswered_probes_counted_lost(self, testbed):
        client = testbed.add_vm("US-East")
        silent = testbed.add_vm("US-West")  # no relay bound at 8801
        prober = Prober(client.host)
        result = prober.probe(
            EndpointKey(silent.host.ip, 8801), count=2, interval_s=0.1
        )
        testbed.network.simulator.run()
        prober.finalize()
        assert result.lost == 2
        with pytest.raises(MeasurementError):
            result.mean_rtt_ms()
