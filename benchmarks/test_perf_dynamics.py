"""Timeline event overhead: dynamic vs static session cost.

A condition timeline adds a handful of boundary events (one per
compiled phase window plus a restore) to sessions that execute tens of
thousands of packet events, so the *scheduling* overhead of the
dynamics engine must be noise.  This benchmark runs the same session
twice -- static links vs a busy 8-phase timeline whose conditions are
all neutral, so both runs do identical media work -- and checks, all
exactly:

* the timeline adds exactly one simulator event per phase plus the
  final restore, well under 5% of the session's event count,
* both runs send the same packets, and
* both runs fuse the same packets: only a packet in flight across a
  boundary may leave the fast lane, and at this scale none is, so a
  timeline check that un-fuses even one packet fails here.

Run with ``pytest benchmarks/test_perf_dynamics.py``.
"""

from __future__ import annotations

from repro.core.session import SessionConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.net.dynamics import ConditionPhase, ConditionTimeline, LinkConditions
from repro.net.routing import Network

CLIENTS = ("US-East", "US-East2", "US-Central")

#: Phases in the busy timeline (every boundary is a simulator event).
PHASES = 8

#: The acceptance bound on added events (fraction of session events).
MAX_EVENT_OVERHEAD = 0.05


def _run_session(timeline: ConditionTimeline | None, scale) -> Network:
    testbed = Testbed(TestbedConfig(seed=scale.seed))
    for name in CLIENTS:
        testbed.add_vm(name)
    config = SessionConfig(
        duration_s=scale.qoe_session_duration_s,
        feed="high",
        pad_fraction=0.15,
        content_spec=scale.content_spec,
        probes=False,
        record_video=True,
        session_index=0,
        feed_seed=scale.seed,
        timelines=None if timeline is None else {"US-East2": timeline},
    )
    testbed.run_session("zoom", list(CLIENTS), "US-East", config)
    return testbed.network


def _packets_sent(network: Network) -> int:
    return sum(host.packets_sent for host in network.hosts())


def _neutral_timeline(duration_s: float) -> ConditionTimeline:
    return ConditionTimeline(
        phases=tuple(
            ConditionPhase(f"p{i}", duration_s / PHASES, LinkConditions())
            for i in range(PHASES)
        )
    )


def test_static_session(benchmark, scale):
    from .conftest import run_once

    network = run_once(benchmark, _run_session, None, scale)
    assert network.simulator.events_processed > 1000


def test_dynamic_session(benchmark, scale):
    from .conftest import run_once

    timeline = _neutral_timeline(scale.qoe_session_duration_s)
    network = run_once(benchmark, _run_session, timeline, scale)
    assert network.simulator.events_processed > 1000


def test_timeline_event_overhead_under_5_percent(scale):
    """The timeline overhead bounds, all exact counts."""
    timeline = _neutral_timeline(scale.qoe_session_duration_s)
    static = _run_session(None, scale)
    dynamic = _run_session(timeline, scale)
    static_events = static.simulator.events_processed
    added = dynamic.simulator.events_processed - static_events
    # The timeline contributes one event per phase boundary plus the
    # final restore.  A packet whose flight window overlaps a
    # registered boundary would travel the un-fused slow path (that is
    # what keeps dynamics sessions bit-identical with the fast lane
    # on) and add one more event, but at this scale no packet is in
    # flight across any boundary: the counts are exact.
    assert added == PHASES + 1
    assert added / static_events < MAX_EVENT_OVERHEAD
    # Neutral phases change no condition, so both runs send and fuse
    # the same packets: a per-packet timeline check that un-fuses
    # packets fails here.
    assert _packets_sent(dynamic) == _packets_sent(static)
    assert dynamic.fast_lane_fused == static.fast_lane_fused
