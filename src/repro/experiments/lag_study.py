"""Streaming-lag study: the protocol behind Figures 2 and 4-11.

The paper's protocol (Section 4.2): deploy seven VMs per region group,
designate one as meeting host, broadcast the blank-screen/periodic-
flash feed for two minutes, collect 35-40 lag samples per participant,
repeat for 20 sessions, and probe each client's discovered service
endpoint 100 times per session.  :func:`run_lag_scenario` executes
exactly that protocol for one (platform, host) pair and returns lags,
RTTs and discovered endpoints for every receiver across all sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.results import LagSessionResult
from ..core.session import SessionConfig
from ..core.testbed import Testbed, TestbedConfig
from ..errors import MeasurementError
from .scale import ExperimentScale, QUICK_SCALE

#: The four scenarios of Figures 4-7: (figure, host VM, region group).
LAG_SCENARIOS = (
    ("fig4", "US-East", "US"),
    ("fig5", "US-West", "US"),
    ("fig6", "UK-West", "Europe"),
    ("fig7", "CH", "Europe"),
)


@dataclass
class LagScenarioResult:
    """Aggregated output of one (platform, host) lag scenario.

    Attributes:
        platform: Platform name.
        host: Meeting host VM name.
        group: Region group of the deployment.
        lags_ms: Receiver -> all matched lag samples across sessions.
        rtts_ms: Receiver -> per-session mean RTTs.
        sessions: Per-session detail records.
    """

    platform: str
    host: str
    group: str
    lags_ms: Dict[str, List[float]] = field(default_factory=dict)
    rtts_ms: Dict[str, List[float]] = field(default_factory=dict)
    sessions: List[LagSessionResult] = field(default_factory=list)

    def median_lag_ms(self, receiver: str) -> float:
        """Median lag of one receiver over all sessions."""
        samples = self.lags_ms.get(receiver, [])
        if not samples:
            raise MeasurementError(f"no lag samples for {receiver}")
        samples = sorted(samples)
        return samples[len(samples) // 2]

    def lag_range_ms(self) -> tuple[float, float]:
        """(min, max) of per-receiver median lags -- the paper's
        "typical streaming lag" bands."""
        medians = [self.median_lag_ms(r) for r in self.lags_ms]
        return min(medians), max(medians)


def run_lag_scenario(
    platform_name: str,
    host: str,
    group: str,
    scale: ExperimentScale = QUICK_SCALE,
    testbed: Optional[Testbed] = None,
) -> LagScenarioResult:
    """Run the Section 4.2 protocol for one platform and host.

    Args:
        platform_name: ``zoom``/``webex``/``meet``.
        host: Host VM name (must belong to ``group``).
        group: ``US`` or ``Europe`` (Table 3 deployment).
        scale: Sessions/durations profile.
        testbed: Reuse an existing deployment (the same testbed keeps
            endpoint stickiness across platforms, like the paper's
            long-lived VMs); a fresh one is built if omitted.
    """
    if testbed is None:
        testbed = Testbed(TestbedConfig(seed=scale.seed))
        testbed.deploy_group(group)
    names = testbed.registry.vm_names(group)
    if host not in names:
        raise MeasurementError(f"host {host!r} is not in group {group!r}")

    result = LagScenarioResult(platform=platform_name, host=host, group=group)
    for session_index in range(scale.sessions):
        config = SessionConfig(
            duration_s=scale.lag_session_duration_s,
            feed="flash",
            pad_fraction=0.0,
            audio=False,
            content_spec=scale.content_spec,
            probes=True,
            probe_count=scale.probe_count,
            probe_interval_s=max(
                0.2, scale.lag_session_duration_s / (scale.probe_count + 1)
            ),
            gop_size=600,  # keyframes must not masquerade as flashes
            session_index=session_index,
            feed_seed=scale.seed + session_index,
        )
        artifacts = testbed.run_session(platform_name, names, host, config)
        session_result = LagSessionResult(
            platform=platform_name, host=host, session_index=session_index
        )
        for receiver in names:
            if receiver == host:
                continue
            measurements = artifacts.lag_measurements(receiver)
            lags = [m.lag_ms for m in measurements]
            session_result.lags_ms[receiver] = lags
            result.lags_ms.setdefault(receiver, []).extend(lags)
            try:
                rtt = artifacts.mean_rtt_ms(receiver)
            except MeasurementError:
                rtt = float("nan")
            session_result.rtts_ms[receiver] = rtt
            result.rtts_ms.setdefault(receiver, []).append(rtt)
        result.sessions.append(session_result)
    return result
