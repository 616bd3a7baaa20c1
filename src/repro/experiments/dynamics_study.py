"""Network-dynamics study: QoE under *changing* conditions, per phase.

The paper holds network conditions fixed within a session (Section 4.4
caps a receiver for a whole run); this study drives the condition
timeline engine instead: a scripted schedule degrades and restores one
receiver's access mid-session, and every metric -- video QoE, download
rate, freeze fraction, shaper drops -- is reported *per timeline
phase*, so adaptation and recovery are visible rather than averaged
away.

Two scenarios ship by default:

* ``ramp`` -- a step-down/step-up bandwidth staircase
  (uncapped -> 1 Mbps -> 250 Kbps -> 1 Mbps -> uncapped),
* ``handover`` -- a WiFi->LTE switch: a fat low-latency access, a
  short near-total outage, then a capped higher-latency regime.

Custom timelines (e.g. deserialized from a campaign axis) run through
the same driver via the ``timeline`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.postprocess import score_recorded_video_by_phase
from ..core.session import SessionConfig
from ..core.testbed import Testbed, TestbedConfig
from ..errors import ConfigurationError, MeasurementError
from ..net.dynamics import (
    ConditionTimeline,
    LinkConditions,
    bandwidth_ramp_timeline,
    handover_timeline,
)
from ..units import kbps, mbps
from .scale import ExperimentScale, QUICK_SCALE

#: The scripted scenarios the study knows by name.
DYNAMICS_SCENARIOS = ("ramp", "handover")


def scenario_timeline(scenario: str, duration_s: float) -> ConditionTimeline:
    """The named scenario's timeline, scaled to one media window."""
    if scenario == "ramp":
        return bandwidth_ramp_timeline(
            caps_bps=(None, mbps(1), kbps(250), mbps(1), None),
            step_s=duration_s / 5.0,
        )
    if scenario == "handover":
        return handover_timeline(
            before_s=duration_s / 2.0,
            after_s=duration_s / 2.0,
            before=LinkConditions(ingress_cap_bps=mbps(30)),
            after=LinkConditions(
                ingress_cap_bps=mbps(2),
                extra_latency_s=0.04,
                extra_jitter_s=0.01,
                loss_rate=0.005,
            ),
            outage_s=min(0.3, duration_s / 20.0),
        )
    raise ConfigurationError(
        f"unknown dynamics scenario {scenario!r}; "
        f"expected one of {DYNAMICS_SCENARIOS} (or pass a timeline)"
    )


@dataclass
class PhaseReport:
    """Aggregated per-phase metrics across a cell's sessions."""

    name: str
    psnr_mean: float
    ssim_mean: float
    download_mbps: float
    freeze_fraction: float
    frames_scored: int
    shaper_dropped: int


@dataclass
class DynamicsCell:
    """One (platform, scenario) cell: ordered per-phase reports."""

    platform: str
    scenario: str
    phases: List[PhaseReport] = field(default_factory=list)
    psnr_mean: float = float("nan")
    ssim_mean: float = float("nan")
    sessions: int = 0

    def phase(self, name: str) -> PhaseReport:
        """Look up one phase's report by name."""
        for report in self.phases:
            if report.name == name:
                return report
        raise MeasurementError(f"no phase named {name!r} in this cell")


def run_dynamics_cell(
    platform_name: str,
    scenario: str,
    scale: ExperimentScale = QUICK_SCALE,
    testbed: Optional[Testbed] = None,
    observed_client: str = "US-East2",
    motion: str = "high",
    timeline: Optional[ConditionTimeline] = None,
) -> DynamicsCell:
    """Run one dynamics cell and aggregate per phase.

    Args:
        platform_name: ``zoom``/``webex``/``meet``.
        scenario: A member of :data:`DYNAMICS_SCENARIOS`, or any label
            when ``timeline`` is given explicitly.
        scale: Sessions/durations profile.
        testbed: Optional shared deployment (three US VMs by default).
        observed_client: The receiver whose access the timeline drives
            and whose recording is scored.
        motion: Host feed class.
        timeline: Override the named scenario with a custom timeline
            (armed relative to the media window as authored).
    """
    if testbed is None:
        testbed = Testbed(TestbedConfig(seed=scale.seed))
        for name in ("US-East", "US-East2", "US-Central"):
            testbed.add_vm(name)
    names = ["US-East", observed_client, "US-Central"]
    host = "US-East"
    duration = scale.qoe_session_duration_s
    if timeline is None:
        timeline = scenario_timeline(scenario, duration)
    else:
        # A custom timeline (e.g. a campaign axis) has a fixed length;
        # stretch the media window to cover it so the plan never
        # outlives the session (SessionConfig rejects that).
        duration = max(
            duration, timeline.start_offset_s + timeline.total_duration_s
        )

    phase_psnr: Dict[str, List[float]] = {}
    phase_ssim: Dict[str, List[float]] = {}
    phase_rate: Dict[str, List[float]] = {}
    phase_freeze: Dict[str, List[float]] = {}
    phase_frames: Dict[str, int] = {}
    phase_drops: Dict[str, int] = {}
    phase_order: List[str] = []
    overall_psnr: List[float] = []
    overall_ssim: List[float] = []

    try:
        for session_index in range(scale.sessions):
            config = SessionConfig(
                duration_s=duration,
                feed=motion,
                pad_fraction=0.15,
                audio=False,
                content_spec=scale.content_spec,
                probes=False,
                record_video=True,
                gop_size=30,
                session_index=session_index,
                feed_seed=scale.seed + session_index,
                timelines={observed_client: timeline},
            )
            artifacts = testbed.run_session(platform_name, names, host, config)
            recorder = artifacts.recorders[observed_client]
            windows = artifacts.phase_windows(observed_client)
            # The whole recording is scored (scale.score_frames does
            # not apply here): a frame cap would truncate the later
            # phases, and per-phase coverage is the point.
            report, phase_qoe = score_recorded_video_by_phase(
                artifacts.padded_feed,
                recorder.frames,
                recorder.timestamps,
                windows,
                compute_vifp=False,
            )
            overall_psnr.append(report.mean_psnr)
            overall_ssim.append(report.mean_ssim)
            rates = artifacts.phase_download_rates_bps(observed_client)
            freezes = artifacts.phase_freeze_fractions(observed_client)
            drops = artifacts.phase_shaper_stats(observed_client)
            for qoe in phase_qoe:
                if qoe.name not in phase_order:
                    phase_order.append(qoe.name)
                phase_psnr.setdefault(qoe.name, []).append(qoe.psnr_mean)
                phase_ssim.setdefault(qoe.name, []).append(qoe.ssim_mean)
                phase_frames[qoe.name] = (
                    phase_frames.get(qoe.name, 0) + qoe.frames
                )
                phase_rate.setdefault(qoe.name, []).append(
                    rates.get(qoe.name, 0.0)
                )
                phase_freeze.setdefault(qoe.name, []).append(
                    freezes.get(qoe.name, float("nan"))
                )
                stats = drops.get(qoe.name)
                phase_drops[qoe.name] = phase_drops.get(qoe.name, 0) + (
                    stats.dropped if stats is not None else 0
                )
    finally:
        # A session that aborts mid-ramp (or mid-outage) leaves its
        # remaining timeline events unexecuted; restore the shared
        # link so later cells on this testbed start unconditioned.
        testbed.clear_conditions(observed_client)

    if not phase_order:
        raise MeasurementError("dynamics cell produced no phases")

    def nanmean(values: Sequence[float]) -> float:
        finite = [v for v in values if np.isfinite(v)]
        return float(np.mean(finite)) if finite else float("nan")

    cell = DynamicsCell(
        platform=platform_name,
        scenario=scenario,
        psnr_mean=nanmean(overall_psnr),
        ssim_mean=nanmean(overall_ssim),
        sessions=scale.sessions,
    )
    for name in phase_order:
        cell.phases.append(
            PhaseReport(
                name=name,
                psnr_mean=nanmean(phase_psnr[name]),
                ssim_mean=nanmean(phase_ssim[name]),
                download_mbps=nanmean(phase_rate[name]) / 1e6,
                freeze_fraction=nanmean(phase_freeze[name]),
                frames_scored=phase_frames[name],
                shaper_dropped=phase_drops[name],
            )
        )
    return cell
