"""Bandwidth-constraint study: Figures 17 and 18.

Section 4.4: ingress caps of 250 Kbps / 500 Kbps / 1 Mbps / unlimited
are applied to a receiving VM with tc/ifb while the host streams the
padded feed with audio; video QoE is scored per Fig. 17 and audio is
normalised, offset-aligned and scored as MOS-LQO per Fig. 18 (speech
mode on the low-motion sessions, which contain only human voice).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..core.postprocess import score_recorded_audio, score_recorded_video
from ..core.session import SessionConfig
from ..core.testbed import Testbed, TestbedConfig
from ..errors import MeasurementError
from ..net.dynamics import ConditionTimeline, constant_timeline
from ..net.link import default_cap_burst
from ..units import kbps, mbps
from .scale import ExperimentScale, QUICK_SCALE

#: The download rate limits of Figures 17-18 (None = "Infinite").
RATE_LIMITS = (kbps(250), kbps(500), mbps(1), None)


def static_cap_timeline(
    limit_bps: Optional[float], config: SessionConfig
) -> ConditionTimeline:
    """The Section 4.4 fixed cap as a degenerate one-phase timeline.

    One phase spanning the whole session -- armed at the start of
    settle (the tc filter is installed before the meeting begins) and
    held through the grace drain -- reproduces the static
    ``set_ingress_cap`` setup bit-for-bit while running through the
    dynamics engine like any scripted scenario.
    """
    return constant_timeline(
        duration_s=config.settle_s + config.duration_s + config.grace_s,
        name=limit_label(limit_bps),
        start_offset_s=-config.settle_s,
        ingress_cap_bps=limit_bps,
        cap_burst_bytes=default_cap_burst(limit_bps),
    )


def limit_label(limit_bps: Optional[float]) -> str:
    """The paper's x-axis labels for the rate limits."""
    if limit_bps is None:
        return "Infinite"
    if limit_bps >= 1e6:
        return f"{limit_bps / 1e6:.0f}Mbps"
    return f"{limit_bps / 1e3:.0f}Kbps"


@dataclass
class BandwidthCell:
    """One (platform, motion, limit) cell of Figures 17-18."""

    platform: str
    motion: str
    limit_bps: Optional[float]
    psnr_mean: float
    ssim_mean: float
    vifp_mean: float
    mos_lqo_mean: float
    download_mbps: float
    frames_frozen: int


def run_bandwidth_cell(
    platform_name: str,
    motion: str,
    limit_bps: Optional[float],
    scale: ExperimentScale = QUICK_SCALE,
    testbed: Optional[Testbed] = None,
    capped_client: str = "US-East2",
    compute_vifp: bool = True,
) -> BandwidthCell:
    """Run the capped sessions of one cell and aggregate."""
    if testbed is None:
        testbed = Testbed(TestbedConfig(seed=scale.seed))
        for name in ("US-East", "US-East2", "US-Central"):
            testbed.add_vm(name)
    names = ["US-East", capped_client, "US-Central"]
    host = "US-East"
    # Steady state matters here: adaptation takes a few feedback
    # rounds, so score the back half of the recording.
    duration = max(scale.qoe_session_duration_s, 16.0)
    skip = int(duration * 0.5 * scale.content_spec.fps)

    psnrs: List[float] = []
    ssims: List[float] = []
    vifps: List[float] = []
    moses: List[float] = []
    downloads: List[float] = []
    frozen_total = 0
    try:
        for session_index in range(scale.sessions):
            config = SessionConfig(
                duration_s=duration,
                feed=motion,
                pad_fraction=0.15,
                audio=True,
                content_spec=scale.content_spec,
                probes=False,
                record_video=True,
                record_audio=True,
                gop_size=30,
                session_index=session_index,
                feed_seed=scale.seed + session_index,
            )
            # The fixed cap rides the dynamics engine as a one-phase
            # timeline covering settle through grace; the engine
            # restores the uncapped link when the session's plan ends.
            # replace() re-runs SessionConfig validation with the
            # timeline in place.
            config = replace(
                config,
                timelines={
                    capped_client: static_cap_timeline(limit_bps, config)
                },
            )
            artifacts = testbed.run_session(platform_name, names, host, config)
            recorder = artifacts.recorders[capped_client]
            report = score_recorded_video(
                artifacts.padded_feed,
                recorder.frames,
                skip_leading=skip,
                compute_vifp=compute_vifp,
                max_frames=scale.score_frames,
            )
            psnrs.append(report.mean_psnr)
            ssims.append(report.mean_ssim)
            if compute_vifp:
                vifps.append(report.mean_vifp)
            flow = artifacts.wiring.audio_flow(host)
            reference = artifacts.audio_source.read_duration(0, duration)
            recorded = artifacts.recorded_audio(capped_client, flow)
            moses.append(score_recorded_audio(reference, recorded))
            downloads.append(artifacts.download_rate_bps(capped_client))
            frozen_total += artifacts.host_video_decoder(
                capped_client
            ).frames_frozen
    finally:
        # A session that aborts mid-run leaves its timeline partially
        # executed; restore the shared link so later cells on this
        # testbed start unconditioned (the old static path's finally).
        testbed.clear_conditions(capped_client)

    if not psnrs:
        raise MeasurementError("bandwidth cell produced no sessions")
    return BandwidthCell(
        platform=platform_name,
        motion=motion,
        limit_bps=limit_bps,
        psnr_mean=float(np.mean(psnrs)),
        ssim_mean=float(np.mean(ssims)),
        vifp_mean=float(np.mean(vifps)) if vifps else float("nan"),
        mos_lqo_mean=float(np.mean(moses)),
        download_mbps=float(np.mean(downloads)) / 1e6,
        frames_frozen=frozen_total,
    )
