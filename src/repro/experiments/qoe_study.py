"""Video QoE study: the protocol behind Figures 12 and 14-16.

Section 4.3: a designated meeting host broadcasts a low- or high-motion
feed (padded per Fig. 13) to N-1 passive receivers who render it full
screen and desktop-record it; recordings are cropped, resized, aligned
and scored with PSNR/SSIM/VIFp, and Layer-7 data rates are read from
the traces.  The protocol repeats for N in 2..6 and both motion
classes, in the US (host US-east) and in Europe (host CH).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..core.postprocess import align_recorded_video, recording_prefix_frames
from ..core.results import QoeSessionResult
from ..core.session import SessionConfig
from ..core.testbed import Testbed, TestbedConfig
from ..errors import MeasurementError
from ..qoe.vqmt import score_video
from .scale import ExperimentScale, QUICK_SCALE

#: Participant rosters: host first, then joiners in order (Section
#: 4.3.1 mixes US-east and US-west receivers).
US_ROSTER = (
    "US-East",
    "US-West",
    "US-East2",
    "US-West2",
    "US-Central",
    "US-SCentral",
)
EU_ROSTER = ("CH", "FR", "DE", "IE", "UK-South", "NL")


@dataclass
class QoeCell:
    """One (platform, motion, N) cell of Figure 12/16.

    Values are averaged across sessions and receiving clients, with
    standard deviations across sessions (the paper's error bars).
    """

    platform: str
    motion: str
    num_participants: int
    psnr_mean: float
    psnr_std: float
    ssim_mean: float
    ssim_std: float
    vifp_mean: float
    vifp_std: float
    upload_mbps: float
    download_mbps: float
    sessions: List[QoeSessionResult] = field(default_factory=list)


def run_qoe_cell(
    platform_name: str,
    motion: str,
    num_participants: int,
    roster: Sequence[str] = US_ROSTER,
    scale: ExperimentScale = QUICK_SCALE,
    compute_vifp: bool = True,
) -> QoeCell:
    """Run the sessions of one figure cell and aggregate.

    Args:
        platform_name: ``zoom``/``webex``/``meet``.
        motion: ``"low"`` or ``"high"``.
        num_participants: The paper's N (2..6 with the default roster).
        roster: Host-first participant list to draw N clients from.
        scale: Sessions/durations profile.
        compute_vifp: Disable to skip the most expensive metric.
    """
    if num_participants < 2 or num_participants > len(roster):
        raise MeasurementError(
            f"N={num_participants} needs a roster of at least that size"
        )
    testbed = Testbed(TestbedConfig(seed=scale.seed))
    testbed.deploy_group("US" if roster[0].startswith("US") else "Europe")
    names = list(roster[:num_participants])
    host = names[0]

    session_results: List[QoeSessionResult] = []
    for session_index in range(scale.sessions):
        config = SessionConfig(
            duration_s=scale.qoe_session_duration_s,
            feed=motion,
            pad_fraction=0.15,
            audio=False,
            content_spec=scale.content_spec,
            probes=False,
            record_video=True,
            gop_size=30,
            session_index=session_index,
            feed_seed=scale.seed + session_index,
        )
        artifacts = testbed.run_session(platform_name, names, host, config)
        session = QoeSessionResult(
            platform=platform_name,
            num_participants=num_participants,
            motion=motion,
            session_index=session_index,
        )
        # Align every receiver's recording, then score all of them in
        # one batched pass: the per-frame series are independent, so
        # concatenating the aligned stacks yields identical values to
        # scoring each recording on its own.  All receivers replay the
        # same injected feed, so one shared reference window serves
        # every alignment; the alignment reads (and so resamples) only
        # the recording window that can be scored.
        skip_leading, max_shift = 2, 30
        prefix = recording_prefix_frames(
            skip_leading=skip_leading,
            max_shift=max_shift,
            max_frames=scale.score_frames,
        )
        reference = None
        if prefix is not None:
            window = (prefix - skip_leading) + 2 * max_shift
            reference = np.asarray(artifacts.padded_feed.content.frames(window))
        aligned = {
            receiver: align_recorded_video(
                artifacts.padded_feed,
                recorder.frames,
                skip_leading=skip_leading,
                max_shift=max_shift,
                max_frames=scale.score_frames,
                reference=reference,
            )
            for receiver, recorder in artifacts.recorders.items()
        }
        if aligned:
            report = score_video(
                np.concatenate([ref for ref, _rec in aligned.values()]),
                np.concatenate([rec for _ref, rec in aligned.values()]),
                compute_vifp=compute_vifp,
            )
        offset = 0
        for receiver, (_ref, rec) in aligned.items():
            count = len(rec)
            window = slice(offset, offset + count)
            session.psnr[receiver] = float(np.mean(report.psnr_series[window]))
            session.ssim[receiver] = float(np.mean(report.ssim_series[window]))
            if compute_vifp:
                session.vifp[receiver] = float(
                    np.mean(report.vifp_series[window])
                )
            offset += count
        session.rates = artifacts.rate_summary()
        session_results.append(session)

    def stats(metric: str) -> tuple[float, float]:
        per_session = [s.mean_metric(metric) for s in session_results]
        return float(np.mean(per_session)), float(np.std(per_session))

    psnr_mean, psnr_std = stats("psnr")
    ssim_mean, ssim_std = stats("ssim")
    if compute_vifp:
        vifp_mean, vifp_std = stats("vifp")
    else:
        vifp_mean, vifp_std = float("nan"), float("nan")
    uploads = [s.rates.upload_bps for s in session_results]
    downloads = [s.rates.mean_download_bps for s in session_results]

    return QoeCell(
        platform=platform_name,
        motion=motion,
        num_participants=num_participants,
        psnr_mean=psnr_mean,
        psnr_std=psnr_std,
        ssim_mean=ssim_mean,
        ssim_std=ssim_std,
        vifp_mean=vifp_mean,
        vifp_std=vifp_std,
        upload_mbps=float(np.mean(uploads)) / 1e6,
        download_mbps=float(np.mean(downloads)) / 1e6,
        sessions=session_results,
    )
