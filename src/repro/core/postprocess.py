"""Recording post-processing: from desktop capture to QoE scores.

Implements the Section 4.3/4.4 pipeline:

video -- "We first crop out the surrounding padding and resize video
frames to match the content layout and resolution of the injected
videos.  On top of that, we synchronize the start/end time of
original/recorded videos ... by trimming them in a way that per-frame
SSIM similarity is maximized."

audio -- "we normalize audio volume in the recorded audio (with EBU
R128 loudness normalization), and then synchronize the
beginning/ending of the audio in reference to the originally injected
audio ... Finally, we use the ViSQOL tool ... to compute the MOS-LQO
score."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..media.padding import PaddedSource, resize_frames
from ..net.dynamics import PhaseWindow
from ..media.sync import (
    PROBE_FRAMES,
    align_recordings,
    find_audio_offset,
    normalize_loudness,
    trim_to_offset,
)
from ..qoe.visqol import mos_lqo
from ..qoe.vqmt import VideoQualityReport, score_video


def prepare_recorded_frames(
    padded_feed: PaddedSource, recorded: Sequence[np.ndarray]
) -> np.ndarray:
    """Crop the padding and restore the content resolution.

    The whole recording is processed as one ``(T, H, W)`` stack: the
    crop is a single slice and the resize one vectorized pass through
    the cached gather plan.  Returns the prepared frame stack.
    """
    if len(recorded) == 0:
        raise AnalysisError("no recorded frames to prepare")
    try:
        stack = np.asarray(recorded)
    except ValueError as exc:
        raise AnalysisError(f"recorded frames do not stack: {exc}") from exc
    if stack.ndim != 3 or stack.dtype == object:
        raise AnalysisError(
            f"expected equally-shaped recorded frames, got {stack.shape}"
        )
    content_shape = padded_feed.content.spec.shape
    return resize_frames(padded_feed.crop(stack), content_shape)


def recording_prefix_frames(
    skip_leading: int = 2,
    max_shift: int = 30,
    max_frames: int | None = None,
) -> int | None:
    """Recorded frames that can influence a capped scoring run.

    The alignment search probes only the first ``PROBE_FRAMES +
    max_shift`` prepared pairs and the scored window is capped at
    ``max_frames``, so a recording prefix of this length produces
    byte-identical scores; :func:`align_recorded_video` reads only up
    to it, so a lazy :attr:`~repro.clients.recorder.DesktopRecorder.frames`
    view never resamples the rest.  ``None`` (uncapped) means every
    frame matters.
    """
    if max_frames is None:
        return None
    return skip_leading + max_shift + PROBE_FRAMES + max_frames


def align_recorded_video(
    padded_feed: PaddedSource,
    recorded: Sequence[np.ndarray],
    skip_leading: int = 2,
    max_shift: int = 30,
    max_frames: int | None = None,
    reference: np.ndarray | None = None,
    with_offset: bool = False,
):
    """Crop, resize and align a recording against its reference feed.

    Returns equal-length ``(reference, recorded)`` frame stacks ready
    for :func:`repro.qoe.vqmt.score_video` (callers may concatenate
    several recordings into one scoring pass -- the per-frame series
    are independent across frames).

    Args:
        padded_feed: The injected (padded) feed; its content feed is
            the scoring reference.
        recorded: Desktop-recorder frames from a receiving client.
        skip_leading: Recorder frames to drop from the front (black
            frames before the first decode).
        max_shift: Alignment search range in frames.
        max_frames: Cap on returned frames (None keeps everything).
        reference: Optional pre-generated reference window starting at
            ``max(0, skip_leading - max_shift)`` of the content feed
            and covering at least ``prepared + 2 * max_shift`` frames;
            callers scoring several recordings of the same feed pass
            one shared window instead of regenerating it.
        with_offset: Also return the index into ``recorded`` of the
            first aligned frame, so per-frame scores can be mapped back
            to recorder timestamps (phase-segmented QoE needs this).
    """
    # The alignment probes only the first PROBE_FRAMES + max_shift
    # pairs and the scored window is capped, so with a cap, frames past
    # this window can never influence the result.  One slice: a lazy
    # recorder view resamples exactly the frames it hands out.
    stop = recording_prefix_frames(skip_leading, max_shift, max_frames)
    usable = recorded[skip_leading:stop]
    if len(usable) == 0:
        raise AnalysisError("recording too short after skip_leading")
    prepared = prepare_recorded_frames(padded_feed, usable)
    # The recording's k-th kept frame shows feed content from roughly
    # frame ``skip_leading + k`` (recorder and feed tick at the same
    # fps); generate the reference window around that point so the
    # alignment search starts near the truth.
    ref_start = max(0, skip_leading - max_shift)
    window = len(prepared) + 2 * max_shift
    if reference is None:
        reference = np.asarray(padded_feed.content.frames(window, start=ref_start))
    elif len(reference) < window:
        raise AnalysisError(
            f"shared reference window holds {len(reference)} frames, "
            f"need at least {window}"
        )
    else:
        # Trim so results match a self-generated window exactly (the
        # overlap after alignment depends on the reference length).
        reference = np.asarray(reference)[:window]
    shift, ref_aligned, rec_aligned = align_recordings(
        reference, prepared, max_shift=max_shift
    )
    if max_frames is not None:
        ref_aligned = ref_aligned[:max_frames]
        rec_aligned = rec_aligned[:max_frames]
    if with_offset:
        # Aligned frame k came from recorded[first_index + k]: the
        # trim search drops skip_leading frames up front and, for
        # positive shifts, the first ``shift`` prepared frames.
        first_index = skip_leading + max(shift, 0)
        return np.asarray(ref_aligned), np.asarray(rec_aligned), first_index
    return np.asarray(ref_aligned), np.asarray(rec_aligned)


def score_recorded_video(
    padded_feed: PaddedSource,
    recorded: Sequence[np.ndarray],
    skip_leading: int = 2,
    max_shift: int = 30,
    compute_vifp: bool = True,
    max_frames: int | None = None,
) -> VideoQualityReport:
    """Full video pipeline: crop -> resize -> align -> VQMT scoring.

    Args:
        padded_feed: The injected (padded) feed; its content feed is
            the scoring reference.
        recorded: Desktop-recorder frames from a receiving client.
        skip_leading: Recorder frames to drop from the front (black
            frames before the first decode).
        max_shift: Alignment search range in frames.
        compute_vifp: Disable to skip the expensive VIFp series.
        max_frames: Cap on scored frames (None scores everything).
    """
    ref_aligned, rec_aligned = align_recorded_video(
        padded_feed,
        recorded,
        skip_leading=skip_leading,
        max_shift=max_shift,
        max_frames=max_frames,
    )
    return score_video(ref_aligned, rec_aligned, compute_vifp=compute_vifp)


@dataclass
class PhaseQoe:
    """QoE of one timeline phase of a recording.

    Attributes:
        name: Phase name (timeline phase, possibly ``+impulse``).
        frames: Aligned frames scored inside the phase window.
        psnr_mean / ssim_mean / vifp_mean: Phase means (NaN when the
            phase contributed no frames, e.g. a total outage).
    """

    name: str
    frames: int
    psnr_mean: float
    ssim_mean: float
    vifp_mean: float


def segment_series_by_phase(
    series: Sequence[float],
    frame_times: Sequence[float],
    windows: Sequence[PhaseWindow],
) -> Dict[str, Tuple[int, float]]:
    """Mean of a per-frame series within each phase window.

    ``frame_times[k]`` is the recording timestamp of the frame scored
    at ``series[k]``.  Windows sharing a name pool their frames.
    Returns ``name -> (frame_count, mean)`` with NaN means for empty
    phases.
    """
    if len(series) != len(frame_times):
        raise AnalysisError(
            f"series has {len(series)} entries for {len(frame_times)} times"
        )
    values = np.asarray(series, dtype=np.float64)
    times = np.asarray(frame_times, dtype=np.float64)
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for window in windows:
        mask = (times >= window.start_s) & (times < window.end_s)
        sums[window.name] = sums.get(window.name, 0.0) + float(values[mask].sum())
        counts[window.name] = counts.get(window.name, 0) + int(mask.sum())
    return {
        name: (counts[name],
               sums[name] / counts[name] if counts[name] else float("nan"))
        for name in counts
    }


def score_recorded_video_by_phase(
    padded_feed: PaddedSource,
    recorded: Sequence[np.ndarray],
    timestamps: Sequence[float],
    windows: Sequence[PhaseWindow],
    skip_leading: int = 2,
    max_shift: int = 30,
    compute_vifp: bool = False,
    max_frames: int | None = None,
) -> Tuple[VideoQualityReport, List[PhaseQoe]]:
    """Score a recording once, then segment the series by phase.

    The recording is cropped/resized/aligned and scored in a single
    batched pass (identical numbers to :func:`score_recorded_video`);
    the per-frame series are then attributed to timeline phases via the
    recorder timestamps of the aligned frames.  Returns the overall
    report plus one :class:`PhaseQoe` per phase, in window order.
    """
    if len(recorded) != len(timestamps):
        raise AnalysisError(
            f"{len(recorded)} recorded frames but {len(timestamps)} timestamps"
        )
    ref_aligned, rec_aligned, first_index = align_recorded_video(
        padded_feed,
        recorded,
        skip_leading=skip_leading,
        max_shift=max_shift,
        max_frames=max_frames,
        with_offset=True,
    )
    report = score_video(ref_aligned, rec_aligned, compute_vifp=compute_vifp)
    frame_times = np.asarray(timestamps)[
        first_index : first_index + len(rec_aligned)
    ]
    psnr_by = segment_series_by_phase(report.psnr_series, frame_times, windows)
    ssim_by = segment_series_by_phase(report.ssim_series, frame_times, windows)
    vifp_by = (
        segment_series_by_phase(report.vifp_series, frame_times, windows)
        if compute_vifp
        else {name: (count, float("nan")) for name, (count, _) in psnr_by.items()}
    )
    seen: set = set()
    phases: List[PhaseQoe] = []
    for window in windows:
        if window.name in seen:
            continue
        seen.add(window.name)
        count, psnr_mean = psnr_by[window.name]
        phases.append(
            PhaseQoe(
                name=window.name,
                frames=count,
                psnr_mean=psnr_mean,
                ssim_mean=ssim_by[window.name][1],
                vifp_mean=vifp_by[window.name][1],
            )
        )
    return report, phases


def score_recorded_audio(
    reference: np.ndarray,
    recorded: np.ndarray,
    sample_rate: int = 16_000,
    max_offset_s: float = 2.0,
) -> float:
    """Full audio pipeline: normalise -> offset-align -> MOS-LQO."""
    if len(reference) == 0 or len(recorded) == 0:
        raise AnalysisError("cannot score empty audio")
    recorded_norm = normalize_loudness(recorded, sample_rate=sample_rate)
    reference_norm = normalize_loudness(reference, sample_rate=sample_rate)
    offset = find_audio_offset(
        reference_norm,
        recorded_norm,
        max_offset=int(max_offset_s * sample_rate),
    )
    ref_aligned, rec_aligned = trim_to_offset(reference_norm, recorded_norm, offset)
    return mos_lqo(ref_aligned, rec_aligned, sample_rate=sample_rate)
