"""Meeting-session orchestration: one controlled, instrumented session.

A :class:`MeetingSession` takes a platform, a set of clients and a
:class:`SessionConfig` describing the scenario, and drives the whole
thing on the simulator: staggered joins, media feeds into loopback
devices, streamers, receivers with feedback, desktop recorders,
endpoint discovery and RTT probes, then collects everything into a
:class:`SessionArtifacts` bundle the experiments post-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..clients.client import BaseClient, MEDIA_PORT
from ..clients.recorder import DesktopRecorder
from ..clients.streamer import AudioStreamer, ModelVideoStreamer, VideoStreamer
from ..errors import ConfigurationError, MeasurementError, SessionError
from ..media.audio import SpeechLikeSource
from ..media.audio_codec import AudioCodecConfig
from ..media.feeds import FlashFeed, HighMotionFeed, LowMotionFeed, StaticFeed
from ..media.frames import CachedFrames, FrameSource, FrameSpec
from ..media.padding import PaddedSource, padded_spec
from ..media.video_codec import VideoCodecConfig
from ..net.capture import Capture, Direction
from ..net.dynamics import (
    ConditionTimeline,
    PhaseWindow,
    arm_timeline,
    resolve_arm_start,
)
from ..net.packet import PacketKind
from ..net.shaper import ShaperStats
from ..platforms.base import (
    ClientBinding,
    PlatformModel,
    SessionWiring,
    StreamLayer,
)
from ..platforms.ratecontrol import RateContext
from .lag import LagMeasurement, measure_streaming_lag
from .probing import Prober
from .results import RateSummary

#: Media packet kinds, used when computing L7 data rates.
MEDIA_KINDS = (PacketKind.MEDIA_VIDEO, PacketKind.MEDIA_AUDIO)


@dataclass
class SessionConfig:
    """Scenario description for one session.

    Attributes:
        duration_s: Length of the media-streaming phase.
        settle_s: Time allotted for joins/workflows before media.
        grace_s: Extra simulated time after media stops (drains relays).
        feed: Host feed type: ``"low"``, ``"high"``, ``"flash"``,
            ``"static"`` or ``None`` (no video).
        content_spec: Geometry of the *content* (pre-padding) feed.
        pad_fraction: Fig. 13 padding around QoE feeds (0 disables).
        audio: Whether the host streams audio.
        use_codec: Real codec (True) or size-modelled traffic (False).
        record_video: Receivers decode + desktop-record the host video.
        record_audio: Receivers decode the host audio for MOS scoring.
        probes: Run endpoint discovery + RTT probing.
        probe_count / probe_interval_s: The tcpping loop parameters.
        device_profile: Rate-context device class for the session.
        session_index: Index within an experiment (drives per-session
            platform randomness).
        feed_seed: Seed for the synthetic feeds.
        gop_size: Codec keyframe spacing.
        flash_period_s: Flash cadence for lag feeds.
        timelines: Optional per-client condition timelines (client name
            -> :class:`~repro.net.dynamics.ConditionTimeline`).  Each is
            armed relative to the media-window start and mutates that
            client's access link as the session runs; ``None`` (or an
            empty mapping) keeps every link static.
    """

    duration_s: float = 30.0
    settle_s: float = 2.0
    grace_s: float = 2.0
    feed: Optional[str] = "low"
    content_spec: FrameSpec = field(default_factory=lambda: FrameSpec(192, 144, 15))
    pad_fraction: float = 0.15
    audio: bool = False
    use_codec: bool = True
    record_video: bool = False
    record_audio: bool = False
    probes: bool = True
    probe_count: int = 30
    probe_interval_s: float = 0.5
    device_profile: str = "vm"
    session_index: int = 0
    feed_seed: int = 0
    gop_size: int = 30
    flash_period_s: float = 2.0
    normalize_wire_rates: Optional[bool] = None
    timelines: Optional[Dict[str, ConditionTimeline]] = None

    @property
    def wire_normalized(self) -> bool:
        """Whether packet sizes are scaled to paper-absolute rates.

        Defaults to on for content feeds (so captures report Mbps
        comparable to Figures 15/19) and off for the flash feed, whose
        lag detector depends on raw blank-frame packet sizes.
        """
        if self.normalize_wire_rates is not None:
            return self.normalize_wire_rates
        return self.feed not in (None, "flash")

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise SessionError("duration_s must be positive")
        if self.settle_s < 0:
            raise SessionError(f"settle_s must be >= 0, got {self.settle_s}")
        if self.grace_s < 0:
            raise SessionError(f"grace_s must be >= 0, got {self.grace_s}")
        if self.probe_interval_s < 0:
            raise SessionError(
                f"probe_interval_s must be >= 0, got {self.probe_interval_s}"
            )
        if self.probe_count <= 0:
            raise SessionError(
                f"probe_count must be positive, got {self.probe_count}"
            )
        if self.feed not in (None, "low", "high", "flash", "static"):
            raise SessionError(f"unknown feed type: {self.feed!r}")
        for client_name, timeline in (self.timelines or {}).items():
            if not isinstance(timeline, ConditionTimeline):
                raise SessionError(
                    f"timeline for {client_name!r} must be a "
                    f"ConditionTimeline, got {type(timeline).__name__}"
                )
            if timeline.start_offset_s < -self.settle_s:
                raise SessionError(
                    f"timeline for {client_name!r} starts "
                    f"{timeline.start_offset_s}s before the media window, "
                    f"beyond the {self.settle_s}s settle period"
                )
            # A plan outliving the session would leave its boundary
            # events queued on the (shared) simulator, to fire during
            # whatever session runs next on the same testbed.  The
            # tolerance absorbs one-ulp rounding of offset arithmetic
            # (a plan spanning settle+media+grace exactly can overshoot
            # the sum by rounding for non-dyadic durations).
            end_offset = timeline.start_offset_s + timeline.total_duration_s
            limit = self.duration_s + self.grace_s
            if end_offset > limit + 1e-9 * max(1.0, abs(limit)):
                raise SessionError(
                    f"timeline for {client_name!r} runs {end_offset}s past "
                    f"the media-window start, beyond the session's "
                    f"{self.duration_s}s media + {self.grace_s}s grace"
                )

    @property
    def motion(self) -> str:
        """Rate-context motion class implied by the feed."""
        return "high" if self.feed == "high" else "low"


def make_feed(config: SessionConfig) -> Optional[FrameSource]:
    """Instantiate the host's content feed for a config."""
    spec = config.content_spec
    seed = config.feed_seed
    if config.feed is None:
        return None
    if config.feed == "low":
        return LowMotionFeed(spec, seed=seed)
    if config.feed == "high":
        return HighMotionFeed(spec, seed=seed)
    if config.feed == "static":
        return StaticFeed(spec, seed=seed)
    return FlashFeed(spec, seed=seed, period_s=config.flash_period_s)


@dataclass
class SessionArtifacts:
    """Everything collected from one session run."""

    config: SessionConfig
    wiring: SessionWiring
    host_name: str
    clients: Dict[str, BaseClient]
    captures: Dict[str, Capture]
    recorders: Dict[str, DesktopRecorder] = field(default_factory=dict)
    probers: Dict[str, Prober] = field(default_factory=dict)
    streamers: Dict[str, object] = field(default_factory=dict)
    padded_feed: Optional[PaddedSource] = None
    content_feed: Optional[FrameSource] = None
    audio_source: Optional[SpeechLikeSource] = None
    media_window: tuple[float, float] = (0.0, 0.0)
    condition_phases: Dict[str, List[PhaseWindow]] = field(default_factory=dict)
    shaper_phase_stats: Dict[str, Dict[str, "ShaperStats"]] = field(
        default_factory=dict
    )
    video_decoders: Dict[str, Dict[str, object]] = field(default_factory=dict)
    audio_decoders: Dict[str, Dict[str, object]] = field(default_factory=dict)
    audio_frame_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def recorded_audio(self, client_name: str, flow_id: str):
        """Assembled (concealed) waveform a client decoded for a flow."""
        decoder = self.audio_decoders.get(client_name, {}).get(flow_id)
        if decoder is None:
            raise MeasurementError(
                f"{client_name} did not decode audio flow {flow_id!r}"
            )
        expected = self.audio_frame_counts.get(client_name, {}).get(flow_id, 0)
        return decoder.waveform(expected if expected > 0 else None)

    def host_video_decoder(self, client_name: str):
        """A receiver's decoder of the host's HIGH video flow."""
        flow = self.wiring.video_flow(self.host_name, StreamLayer.HIGH)
        decoder = self.video_decoders.get(client_name, {}).get(flow)
        if decoder is None:
            raise MeasurementError(
                f"{client_name} did not decode the host video"
            )
        return decoder

    # ------------------------------------------------------------- #
    # Lag.
    # ------------------------------------------------------------- #

    def lag_measurements(self, receiver: str) -> List[LagMeasurement]:
        """Matched flash lags between the host and one receiver."""
        return measure_streaming_lag(
            self.captures[self.host_name], self.captures[receiver]
        )

    # ------------------------------------------------------------- #
    # Traffic.
    # ------------------------------------------------------------- #

    def _media_rate(self, capture: Capture, direction: Direction) -> float:
        start, end = self.media_window
        timestamps, payloads, _, _ = capture._columns()
        mask = capture._select(direction, MEDIA_KINDS)
        mask &= (timestamps >= start) & (timestamps <= end)
        if not mask.any():
            raise MeasurementError("no media packets in the rate window")
        total = int(payloads[mask].sum())
        return total * 8.0 / (end - start)

    def rate_summary(self) -> RateSummary:
        """Host upload and per-receiver download L7 rates (Fig. 15)."""
        upload = self._media_rate(self.captures[self.host_name], Direction.OUT)
        downloads = {}
        for name, capture in self.captures.items():
            if name == self.host_name:
                continue
            downloads[name] = self._media_rate(capture, Direction.IN)
        return RateSummary(upload_bps=upload, download_bps_by_client=downloads)

    def download_rate_bps(self, client_name: str) -> float:
        """One client's media download rate."""
        return self._media_rate(self.captures[client_name], Direction.IN)

    # ------------------------------------------------------------- #
    # Per-phase segmentation (condition timelines).
    # ------------------------------------------------------------- #

    def phase_windows(self, client_name: str) -> List[PhaseWindow]:
        """A client's timeline windows clipped to the media window.

        Raises :class:`~repro.errors.MeasurementError` when the session
        armed no timeline for the client.
        """
        windows = self.condition_phases.get(client_name)
        if not windows:
            raise MeasurementError(
                f"{client_name} had no condition timeline in this session"
            )
        start, end = self.media_window
        clipped = [w.clipped(start, end) for w in windows]
        return [w for w in clipped if w is not None]

    def phase_download_rates_bps(self, client_name: str) -> Dict[str, float]:
        """Media download rate per timeline phase (phase name -> bps).

        Windows sharing a name (a phase re-entered around an impulse)
        pool their bytes and durations; a phase entirely starved of
        packets reports 0 rather than raising, because "the cap choked
        the stream to nothing" is a result, not a measurement failure.
        """
        capture = self.captures[client_name]
        totals: Dict[str, float] = {}
        durations: Dict[str, float] = {}
        for window in self.phase_windows(client_name):
            payload = capture.payload_bytes_between(
                Direction.IN, window.start_s, window.end_s, kinds=MEDIA_KINDS
            )
            totals[window.name] = totals.get(window.name, 0.0) + payload
            durations[window.name] = (
                durations.get(window.name, 0.0) + window.duration_s
            )
        return {
            name: totals[name] * 8.0 / durations[name]
            for name in totals
        }

    def phase_freeze_fractions(self, client_name: str) -> Dict[str, float]:
        """Fraction of recorder ticks showing a frozen frame, per phase.

        The freeze fraction is the per-phase mean of the recorder's
        boolean stale-flag series, so it shares the segmentation rules
        (right-open windows, name pooling, NaN for empty phases) with
        the per-phase QoE pipeline.
        """
        from .postprocess import segment_series_by_phase

        recorder = self.recorders.get(client_name)
        if recorder is None:
            raise MeasurementError(f"{client_name} recorded no video")
        segmented = segment_series_by_phase(
            np.asarray(recorder.stale_flags, dtype=np.float64),
            recorder.timestamps,
            self.phase_windows(client_name),
        )
        return {name: mean for name, (_count, mean) in segmented.items()}

    def phase_shaper_stats(self, client_name: str) -> Dict[str, ShaperStats]:
        """Ingress-shaper counters by phase, scoped to *this* session.

        Snapshotted (as deltas against the pre-session counters) when
        the session ends, so artifacts stay stable and per-session even
        though the underlying link -- and its lifetime counters -- are
        shared across every session run on the testbed.
        """
        stats = self.shaper_phase_stats.get(client_name)
        if stats is None:
            raise MeasurementError(
                f"{client_name} had no condition timeline in this session"
            )
        return stats

    # ------------------------------------------------------------- #
    # Probing / endpoints.
    # ------------------------------------------------------------- #

    def mean_rtt_ms(self, client_name: str) -> float:
        """Mean probed RTT from one client to its endpoint(s)."""
        prober = self.probers.get(client_name)
        if prober is None:
            raise MeasurementError(f"{client_name} ran no probes")
        results = [r for r in prober.results() if r.received > 0]
        if not results:
            raise MeasurementError(f"{client_name}: no probe replies")
        return float(np.mean([r.mean_rtt_ms() for r in results]))

    def discovered_endpoints(self, client_name: str):
        """Endpoints a client's monitor discovered in its capture."""
        return self.captures[client_name].remote_endpoints(media_only=True)


class MeetingSession:
    """Runs one session end to end on the simulator."""

    def __init__(
        self,
        platform: PlatformModel,
        clients: List[BaseClient],
        host_name: str,
        config: SessionConfig,
        extra_sender_names: Optional[List[str]] = None,
    ) -> None:
        if len(clients) < 2:
            raise SessionError("a session needs at least two clients")
        self.platform = platform
        self.clients = {c.name: c for c in clients}
        if host_name not in self.clients:
            raise SessionError(f"host {host_name!r} not among clients")
        self.host_name = host_name
        self.config = config
        self.extra_sender_names = list(extra_sender_names or [])
        self.network = clients[0].host.network

    # ------------------------------------------------------------- #

    def run(self) -> SessionArtifacts:
        """Execute the session and return its artifacts."""
        config = self.config
        simulator = self.network.simulator
        start_time = simulator.now

        # Validate timelines before any side effect: a failure past
        # this point would leave capture/join/media events queued on
        # the shared simulator, to corrupt the next session run on it.
        self._validate_timelines(start_time + config.settle_s)

        context = RateContext(
            num_participants=len(self.clients),
            motion=config.motion,
            device=config.device_profile,
            session_index=config.session_index,
        )
        bindings = [
            ClientBinding(c.name, c.host, MEDIA_PORT)
            for c in self.clients.values()
        ]
        views = {name: c.view for name, c in self.clients.items()}
        wiring = self.platform.create_session(
            bindings, self.host_name, context, views
        )

        captures = {
            name: client.start_capture()
            for name, client in self.clients.items()
        }

        # Staggered joins within the settle window.
        for index, client in enumerate(self.clients.values()):
            simulator.schedule(0.05 + 0.1 * index, client.join, wiring)

        artifacts = SessionArtifacts(
            config=config,
            wiring=wiring,
            host_name=self.host_name,
            clients=dict(self.clients),
            captures=captures,
        )

        self._setup_media(wiring, context, artifacts)
        self._setup_receivers(wiring, artifacts)
        if config.probes:
            self._setup_probing(wiring, artifacts)

        media_start = start_time + config.settle_s
        artifacts.media_window = (media_start, media_start + config.duration_s)
        self._arm_timelines(artifacts, media_start)
        until = start_time + config.settle_s + config.duration_s + config.grace_s
        # Timeline plans may overshoot the natural window by rounding
        # ulps; stretch the run so every restore event fires in-session
        # rather than lingering into the next run on this simulator.
        for windows in artifacts.condition_phases.values():
            until = max(until, windows[-1].end_s)
        simulator.run(until=until)

        self._snapshot_shaper_stats(artifacts)
        for client in self.clients.values():
            client.host.stop_captures()
            client.receiver.stop_feedback_loop()
        for prober in artifacts.probers.values():
            prober.finalize()
        wiring.close()
        for name, client in self.clients.items():
            video, audio, counts = client.receiver.snapshot()
            artifacts.video_decoders[name] = video
            artifacts.audio_decoders[name] = audio
            artifacts.audio_frame_counts[name] = counts
            client.leave()
        return artifacts

    # ------------------------------------------------------------- #
    # Network dynamics.
    # ------------------------------------------------------------- #

    def _validate_timelines(self, media_start: float) -> None:
        """Reject bad timeline wiring before the session schedules events."""
        for client_name, timeline in (self.config.timelines or {}).items():
            if client_name not in self.clients:
                raise SessionError(
                    f"timeline targets {client_name!r}, not in this session"
                )
            try:
                resolve_arm_start(
                    self.network.simulator.now, media_start, timeline
                )
            except ConfigurationError as exc:
                raise SessionError(str(exc)) from exc

    def _arm_timelines(
        self, artifacts: SessionArtifacts, media_start: float
    ) -> None:
        """Schedule every configured condition timeline on the simulator.

        Timelines are armed relative to the media window (negative
        offsets reach back into settle, e.g. a cap that must hold while
        clients join); the compiled windows are recorded on the
        artifacts so analyses can segment captures/recordings by phase.
        """
        self._shaper_baselines: Dict[str, Dict[str, ShaperStats]] = {}
        for client_name, timeline in (self.config.timelines or {}).items():
            client = self.clients[client_name]
            artifacts.condition_phases[client_name] = arm_timeline(
                self.network.simulator,
                client.host.link,
                timeline,
                media_start,
            )
            # The link (and its lifetime shaper counters) outlives this
            # session; remember where the counters stand so the session
            # can report its own per-phase deltas.
            self._shaper_baselines[client_name] = (
                client.host.link.shaper_phase_stats()
            )

    def _snapshot_shaper_stats(self, artifacts: SessionArtifacts) -> None:
        """Freeze this session's per-phase shaper deltas into artifacts."""
        for client_name, baseline in self._shaper_baselines.items():
            current = self.clients[client_name].host.link.shaper_phase_stats()
            deltas = {
                name: ShaperStats.delta(stats, baseline.get(name))
                for name, stats in current.items()
            }
            artifacts.shaper_phase_stats[client_name] = {
                name: stats
                for name, stats in deltas.items()
                if stats != ShaperStats()
            }

    # ------------------------------------------------------------- #
    # Media plumbing.
    # ------------------------------------------------------------- #

    def _camera_spec(self) -> FrameSpec:
        """The host camera's geometry, without building its feed."""
        spec = self.config.content_spec
        if self.config.pad_fraction > 0 and self.config.feed not in (None, "flash"):
            return padded_spec(spec, self.config.pad_fraction)
        return spec

    def _setup_media(
        self,
        wiring: SessionWiring,
        context: RateContext,
        artifacts: SessionArtifacts,
    ) -> None:
        config = self.config
        host_client = self.clients[self.host_name]

        if config.feed is not None:
            # The camera ticks and the post-session QoE reference both
            # draw the same deterministic frames; memoise them.
            content = CachedFrames(make_feed(config))
            artifacts.content_feed = content
            if config.pad_fraction > 0 and config.feed != "flash":
                padded = PaddedSource(content, config.pad_fraction)
                artifacts.padded_feed = padded
                host_client.attach_camera(padded)
                camera_spec = padded.spec
            else:
                host_client.attach_camera(content)
                camera_spec = content.spec
            self._start_video_streamer(
                host_client, wiring, context, camera_spec, artifacts
            )

        if config.audio:
            source = SpeechLikeSource(seed=config.feed_seed)
            artifacts.audio_source = source
            host_client.attach_microphone(source)
            audio = AudioStreamer(
                host_client,
                wiring,
                AudioCodecConfig(
                    bitrate_bps=self.platform.audio_bps,
                    concealment=self.platform.audio_concealment,
                ),
            )
            audio.start(config.duration_s, start_delay_s=config.settle_s)
            artifacts.streamers[self.host_name + ":audio"] = audio

        # Additional senders (e.g. phones with cameras on, or the
        # extra high-motion VMs of Table 4).
        for name in self.extra_sender_names:
            client = self.clients[name]
            if client.camera is None:
                client.attach_camera(
                    LowMotionFeed(config.content_spec, seed=config.feed_seed + 97)
                )
            self._start_video_streamer(
                client, wiring, context, client.camera.spec, artifacts
            )

    def _start_video_streamer(
        self,
        client: BaseClient,
        wiring: SessionWiring,
        context: RateContext,
        camera_spec: FrameSpec,
        artifacts: SessionArtifacts,
    ) -> None:
        config = self.config
        if config.use_codec:
            streamer = VideoStreamer(
                client,
                wiring,
                self.platform,
                context,
                camera_spec,
                codec_config=VideoCodecConfig(gop_size=config.gop_size),
                normalize_wire_rate=config.wire_normalized,
            )
        else:
            streamer = ModelVideoStreamer(
                client,
                wiring,
                self.platform,
                context,
                camera_spec,
                rng=self.network.rng,
                gop=config.gop_size,
            )
        streamer.start(config.duration_s, start_delay_s=config.settle_s)
        artifacts.streamers[client.name + ":video"] = streamer

    # ------------------------------------------------------------- #
    # Receive-side plumbing.
    # ------------------------------------------------------------- #

    def _setup_receivers(
        self, wiring: SessionWiring, artifacts: SessionArtifacts
    ) -> None:
        config = self.config
        simulator = self.network.simulator
        camera_spec = self._camera_spec() if config.feed is not None else None
        high_flow = (
            wiring.video_flow(self.host_name, StreamLayer.HIGH)
            if config.feed is not None
            else None
        )
        audio_flow = wiring.audio_flow(self.host_name) if config.audio else None

        for name, client in self.clients.items():
            if name == self.host_name:
                continue
            simulator.schedule(
                config.settle_s, client.receiver.start_feedback_loop
            )
            subscribed = wiring.subscriptions.get(name, {})
            watches_host = StreamLayer.HIGH in subscribed.get(self.host_name, [])
            if config.record_video and watches_host and high_flow is not None:
                recorder = DesktopRecorder(
                    client,
                    camera_spec,
                    pad_fraction=config.pad_fraction,
                )
                decoder = client.receiver.watch_video(high_flow, camera_spec)
                recorder.start(
                    decoder,
                    config.duration_s,
                    start_delay_s=config.settle_s + 0.2,
                )
                artifacts.recorders[name] = recorder
            elif watches_host and high_flow is not None and config.use_codec:
                # Decode without recording so freeze statistics exist;
                # nobody renders this flow, so skip reconstruction.
                client.receiver.watch_video(
                    high_flow, camera_spec, pixels=False
                )
            if config.record_audio and audio_flow is not None:
                client.receiver.listen_audio(
                    audio_flow,
                    AudioCodecConfig(
                        bitrate_bps=self.platform.audio_bps,
                        concealment=self.platform.audio_concealment,
                    ),
                )

    # ------------------------------------------------------------- #
    # Probing.
    # ------------------------------------------------------------- #

    def _setup_probing(
        self, wiring: SessionWiring, artifacts: SessionArtifacts
    ) -> None:
        config = self.config
        simulator = self.network.simulator
        discovery_at = config.settle_s + 1.0

        def discover_and_probe(client: BaseClient) -> None:
            prober = artifacts.probers.get(client.name)
            if prober is None:
                prober = Prober(client.host)
                artifacts.probers[client.name] = prober
            endpoints = client.discovered_endpoints()
            if not endpoints:
                # Nothing observed yet (e.g. a pure receiver before the
                # first media arrives); fall back to the wired endpoint,
                # which is what the client's signalling already knows.
                endpoints = {wiring.service_endpoint_key(client.name)}
            for endpoint in endpoints:
                prober.probe(
                    endpoint,
                    count=config.probe_count,
                    interval_s=config.probe_interval_s,
                )

        for client in self.clients.values():
            simulator.schedule(discovery_at, discover_and_probe, client)
