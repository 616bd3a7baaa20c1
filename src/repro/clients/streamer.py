"""Media senders: codec-backed and size-modelled video, plus audio.

A sender in a wired session pushes its camera/microphone output to its
service address.  Two video streamer flavours exist:

* :class:`VideoStreamer` runs the real block-DCT codec end to end --
  used wherever received quality matters (the QoE experiments),
* :class:`ModelVideoStreamer` emits packets whose *sizes* follow the
  codec's statistical profile without encoding -- used for large
  fan-out scenarios (Table 4's N=11 sessions) where only traffic,
  not pixels, is observed.

Both respond to congestion feedback through the platform's
:class:`~repro.platforms.ratecontrol.SenderRateState`, so the
bandwidth-cap experiments exercise the same adaptation paths either
way.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..errors import SessionError
from ..media.audio_codec import (
    AudioCodec,
    AudioCodecConfig,
    EncodedAudioFrame,
    FRAME_DURATION_S,
)
from ..media.frames import FrameSpec
from ..media.padding import resize_frame
from ..media.transport import fragment_frame
from ..media.video_codec import VideoCodec, VideoCodecConfig
from ..net.packet import Packet, PacketKind
from ..platforms.base import PlatformModel, SessionWiring, StreamLayer
from ..platforms.ratecontrol import RateContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .client import BaseClient

#: Fraction of the frame interval over which fragments are paced.
PACING_FRACTION = 0.6

#: Resolution scale of the LOW simulcast layer.
LOW_LAYER_SCALE = 0.5

#: Audio frames encoded per scheduling tick (keeps event counts sane).
AUDIO_FRAMES_PER_TICK = 5

#: Ticks the audio sender encodes ahead in one codec call (1 s of
#: frames): one DCT and one quantiser fit per window, not per tick.
AUDIO_LOOKAHEAD_TICKS = 10

#: Pixel throughput of the paper's feeds (640x480 at 30 fps).  When
#: wire-rate normalisation is on, the codec encodes at a bitrate scaled
#: by (local pixel rate / this reference) -- the same bits-per-pixel
#: operating point as the real clients -- while packets on the wire are
#: sized at the platform's absolute rate, so captures report
#: paper-comparable Mbps and bandwidth caps bite at the right values.
REFERENCE_PIXEL_RATE = 640 * 480 * 30


class _SenderBase:
    """Shared mechanics: flow ids, sequence numbers, packet emission."""

    def __init__(self, client: "BaseClient", wiring: SessionWiring) -> None:
        if wiring is None:
            raise SessionError("sender needs a wired session")
        self.client = client
        self.wiring = wiring
        # A client's host and its network never change: ``_emit`` runs
        # per packet, so it reads both from here, not through
        # ``client.host.network``.
        self._host = client.host
        self.simulator = client.host.network.simulator
        self._seq: Dict[str, int] = {}
        self.packets_sent = 0
        self.bytes_sent = 0
        self._stop_at: Optional[float] = None

    def _emit(
        self,
        flow_id: str,
        payload_bytes: int,
        kind: PacketKind,
        payload=None,
        delay: float = 0.0,
        extra_metadata: Optional[dict] = None,
    ) -> None:
        seq = self._seq.get(flow_id, 0)
        self._seq[flow_id] = seq + 1
        # Hot path: every media fragment of every stream goes through
        # here, so use the validation-free constructor and the packet's
        # dedicated seq slot (no per-packet metadata dict).
        packet = Packet.fast(
            self.client.media_address,
            self.wiring.service_address[self.client.name],
            payload_bytes,
            kind,
            flow_id,
            payload=payload,
            seq=seq,
        )
        if extra_metadata:
            packet.metadata.update(extra_metadata)
        self.packets_sent += 1
        self.bytes_sent += payload_bytes
        if delay > 0:
            self.simulator.schedule(delay, self._host.send, packet)
        else:
            self._host.send(packet)

    def _emit_paced(
        self,
        flow_id: str,
        kind: PacketKind,
        sizes,
        payloads,
        pace: float,
    ) -> None:
        """Emit one tick's packets, packet ``i`` at delay ``i * pace``."""
        for index, size in enumerate(sizes):
            self._emit(
                flow_id, size, kind,
                payload=None if payloads is None else payloads[index],
                delay=index * pace,
            )

    def _running(self) -> bool:
        return self._stop_at is None or self.simulator.now < self._stop_at


class VideoStreamer(_SenderBase):
    """Codec-backed video sender with simulcast and adaptation."""

    def __init__(
        self,
        client: "BaseClient",
        wiring: SessionWiring,
        platform: PlatformModel,
        context: RateContext,
        spec: FrameSpec,
        codec_config: Optional[VideoCodecConfig] = None,
        normalize_wire_rate: bool = True,
    ) -> None:
        super().__init__(client, wiring)
        if client.camera is None:
            raise SessionError(f"{client.name} has no camera attached")
        self.spec = spec
        self.context = context
        self.layers = wiring.layers_needed(client.name) or {StreamLayer.HIGH}
        rates = platform.video_rates(context)
        self.rate_state = platform.make_sender_state(context)
        self._encoder_efficiency = platform.encoder_efficiency
        config = codec_config if codec_config is not None else VideoCodecConfig()
        self._codecs: Dict[StreamLayer, VideoCodec] = {}
        self._specs: Dict[StreamLayer, FrameSpec] = {}
        self._pixel_scales: Dict[StreamLayer, float] = {}
        for layer in self.layers:
            layer_spec = (
                spec if layer is StreamLayer.HIGH else spec.scaled(LOW_LAYER_SCALE)
            )
            self._specs[layer] = layer_spec
            if normalize_wire_rate:
                pixel_scale = (
                    layer_spec.pixels * layer_spec.fps / REFERENCE_PIXEL_RATE
                )
            else:
                pixel_scale = 1.0
            self._pixel_scales[layer] = pixel_scale
            self._codecs[layer] = VideoCodec(
                layer_spec,
                config,
                target_bps=rates[layer]
                * pixel_scale
                * platform.encoder_efficiency,
            )
        self._start_time = 0.0
        self._ticker = None
        self.frames_sent = 0
        self.frames_skipped = 0
        self._wire_debt_s: Dict[StreamLayer, float] = {
            layer: 0.0 for layer in self.layers
        }
        client.add_feedback_sink(self._on_feedback)

    def start(self, duration_s: float, start_delay_s: float = 0.0) -> None:
        """Begin streaming for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise SessionError("streaming duration must be positive")
        self.simulator.schedule(start_delay_s, self._begin, duration_s)

    def _begin(self, duration_s: float) -> None:
        self._start_time = self.simulator.now
        self._stop_at = self._start_time + duration_s
        # Absolute-time scheduling: multiples of the frame period from
        # the stream start, so long sessions never drift off the frame
        # clock the way accumulated relative delays would.
        self._ticker = self.simulator.schedule_periodic(
            self.spec.frame_duration(), self._tick
        )

    #: Wire-debt level (in frame intervals) beyond which the sender
    #: skips camera frames -- real-time encoders reduce frame rate
    #: rather than sustain output above the target rate.
    SKIP_DEBT_INTERVALS = 1.5

    def _tick(self) -> "bool | None":
        if not self._running():
            return False
        now = self.simulator.now
        stream_time = now - self._start_time
        camera = self.client.camera
        frame = camera.read_frame_at(stream_time)
        interval = self.spec.frame_duration()
        for layer in self.layers:
            # Pay down wire debt; skip the frame if still over budget.
            debt = max(0.0, self._wire_debt_s[layer] - interval)
            self._wire_debt_s[layer] = debt
            if debt > self.SKIP_DEBT_INTERVALS * interval:
                self.frames_skipped += 1
                continue
            layer_spec = self._specs[layer]
            layer_frame = (
                frame
                if layer is StreamLayer.HIGH
                else resize_frame(frame, layer_spec.shape)
            )
            encoded = self._codecs[layer].encode(layer_frame)
            # On the wire, the stream carries the platform's absolute
            # rate: undo the pixel-rate scaling and the encoder
            # inefficiency (inefficient bits still occupy bandwidth).
            wire_scale = self._pixel_scales[layer] * self._encoder_efficiency
            wire_bytes = max(
                encoded.size_bytes, int(encoded.size_bytes / wire_scale)
            )
            wire_bytes = self._clamp_wire_bytes(layer, encoded, wire_bytes)
            layer_rate = self._layer_wire_rate(layer)
            self._wire_debt_s[layer] += wire_bytes * 8.0 / layer_rate
            fragments = fragment_frame(encoded, wire_bytes, encoded.index)
            flow_id = self.wiring.video_flow(self.client.name, layer)
            pace = PACING_FRACTION * interval / max(len(fragments), 1)
            self._emit_paced(
                flow_id,
                PacketKind.MEDIA_VIDEO,
                [fragment.payload_bytes for fragment in fragments],
                fragments,
                pace,
            )
        self.frames_sent += 1
        return None

    def _layer_wire_rate(self, layer) -> float:
        """The layer's intended absolute wire rate (after adaptation)."""
        if layer is StreamLayer.HIGH:
            return self.rate_state.current_bps
        codec = self._codecs[layer]
        return codec.rate_controller.target_bps / max(
            self._pixel_scales[layer] * self._encoder_efficiency, 1e-9
        )

    def _clamp_wire_bytes(self, layer, encoded, wire_bytes: int) -> int:
        """Cap wire size at the layer's intended (adapted) rate.

        At very low adapted rates the block codec cannot compress high
        motion below its floor; the platform's real encoder can (frame
        skips, resolution drops), so the wire must follow the adapted
        target rather than amplify the simulation codec's floor.
        """
        codec = self._codecs[layer]
        target_bps = self._layer_wire_rate(layer)
        config = codec.config
        gop = config.gop_size
        inter_share = gop / (gop - 1.0 + config.keyframe_boost) if gop > 1 else 1.0
        factor = config.keyframe_boost if encoded.keyframe else inter_share
        spec = self._specs[layer]
        budget_bytes = target_bps / spec.fps / 8.0 * factor * 1.15
        return max(64, min(wire_bytes, int(budget_bytes)))

    def _on_feedback(self, flow_id: str, report: dict) -> None:
        if flow_id != self.wiring.video_flow(self.client.name, StreamLayer.HIGH):
            return
        if report.get("pli"):
            codec = self._codecs.get(StreamLayer.HIGH)
            if codec is not None:
                codec.request_keyframe()
            return
        loss = float(report.get("loss", 0.0))
        reporter = str(report.get("reporter", "receiver"))
        new_target = self.rate_state.on_feedback(loss, reporter)
        if new_target is not None and StreamLayer.HIGH in self._codecs:
            self._codecs[StreamLayer.HIGH].rate_controller.set_target(
                new_target
                * self._pixel_scales[StreamLayer.HIGH]
                * self._encoder_efficiency
            )

    @property
    def current_target_bps(self) -> float:
        """The sender's present HIGH-layer bitrate target."""
        return self.rate_state.current_bps


class ModelVideoStreamer(_SenderBase):
    """Size-modelled video sender (no pixels, codec-like traffic).

    Frame sizes follow the codec's statistical shape: keyframes every
    ``gop`` frames at a budget boost, inter frames lognormally spread
    around the per-frame budget.  Adaptation scales the budget exactly
    as the codec-backed sender would.
    """

    def __init__(
        self,
        client: "BaseClient",
        wiring: SessionWiring,
        platform: PlatformModel,
        context: RateContext,
        spec: FrameSpec,
        rng: Optional[np.random.Generator] = None,
        gop: int = 30,
        size_sigma: float = 0.25,
    ) -> None:
        super().__init__(client, wiring)
        self.spec = spec
        self.context = context
        self.layers = wiring.layers_needed(client.name) or {StreamLayer.HIGH}
        self._rates = platform.video_rates(context)
        self.rate_state = platform.make_sender_state(context)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.gop = gop
        self.size_sigma = size_sigma
        self._frame_index = 0
        self._start_time = 0.0
        self.frames_sent = 0
        client.add_feedback_sink(self._on_feedback)

    def start(self, duration_s: float, start_delay_s: float = 0.0) -> None:
        """Begin streaming for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise SessionError("streaming duration must be positive")
        self.simulator.schedule(start_delay_s, self._begin, duration_s)

    def _begin(self, duration_s: float) -> None:
        self._start_time = self.simulator.now
        self._frame_index = 0
        self._stop_at = self._start_time + duration_s
        self._ticker = self.simulator.schedule_periodic(
            self.spec.frame_duration(), self._tick
        )

    def _layer_rate(self, layer: StreamLayer) -> float:
        base = self._rates[layer]
        if layer is StreamLayer.HIGH:
            # Adaptation rescales the HIGH layer only.
            base = self.rate_state.current_bps
        return base

    def _frame_bytes(self, layer: StreamLayer) -> int:
        budget = self._layer_rate(layer) / self.spec.fps / 8.0
        keyframe = self._frame_index % self.gop == 0
        boost = 3.0 if keyframe else 1.0
        noise = float(self.rng.lognormal(0.0, self.size_sigma))
        return max(64, int(budget * boost * noise))

    def _tick(self) -> "bool | None":
        if not self._running():
            return False
        interval = self.spec.frame_duration()
        for layer in self.layers:
            size = self._frame_bytes(layer)
            flow_id = self.wiring.video_flow(self.client.name, layer)
            mtu = 1200
            fragments = max(1, (size + mtu - 1) // mtu)
            pace = PACING_FRACTION * interval / fragments
            sizes = []
            remaining = size
            for index in range(fragments):
                chunk = min(mtu, remaining) if index < fragments - 1 else remaining
                sizes.append(max(chunk, 1))
                remaining -= chunk
            self._emit_paced(flow_id, PacketKind.MEDIA_VIDEO, sizes, None, pace)
        self._frame_index += 1
        self.frames_sent += 1
        return None

    def _on_feedback(self, flow_id: str, report: dict) -> None:
        if flow_id != self.wiring.video_flow(self.client.name, StreamLayer.HIGH):
            return
        if report.get("pli"):
            return  # no codec state to refresh in the size model
        self.rate_state.on_feedback(
            float(report.get("loss", 0.0)),
            str(report.get("reporter", "receiver")),
        )


class AudioStreamer(_SenderBase):
    """Codec-backed audio sender (20 ms frames, constant bitrate).

    Frames are encoded up to :data:`AUDIO_LOOKAHEAD_TICKS` ticks ahead
    in one codec call and emitted tick by tick.  Each future tick's
    microphone window is read exactly as that tick would read it, and
    the codec's DCT rows and quantiser fits are per frame, so the
    frames equal a per-tick encode's bit for bit.
    """

    def __init__(
        self,
        client: "BaseClient",
        wiring: SessionWiring,
        config: AudioCodecConfig,
    ) -> None:
        super().__init__(client, wiring)
        if client.microphone is None:
            raise SessionError(f"{client.name} has no microphone attached")
        self.codec = AudioCodec(config)
        self._start_time = 0.0
        self._ticker = None
        self.frames_sent = 0
        # Grid index (in frames) of the first tick not yet encoded; the
        # streamer keeps it because the first tick runs inside
        # ``schedule_periodic``, before ``_ticker`` is assigned.
        self._grid_index = 0
        self._encoded_ahead: Deque[List[EncodedAudioFrame]] = deque()

    def start(self, duration_s: float, start_delay_s: float = 0.0) -> None:
        """Begin streaming for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise SessionError("streaming duration must be positive")
        self.simulator.schedule(start_delay_s, self._begin, duration_s)

    def _begin(self, duration_s: float) -> None:
        self._start_time = self.simulator.now
        self._stop_at = self._start_time + duration_s
        self._ticker = self.simulator.schedule_periodic(
            FRAME_DURATION_S,
            self._tick,
            index_step=AUDIO_FRAMES_PER_TICK,
        )

    def _encode_ahead(self) -> None:
        """Encode the frames of the next window of ticks in one call.

        Tick ``k`` fires at ``start + index_k * FRAME_DURATION_S`` --
        the periodic task's own float expression -- so reading the
        microphone at that time minus the start reads exactly the
        window the tick would read.  The window stops at the first
        tick that would find the stream stopped, so no sample, frame
        or codec index is produced that the tick loop would not
        produce.
        """
        frame_samples = self.codec.config.frame_samples
        windows = []
        index = self._grid_index
        for _ in range(AUDIO_LOOKAHEAD_TICKS):
            tick_time = self._start_time + index * FRAME_DURATION_S
            if not tick_time < self._stop_at:
                break
            samples = self.client.microphone.read_at(
                tick_time - self._start_time,
                AUDIO_FRAMES_PER_TICK * FRAME_DURATION_S,
            )
            # A trailing partial frame is dropped, as a per-tick
            # encode drops it.
            windows.append(samples[: len(samples) - len(samples) % frame_samples])
            index += AUDIO_FRAMES_PER_TICK
        self._grid_index = index
        encoded = self.codec.encode(np.concatenate(windows))
        offset = 0
        for window in windows:
            count = len(window) // frame_samples
            self._encoded_ahead.append(encoded[offset : offset + count])
            offset += count

    def _tick(self) -> "bool | None":
        if not self._running():
            return False
        if not self._encoded_ahead:
            self._encode_ahead()
        encoded_frames = self._encoded_ahead.popleft()
        self._emit_paced(
            self.wiring.audio_flow(self.client.name),
            PacketKind.MEDIA_AUDIO,
            [encoded.size_bytes for encoded in encoded_frames],
            encoded_frames,
            FRAME_DURATION_S,
        )
        self.frames_sent += len(encoded_frames)
        return None
