"""Receiver engine: reassembly, decoding, loss accounting, feedback.

Every client runs one of these.  Incoming media packets are tracked
per flow (for loss statistics and data-rate accounting), video
fragments are reassembled into encoded frames, and -- when the session
asks for it -- frames are decoded and handed to the desktop recorder.
A periodic feedback loop reports the smoothed loss fraction of each
video flow back to its sender through the platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, TYPE_CHECKING

from ..errors import SessionError
from ..media.audio_codec import AudioCodec, AudioCodecConfig, AudioDecoder
from ..media.frames import FrameSpec
from ..media.transport import ChunkFragment, Reassembler
from ..media.video_codec import VideoDecoder
from ..net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .client import BaseClient

#: Fraction of a frame's fragments FEC/NACK recovery can absorb.
DEFAULT_FEC_TOLERANCE = 0.2

#: Hoisted enum member: ``on_media`` runs per delivered packet, and an
#: Enum member read goes through the metaclass's slow attribute path.
_MEDIA_AUDIO = PacketKind.MEDIA_AUDIO


@dataclass
class FlowStats:
    """Per-flow receive-side accounting.

    Sequence numbers are stamped by the sender per flow; loss over a
    feedback window is ``1 - received / expected`` where expected is
    the sequence advance in the window.
    """

    packets: int = 0
    bytes: int = 0
    max_seq: int = -1
    window_packets: int = 0
    window_start_seq: int = -1

    def on_packet(self, seq: int, payload_bytes: int) -> None:
        """Account one arriving packet."""
        self.packets += 1
        self.bytes += payload_bytes
        self.window_packets += 1
        if self.window_start_seq < 0:
            self.window_start_seq = seq
        self.max_seq = max(self.max_seq, seq)

    def take_window_loss(self) -> float:
        """Loss fraction since the last call; resets the window."""
        if self.window_start_seq < 0:
            return 0.0
        expected = self.max_seq - self.window_start_seq + 1
        received = self.window_packets
        self.window_packets = 0
        self.window_start_seq = self.max_seq + 1
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - received / expected)


class ReceiverEngine:
    """Dispatches media packets into reassembly/decoding pipelines."""

    def __init__(self, client: "BaseClient") -> None:
        self._client = client
        self.flow_stats: Dict[str, FlowStats] = {}
        self._reassemblers: Dict[str, Reassembler] = {}
        self._video_decoders: Dict[str, VideoDecoder] = {}
        self._audio_decoders: Dict[str, AudioDecoder] = {}
        self._audio_frame_counts: Dict[str, int] = {}
        self._last_pli: Dict[str, float] = {}
        self._feedback_running = False

    def reset(self) -> None:
        """Drop all per-session state (client left the session)."""
        self.flow_stats.clear()
        self._reassemblers.clear()
        self._video_decoders.clear()
        self._audio_decoders.clear()
        self._audio_frame_counts.clear()
        self._last_pli.clear()
        self._feedback_running = False

    # ----------------------------------------------------------------- #
    # Pipeline wiring.
    # ----------------------------------------------------------------- #

    def watch_video(
        self,
        flow_id: str,
        spec: FrameSpec,
        pixels: bool = True,
    ) -> VideoDecoder:
        """Decode a video flow.

        A pixel decoder defers: delivered frames are parked and replayed
        through the decoder when outputs are first read (the recorder
        reads them at finalize), bit-identical to decoding each frame as
        it lands.  ``pixels=False`` attaches a stats-only decoder
        (freeze/decoded counts, no reconstructions) for flows nobody
        renders.
        """
        decoder = VideoDecoder(spec, pixels=pixels, defer=True)
        self._video_decoders[flow_id] = decoder
        return decoder

    def listen_audio(
        self,
        flow_id: str,
        config: AudioCodecConfig,
    ) -> AudioDecoder:
        """Decode an audio flow for later waveform assembly.

        Received frames are parked and inverse transformed in one
        batched IDCT when the waveform is first assembled (post-session
        MOS scoring), so the packet path runs no transform.
        """
        decoder = AudioDecoder(AudioCodec(config))
        self._audio_decoders[flow_id] = decoder
        return decoder

    def snapshot(self) -> tuple[dict, dict, dict]:
        """Copies of the decoder maps, for post-session artifacts.

        The engine is reset between sessions; artifacts keep these
        references so analyses can read decoders afterwards.
        """
        return (
            dict(self._video_decoders),
            dict(self._audio_decoders),
            dict(self._audio_frame_counts),
        )

    # ----------------------------------------------------------------- #
    # Packet path.
    # ----------------------------------------------------------------- #

    def on_media(self, packet: Packet) -> None:
        """Entry point from the client's port handler."""
        stats = self.flow_stats.get(packet.flow_id)
        if stats is None:
            stats = self.flow_stats[packet.flow_id] = FlowStats()
        seq = packet.seq
        if seq is None:
            # Legacy senders stamped the sequence into metadata; media
            # packets now carry it in a dedicated slot.
            seq = int(packet.metadata.get("seq", stats.max_seq + 1))
        stats.on_packet(seq, packet.payload_bytes)
        if packet.kind is _MEDIA_AUDIO:
            self._on_audio(packet)
            return
        self._on_video(packet)

    def _on_video(self, packet: Packet) -> None:
        fragment = packet.payload
        if not isinstance(fragment, ChunkFragment):
            return  # size-modelled traffic carries no decodable payload
        flow_id = packet.flow_id
        if flow_id not in self._video_decoders:
            return  # flow received but not watched; stats only
        reassembler = self._reassemblers.get(flow_id)
        if reassembler is None:
            decoder = self._video_decoders[flow_id]

            def on_lost(index, _flow=flow_id, _decoder=decoder):
                _decoder.mark_lost(index)
                self._request_keyframe(_flow)

            reassembler = Reassembler(
                on_frame=decoder.decode,
                on_lost=on_lost,
                fec_tolerance=DEFAULT_FEC_TOLERANCE,
            )
            self._reassemblers[flow_id] = reassembler
        reassembler.push(fragment)

    def _on_audio(self, packet: Packet) -> None:
        frame = packet.payload
        flow_id = packet.flow_id
        if frame is None:
            return
        count = self._audio_frame_counts.get(flow_id, 0)
        self._audio_frame_counts[flow_id] = max(count, frame.index + 1)
        decoder = self._audio_decoders.get(flow_id)
        if decoder is not None:
            decoder.push(frame)

    # ----------------------------------------------------------------- #
    # PLI (keyframe request) path.
    # ----------------------------------------------------------------- #

    #: Minimum spacing between keyframe requests per flow.
    PLI_INTERVAL_S = 0.3

    def _request_keyframe(self, flow_id: str) -> None:
        """Ask the sender for a keyframe after a detected frame loss."""
        if self._client.wiring is None:
            return
        now = self._client.host.network.simulator.now
        last = self._last_pli.get(flow_id)
        if last is not None and now - last < self.PLI_INTERVAL_S:
            return
        self._last_pli[flow_id] = now
        packet = Packet(
            src=self._client.media_address,
            dst=self._client.service_address,
            payload_bytes=32,
            kind=PacketKind.FEEDBACK,
            flow_id=flow_id,
            metadata={"pli": True, "reporter": self._client.name},
        )
        self._client.host.send(packet)

    # ----------------------------------------------------------------- #
    # Feedback loop.
    # ----------------------------------------------------------------- #

    def start_feedback_loop(self, interval_s: float = 1.0) -> None:
        """Begin periodic loss reporting for all video flows."""
        if self._client.wiring is None:
            raise SessionError("join a session before starting feedback")
        if self._feedback_running:
            return
        self._feedback_running = True
        simulator = self._client.host.network.simulator
        simulator.schedule(interval_s, self._feedback_tick, interval_s)

    def _feedback_tick(self, interval_s: float) -> None:
        if not self._feedback_running or self._client.wiring is None:
            return
        for flow_id, stats in self.flow_stats.items():
            if "|v-" not in flow_id:
                continue
            loss = stats.take_window_loss()
            packet = Packet(
                src=self._client.media_address,
                dst=self._client.service_address,
                payload_bytes=64,
                kind=PacketKind.FEEDBACK,
                flow_id=flow_id,
                metadata={"loss": loss, "reporter": self._client.name},
            )
            self._client.host.send(packet)
        simulator = self._client.host.network.simulator
        simulator.schedule(interval_s, self._feedback_tick, interval_s)

    def stop_feedback_loop(self) -> None:
        """Stop the periodic loss reports."""
        self._feedback_running = False
