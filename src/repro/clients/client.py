"""Client base: the machine-side glue of an emulated participant.

A client owns a host, binds the media port, dispatches arriving packets
to the right engine (receiver, prober, sender feedback), and manages
its capture and devices.  :class:`CloudVMClient` adds the fully
emulated peripherals of Figure 1 (virtual camera/microphone, desktop
recorder, workflow controller).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import ConfigurationError, SessionError
from ..media.audio import AudioSource
from ..media.frames import FrameSource
from ..media.loopback import VirtualCamera, VirtualMicrophone
from ..net.address import Address
from ..net.capture import Capture
from ..net.node import Host
from ..net.packet import Packet, PacketKind
from ..platforms.base import SessionWiring, ViewContext
from .controller import ClientController
from .receiver import ReceiverEngine

#: The port every emulated client receives media on.
MEDIA_PORT = 40404

#: Hoisted enum members for the per-packet dispatch: an Enum member
#: read goes through the metaclass's slow attribute path.
_MEDIA_VIDEO = PacketKind.MEDIA_VIDEO
_MEDIA_AUDIO = PacketKind.MEDIA_AUDIO
_PROBE = PacketKind.PROBE
_PROBE_REPLY = PacketKind.PROBE_REPLY
_FEEDBACK = PacketKind.FEEDBACK


class BaseClient:
    """One emulated participant: host + media port + engines.

    Attributes:
        name: Client name; must match the host name used in wiring.
        host: The network host this client runs on.
        view: UI state used for subscription decisions.
    """

    def __init__(
        self,
        name: str,
        host: Host,
        view: Optional[ViewContext] = None,
    ) -> None:
        if name != host.name:
            raise ConfigurationError(
                f"client name {name!r} must match host name {host.name!r}"
            )
        self.name = name
        self.host = host
        self.view = view if view is not None else ViewContext()
        self.receiver = ReceiverEngine(self)
        self.capture: Optional[Capture] = None
        self.wiring: Optional[SessionWiring] = None
        self.camera: Optional[VirtualCamera] = None
        self.microphone: Optional[VirtualMicrophone] = None
        self._feedback_sinks: List[Callable[[str, float], None]] = []
        # The host's ip and the media port never change: every emitted
        # packet shares this one address.
        self._media_address = host.bind(MEDIA_PORT, self._on_packet)

    def attach_camera(self, feed: FrameSource) -> VirtualCamera:
        """Load a video feed into the client's loopback camera."""
        self.camera = VirtualCamera(feed)
        return self.camera

    def attach_microphone(self, source: AudioSource) -> VirtualMicrophone:
        """Load an audio source into the client's loopback microphone."""
        self.microphone = VirtualMicrophone(source)
        return self.microphone

    @property
    def media_address(self) -> Address:
        """Where this client receives media."""
        return self._media_address

    @property
    def service_address(self) -> Address:
        """Where this client sends media (set by :meth:`join`)."""
        if self.wiring is None:
            raise SessionError(f"{self.name} has not joined a session")
        return self.wiring.service_address[self.name]

    # ----------------------------------------------------------------- #
    # Session membership.
    # ----------------------------------------------------------------- #

    def join(self, wiring: SessionWiring) -> None:
        """Enter a wired session (signals the service endpoint)."""
        if self.name not in wiring.client_names:
            raise SessionError(f"{self.name} is not part of {wiring.session_id}")
        self.wiring = wiring
        if not wiring.p2p:
            self.host.send(
                Packet(
                    src=self.media_address,
                    dst=self.service_address,
                    payload_bytes=120,
                    kind=PacketKind.SIGNALING,
                    flow_id=f"{wiring.session_id}|{self.name}|join",
                )
            )

    def leave(self) -> None:
        """Leave the current session and drop per-session state."""
        self.wiring = None
        self.receiver.reset()
        self._feedback_sinks.clear()

    # ----------------------------------------------------------------- #
    # Packet dispatch.
    # ----------------------------------------------------------------- #

    def add_feedback_sink(self, sink: Callable[[str, dict], None]) -> None:
        """Register a callback for (flow_id, report) feedback messages.

        Reports are metadata dicts: loss reports carry ``loss`` and
        ``reporter``; keyframe requests carry ``pli: True``.
        """
        self._feedback_sinks.append(sink)

    def _on_packet(self, packet: Packet, host: Host) -> None:
        kind = packet.kind
        if kind is _MEDIA_VIDEO or kind is _MEDIA_AUDIO:
            self.receiver.on_media(packet)
            return
        if kind is _PROBE:
            # Peer-to-peer sessions are probed directly (Zoom N=2);
            # clients answer like the relay would.
            host.send(packet.reply_template(20, _PROBE_REPLY))
            return
        if kind is _FEEDBACK:
            report = dict(packet.metadata)
            for sink in self._feedback_sinks:
                sink(packet.flow_id, report)

    # ----------------------------------------------------------------- #
    # Monitoring.
    # ----------------------------------------------------------------- #

    def start_capture(self) -> Capture:
        """Begin the tcpdump capture of the client monitor."""
        self.capture = self.host.start_capture()
        return self.capture

    def discovered_endpoints(self, port: Optional[int] = None):
        """Streaming endpoints observed in this client's capture."""
        if self.capture is None:
            raise SessionError(f"{self.name} has no running capture")
        return self.capture.remote_endpoints(port=port, media_only=True)


class CloudVMClient(BaseClient):
    """The cloud VM of Figure 1: fully emulated environment.

    Adds the scripted workflow controller on top of the base client's
    loopback devices; the desktop recorder is attached per session by
    the harness.
    """

    def __init__(
        self,
        name: str,
        host: Host,
        view: Optional[ViewContext] = None,
    ) -> None:
        super().__init__(name, host, view)
        self.controller = ClientController(self)
