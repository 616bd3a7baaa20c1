"""Platform model base: relays, session wiring, subscription logic.

A :class:`PlatformModel` turns a list of client bindings into a wired
meeting session: relay hosts are allocated per the platform's endpoint
architecture (Fig. 3), media flows are routed sender -> relay(s) ->
receivers, probe packets are answered at the relay, and congestion
feedback is routed back to senders.  Subclasses supply the
platform-specific pieces: endpoint selection, target rates and the
adaptation policy.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import PlatformError, SessionError
from ..net.address import Address, EndpointKey
from ..net.node import Host
from ..net.packet import Packet, PacketKind
from ..net.regions import RegionRegistry, default_registry
from ..net.routing import Network
from .endpoints import EndpointDirectory
from .ratecontrol import AdaptationPolicy, RateContext, SenderRateState


#: Hoisted enum members for the relay's per-packet dispatch: an Enum
#: member read goes through the metaclass's slow attribute path.
_PROBE = PacketKind.PROBE
_PROBE_REPLY = PacketKind.PROBE_REPLY
_FEEDBACK = PacketKind.FEEDBACK
_SIGNALING = PacketKind.SIGNALING


class StreamLayer(str, enum.Enum):
    """Simulcast layers a sender may encode.

    ``HIGH`` is the full-quality stream shown full-screen; ``LOW`` is
    the reduced layer used for gallery tiles and thumbnails.
    """

    HIGH = "high"
    LOW = "low"


@dataclass(frozen=True)
class ClientBinding:
    """What the platform needs to know about a joining client."""

    name: str
    host: Host
    media_port: int

    @property
    def media_address(self) -> Address:
        """Where this client receives media."""
        return Address(self.host.ip, self.media_port)


@dataclass(frozen=True)
class ViewContext:
    """A receiver's UI state, which drives its subscriptions.

    Attributes:
        view_mode: ``"fullscreen"``, ``"gallery"`` or ``"audio-only"``
            (screen off).
        device: ``"vm"``, ``"mobile-highend"`` or ``"mobile-lowend"``.
    """

    view_mode: str = "fullscreen"
    device: str = "vm"

    def __post_init__(self) -> None:
        if self.view_mode not in ("fullscreen", "gallery", "audio-only"):
            raise PlatformError(f"unknown view mode: {self.view_mode!r}")


@dataclass(frozen=True)
class RelayTiming:
    """Forwarding latency character of a platform's relays.

    Attributes:
        base_delay_s: Fixed per-packet forwarding delay.
        jitter_scale_s: Scale of exponential per-packet jitter.
        session_load_scale_s: Mean of the per-(relay, session)
            exponential extra delay modelling load variation (the
            paper's explanation for Meet's high lag despite low RTTs).
        probe_delay_s: Reply latency for RTT probes; probes bypass the
            media forwarding queue, so this is small and load-free.
    """

    base_delay_s: float = 0.008
    jitter_scale_s: float = 0.001
    session_load_scale_s: float = 0.0
    probe_delay_s: float = 0.0003


class ServiceRelay:
    """The media-forwarding service bound at a relay host's port.

    One relay instance can serve many sessions (Meet endpoints are
    sticky across sessions); routes are registered per flow.  The relay

    * answers ``PROBE`` packets immediately (tcpping's RTT target),
    * forwards media packets per its route table after a processing
      delay (base + per-session load + jitter),
    * forwards ``FEEDBACK`` packets toward the flow's sender.
    """

    def __init__(self, host: Host, port: int, timing: RelayTiming, rng) -> None:
        self.host = host
        self.port = port
        self.timing = timing
        self.rng = rng
        self._simulator = host.network.simulator
        self._routes: Dict[str, Tuple[Tuple[Address, float], ...]] = {}
        self._feedback_next_hop: Dict[str, Address] = {}
        self._session_load: Dict[str, float] = {}
        self.packets_forwarded = 0
        self.probes_answered = 0
        # The host's ip and the port never change: build the service
        # address once, so every forwarded copy shares it.
        self._address = host.bind(port, self._handle)

    @classmethod
    def install(cls, host: Host, port: int, timing: RelayTiming, rng) -> "ServiceRelay":
        """Bind a relay at ``host:port``, reusing an existing instance."""
        existing = getattr(host, "_service_relay", None)
        if existing is not None:
            if existing.port != port:
                raise PlatformError(
                    f"{host.name} already relays on port {existing.port}"
                )
            return existing
        relay = cls(host, port, timing, rng)
        host._service_relay = relay
        return relay

    @property
    def address(self) -> Address:
        """The relay's service address."""
        return self._address

    # ----------------------------------------------------------------- #
    # Route management (called by session wiring).
    # ----------------------------------------------------------------- #

    def set_session_load(self, session_id: str, load_s: float) -> None:
        """Record the per-session load delay of this relay."""
        self._session_load[session_id] = load_s

    def register_route(self, flow_id: str, destinations) -> None:
        """Route a media flow to destinations.

        Each destination is an :class:`Address` or an
        ``(Address, fraction)`` pair; the fraction is the share of the
        flow's packets forwarded to that destination (an SFU's
        per-subscriber thinning -- how the relay delivers a lower rate
        to, e.g., a low-end phone without a separate encoding).
        The route is stored as an immutable tuple: later changes to
        ``destinations`` do not reach it, and packets in flight keep
        the route they were handled with.
        """
        normalised: List[Tuple[Address, float]] = []
        for destination in destinations:
            if isinstance(destination, tuple):
                address, fraction = destination
            else:
                address, fraction = destination, 1.0
            if not 0.0 < fraction <= 1.0:
                raise PlatformError(f"forward fraction out of range: {fraction}")
            normalised.append((address, fraction))
        self._routes[flow_id] = tuple(normalised)

    def register_feedback_route(self, flow_id: str, next_hop: Address) -> None:
        """Route feedback for a flow toward its sender."""
        self._feedback_next_hop[flow_id] = next_hop

    def unregister_session(self, session_id: str) -> None:
        """Drop all routes belonging to one session."""
        prefix = session_id + "|"
        self._routes = {
            k: v for k, v in self._routes.items() if not k.startswith(prefix)
        }
        self._feedback_next_hop = {
            k: v
            for k, v in self._feedback_next_hop.items()
            if not k.startswith(prefix)
        }
        self._session_load.pop(session_id, None)

    # ----------------------------------------------------------------- #
    # Packet handling.
    # ----------------------------------------------------------------- #

    def _handle(self, packet: Packet, host: Host) -> None:
        kind = packet.kind
        if kind is _PROBE:
            self.probes_answered += 1
            reply = packet.reply_template(payload_bytes=20, kind=_PROBE_REPLY)
            self._simulator.schedule(
                self.timing.probe_delay_s, host.send, reply
            )
            return
        if kind is _FEEDBACK:
            next_hop = self._feedback_next_hop.get(packet.flow_id)
            if next_hop is not None:
                host.send(packet.forwarded_to(self._address, next_hop))
            return
        if kind is _SIGNALING:
            return  # joins/leaves are acknowledged implicitly
        destinations = self._routes.get(packet.flow_id)
        if not destinations:
            return
        session_id = packet.flow_id.split("|", 1)[0]
        timing = self.timing
        # ``scale * standard_exponential()`` is how numpy computes
        # ``exponential(scale)``: the same draw, without the call
        # overhead and the float conversion.
        delay = (
            timing.base_delay_s
            + self._session_load.get(session_id, 0.0)
            + timing.jitter_scale_s * self.rng.standard_exponential()
        )
        self._simulator.schedule(delay, self._forward, packet, destinations)

    def _forward(
        self, packet: Packet, destinations: Tuple[Tuple[Address, float], ...]
    ) -> None:
        address = self._address
        origin_ip = packet.src.ip
        send = self.host.send
        for destination, fraction in destinations:
            if destination.ip == origin_ip:
                continue  # never reflect a flow back to its origin
            if fraction < 1.0 and self.rng.random() >= fraction:
                continue  # thinned subscription
            self.packets_forwarded += 1
            send(packet.forwarded_to(address, destination))


def video_flow_id(session_id: str, sender: str, layer: StreamLayer) -> str:
    """Canonical flow id of a sender's video layer."""
    return f"{session_id}|{sender}|v-{layer.value}"


def audio_flow_id(session_id: str, sender: str) -> str:
    """Canonical flow id of a sender's audio."""
    return f"{session_id}|{sender}|a"


@dataclass
class SessionWiring:
    """Everything a client needs to participate in a wired session.

    Produced by :meth:`PlatformModel.create_session`.
    """

    session_id: str
    platform_name: str
    udp_port: int
    p2p: bool
    context: RateContext
    service_address: Dict[str, Address]
    relay_hosts: List[Host] = field(default_factory=list)
    relays: List[ServiceRelay] = field(default_factory=list)
    subscriptions: Dict[str, Dict[str, List[StreamLayer]]] = field(
        default_factory=dict
    )
    client_names: List[str] = field(default_factory=list)
    host_name: str = ""

    def service_endpoint_key(self, client_name: str) -> EndpointKey:
        """The endpoint this client's monitor will discover and probe."""
        address = self.service_address[client_name]
        return EndpointKey(address.ip, address.port, "udp")

    def layers_needed(self, sender: str) -> Set[StreamLayer]:
        """Which simulcast layers any receiver subscribes to."""
        needed: Set[StreamLayer] = set()
        for _receiver, by_sender in self.subscriptions.items():
            needed.update(by_sender.get(sender, []))
        return needed

    def video_flow(self, sender: str, layer: StreamLayer) -> str:
        """Flow id of a sender's video layer in this session."""
        return video_flow_id(self.session_id, sender, layer)

    def audio_flow(self, sender: str) -> str:
        """Flow id of a sender's audio in this session."""
        return audio_flow_id(self.session_id, sender)

    def close(self) -> None:
        """Unregister this session's routes from every relay."""
        for relay in self.relays:
            relay.unregister_session(self.session_id)


class PlatformModel(abc.ABC):
    """Abstract videoconferencing platform.

    Subclasses define the constants table (rates, ports, sites) and the
    endpoint-selection strategy; the base class implements session
    wiring mechanics shared by all three platforms.
    """

    #: Canonical platform name; overridden by subclasses.
    name: str = "abstract"
    #: Designated media port (Section 4.2).
    udp_port: int = 0
    #: Audio bitrate in bps (Section 4.4 footnote 5).
    audio_bps: float = 40_000.0
    #: Loss-concealment behaviour of the audio decoder.
    audio_concealment: str = "repeat"
    #: Relay forwarding latency character.
    relay_timing: RelayTiming = RelayTiming()
    #: Congestion adaptation personality.
    adaptation: AdaptationPolicy = AdaptationPolicy()
    #: Fraction of the wire rate that buys quality.  The paper finds
    #: Zoom "delivers the best QoE in the most bandwidth-efficient
    #: fashion" while Webex's highest-of-the-three rate does not yield
    #: proportionally better quality (Section 4.3.1); this factor
    #: models the difference (codec generation, FEC overhead).
    encoder_efficiency: float = 1.0

    def __init__(
        self,
        registry: Optional[RegionRegistry] = None,
        seed: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self._seed = seed
        self._network: Optional[Network] = None
        self._directory: Optional[EndpointDirectory] = None
        self._session_counter = 0
        self.rng = np.random.default_rng(seed)

    # ----------------------------------------------------------------- #
    # Attachment.
    # ----------------------------------------------------------------- #

    def attach(self, network: Network) -> None:
        """Bind this platform to a network (allocates its directory)."""
        self._network = network
        self._directory = EndpointDirectory(
            self.name, network, self.rng, self.registry
        )

    @property
    def network(self) -> Network:
        """The attached network (raises if :meth:`attach` not called)."""
        if self._network is None:
            raise PlatformError(f"{self.name}: attach() a network first")
        return self._network

    @property
    def directory(self) -> EndpointDirectory:
        """The endpoint directory (raises if not attached)."""
        if self._directory is None:
            raise PlatformError(f"{self.name}: attach() a network first")
        return self._directory

    # ----------------------------------------------------------------- #
    # Platform-specific hooks.
    # ----------------------------------------------------------------- #

    @abc.abstractmethod
    def video_rates(self, context: RateContext) -> Dict[StreamLayer, float]:
        """Target bitrates per simulcast layer for a sender."""

    @abc.abstractmethod
    def _select_relays(
        self, clients: List[ClientBinding], host_name: str, session_id: str
    ) -> Dict[str, ServiceRelay]:
        """Map each client name to the relay it attaches to."""

    def session_rate_multiplier(self, context: RateContext) -> float:
        """Per-session rate variation factor (Meet overrides this)."""
        return 1.0

    def uses_p2p(self, num_participants: int) -> bool:
        """Whether this session streams peer-to-peer (Zoom at N=2)."""
        return False

    def thumbnails_in_fullscreen(self) -> int:
        """LOW-layer thumbnails shown alongside a full-screen stream."""
        return 0

    def forward_fraction(
        self, receiver_view: ViewContext, layer: StreamLayer, context: RateContext
    ) -> float:
        """Share of a layer's packets the relay forwards to a receiver.

        1.0 means the full stream.  Platforms override this to model
        per-subscriber thinning: Webex delivers roughly half the rate
        to low-end phones, Zoom's pre-buffered background streams in
        full-screen mode are heavily throttled.
        """
        return 1.0

    def supports_gallery_subscription(self) -> bool:
        """Whether gallery view switches subscriptions to LOW tiles."""
        return True

    #: Maximum simultaneous video tiles any client UI renders
    #: (Section 5: "show videos for up to four concurrent participants").
    MAX_TILES = 4

    # ----------------------------------------------------------------- #
    # Rate state for senders.
    # ----------------------------------------------------------------- #

    def make_sender_state(self, context: RateContext) -> SenderRateState:
        """Adaptive rate state seeded from the context rate."""
        rates = self.video_rates(context)
        return SenderRateState(rates[StreamLayer.HIGH], self.adaptation)

    # ----------------------------------------------------------------- #
    # Subscriptions.
    # ----------------------------------------------------------------- #

    def subscriptions_for(
        self,
        receiver: str,
        view: ViewContext,
        senders: List[str],
        display: str,
    ) -> Dict[str, List[StreamLayer]]:
        """Which layers ``receiver`` gets from each remote sender.

        Encodes the UI behaviour of Section 5: full screen shows the
        displayed participant's HIGH layer (plus platform-specific
        thumbnails), gallery shows LOW tiles of up to
        :data:`MAX_TILES` participants, audio-only subscribes to no
        video at all.
        """
        remote = [s for s in senders if s != receiver]
        plan: Dict[str, List[StreamLayer]] = {}
        if view.view_mode == "audio-only":
            return plan
        if view.view_mode == "gallery" and self.supports_gallery_subscription():
            for sender in remote[: self.MAX_TILES]:
                plan[sender] = [StreamLayer.LOW]
            return plan
        # Full screen (or gallery on platforms without tile support,
        # e.g. Meet, where "zooming out" leaves the layout unchanged).
        shown = display if display in remote else (remote[0] if remote else None)
        if shown is None:
            return plan
        plan[shown] = [StreamLayer.HIGH]
        others = [s for s in remote if s != shown]
        for sender in others[: self.thumbnails_in_fullscreen()]:
            plan.setdefault(sender, []).append(StreamLayer.LOW)
        return plan

    # ----------------------------------------------------------------- #
    # Session creation.
    # ----------------------------------------------------------------- #

    def create_session(
        self,
        clients: List[ClientBinding],
        host_name: str,
        context: RateContext,
        views: Optional[Dict[str, ViewContext]] = None,
    ) -> SessionWiring:
        """Wire a meeting session across the attached network.

        Args:
            clients: All participants (including the meeting host).
            host_name: Name of the meeting host client.
            context: Session-level rate context.
            views: Optional per-client UI state; defaults to
                full-screen VMs displaying the host's stream.

        Raises:
            SessionError: On fewer than two clients, a host not in the
                list, or duplicate client names.
        """
        if len(clients) < 2:
            raise SessionError("a session needs at least two clients")
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise SessionError(f"duplicate client names: {names}")
        if host_name not in names:
            raise SessionError(f"host {host_name!r} not among clients")

        self._session_counter += 1
        session_id = f"{self.name}-s{self._session_counter}"
        views = views or {}
        default_view = ViewContext()

        subscriptions = {
            c.name: self.subscriptions_for(
                c.name, views.get(c.name, default_view), names, host_name
            )
            for c in clients
        }

        view_of = {
            c.name: views.get(c.name, default_view) for c in clients
        }
        if self.uses_p2p(len(clients)):
            return self._wire_p2p(
                session_id, clients, host_name, context, subscriptions
            )
        return self._wire_relayed(
            session_id, clients, host_name, context, subscriptions, view_of
        )

    def _wire_p2p(
        self,
        session_id: str,
        clients: List[ClientBinding],
        host_name: str,
        context: RateContext,
        subscriptions: Dict[str, Dict[str, List[StreamLayer]]],
    ) -> SessionWiring:
        """Two-party direct wiring (Zoom N=2): peers stream directly."""
        first, second = clients[0], clients[1]
        return SessionWiring(
            session_id=session_id,
            platform_name=self.name,
            udp_port=self.udp_port,
            p2p=True,
            context=context,
            service_address={
                first.name: second.media_address,
                second.name: first.media_address,
            },
            subscriptions=subscriptions,
            client_names=[c.name for c in clients],
            host_name=host_name,
        )

    def _wire_relayed(
        self,
        session_id: str,
        clients: List[ClientBinding],
        host_name: str,
        context: RateContext,
        subscriptions: Dict[str, Dict[str, List[StreamLayer]]],
        view_of: Dict[str, ViewContext],
    ) -> SessionWiring:
        """General relayed wiring through platform endpoints."""
        relay_of = self._select_relays(clients, host_name, session_id)
        missing = [c.name for c in clients if c.name not in relay_of]
        if missing:
            raise SessionError(f"no relay selected for clients: {missing}")

        relays = list({id(r): r for r in relay_of.values()}.values())
        for relay in relays:
            load = 0.0
            if self.relay_timing.session_load_scale_s > 0:
                load = float(
                    self.rng.exponential(self.relay_timing.session_load_scale_s)
                )
            relay.set_session_load(session_id, load)

        bindings = {c.name: c for c in clients}
        names = [c.name for c in clients]

        for sender in names:
            home = relay_of[sender]
            # Who subscribes to each of this sender's flows?
            for layer in StreamLayer:
                flow = video_flow_id(session_id, sender, layer)
                receivers = {
                    n: self.forward_fraction(view_of[n], layer, context)
                    for n in names
                    if n != sender and layer in subscriptions[n].get(sender, [])
                }
                self._register_fanout(
                    flow, sender, receivers, relay_of, bindings, home
                )
            audio_flow = audio_flow_id(session_id, sender)
            audio_receivers = {n: 1.0 for n in names if n != sender}
            self._register_fanout(
                audio_flow, sender, audio_receivers, relay_of, bindings, home
            )
            # Feedback about this sender's flows goes back to the sender.
            for layer in StreamLayer:
                flow = video_flow_id(session_id, sender, layer)
                self._register_feedback(flow, sender, relay_of, bindings, home)

        return SessionWiring(
            session_id=session_id,
            platform_name=self.name,
            udp_port=self.udp_port,
            p2p=False,
            context=context,
            service_address={
                name: relay_of[name].address for name in names
            },
            relay_hosts=[r.host for r in relays],
            relays=relays,
            subscriptions=subscriptions,
            client_names=names,
            host_name=host_name,
        )

    def _register_fanout(
        self,
        flow: str,
        sender: str,
        receivers: Dict[str, float],
        relay_of: Dict[str, ServiceRelay],
        bindings: Dict[str, ClientBinding],
        home: ServiceRelay,
    ) -> None:
        """Install routes: home relay -> (peer relays, local clients).

        ``receivers`` maps receiver names to forward fractions; the
        fraction is applied at the relay that owns the receiver.
        """
        home_destinations: List[Tuple[Address, float]] = []
        by_peer_relay: Dict[int, Tuple[ServiceRelay, List[Tuple[Address, float]]]] = {}
        for receiver, fraction in receivers.items():
            relay = relay_of[receiver]
            client_address = bindings[receiver].media_address
            if relay is home:
                home_destinations.append((client_address, fraction))
            else:
                entry = by_peer_relay.setdefault(id(relay), (relay, []))
                entry[1].append((client_address, fraction))
        for relay, client_addresses in by_peer_relay.values():
            home_destinations.append((relay.address, 1.0))
            relay.register_route(flow, client_addresses)
        home.register_route(flow, home_destinations)

    def _register_feedback(
        self,
        flow: str,
        sender: str,
        relay_of: Dict[str, ServiceRelay],
        bindings: Dict[str, ClientBinding],
        home: ServiceRelay,
    ) -> None:
        """Feedback converges on the sender via its home relay."""
        sender_address = bindings[sender].media_address
        home.register_feedback_route(flow, sender_address)
        for relay in {id(r): r for r in relay_of.values()}.values():
            if relay is not home:
                relay.register_feedback_route(flow, home.address)
