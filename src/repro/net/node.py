"""Hosts: the machines of the testbed.

A :class:`Host` is anything with a network presence -- an emulated
cloud VM, an Android phone behind the Raspberry-Pi WiFi, or a platform
relay server.  Hosts bind handlers to ports (sockets), send packets
into the fabric, deliver arriving packets, run tcpdump-style captures
and keep a local clock used to timestamp those captures.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..errors import ConfigurationError, SimulationError
from .address import Address, EphemeralPortAllocator
from .capture import Capture, Direction
from .clock import Clock, PERFECT_CLOCK
from .geo import GeoPoint
from .link import AccessLink
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .routing import Network

#: Signature of a bound port handler.
PacketHandler = Callable[[Packet, "Host"], None]

#: Hoisted enum members: ``send`` and ``deliver`` run per packet, and an
#: Enum member read goes through the metaclass's slow attribute path.
_OUT = Direction.OUT
_IN = Direction.IN


class Host:
    """One machine attached to the simulated network.

    Hosts are created through :meth:`repro.net.routing.Network.add_host`
    so they arrive wired to the fabric, with an allocated IP and an
    access link.

    Attributes:
        name: Human-readable host name (e.g. ``"US-East"``).
        ip: The host's allocated address.
        location: Geographic position, drives path latency.
        link: The host's :class:`~repro.net.link.AccessLink`.
        clock: Local clock used for capture timestamps.
    """

    def __init__(
        self,
        name: str,
        ip: str,
        location: GeoPoint,
        network: "Network",
        link: Optional[AccessLink] = None,
        clock: Clock = PERFECT_CLOCK,
    ) -> None:
        self.name = name
        self.ip = ip
        self.location = location
        self.link = link if link is not None else AccessLink()
        self.clock = clock
        self._network = network
        self._handlers: Dict[int, PacketHandler] = {}
        self._captures: List[Capture] = []
        self._ephemeral = EphemeralPortAllocator()
        #: Per-destination fast-lane plans, owned by the network's
        #: packet path (:meth:`repro.net.routing.Network._fast_plan`).
        #: Keyed by destination ip so the per-packet lookup needs no
        #: tuple allocation.
        self.fast_plans: Dict[str, list] = {}
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_unhandled = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, ip={self.ip!r})"

    # ----------------------------------------------------------------- #
    # Time.
    # ----------------------------------------------------------------- #

    @property
    def network(self) -> "Network":
        """The fabric this host is attached to."""
        return self._network

    def local_time(self) -> float:
        """Current time according to this host's (imperfect) clock."""
        return self.clock.local_time(self._network.simulator.now)

    # ----------------------------------------------------------------- #
    # Sockets.
    # ----------------------------------------------------------------- #

    def address(self, port: int) -> Address:
        """This host's address at a given port."""
        return Address(self.ip, port)

    def bind(self, port: int, handler: PacketHandler) -> Address:
        """Attach a handler to a port; returns the bound address.

        Raises :class:`~repro.errors.ConfigurationError` if the port is
        already bound -- double binds are always a harness bug.
        """
        if port in self._handlers:
            raise ConfigurationError(f"{self.name}: port {port} already bound")
        self._handlers[port] = handler
        return self.address(port)

    def bind_ephemeral(self, handler: PacketHandler) -> Address:
        """Bind a handler to a fresh ephemeral port."""
        return self.bind(self._ephemeral.allocate(), handler)

    def unbind(self, port: int) -> None:
        """Release a bound port (no-op if not bound)."""
        self._handlers.pop(port, None)

    def is_bound(self, port: int) -> bool:
        """Whether a handler is attached to ``port``."""
        return port in self._handlers

    # ----------------------------------------------------------------- #
    # Packet I/O.
    # ----------------------------------------------------------------- #

    def send(self, packet: Packet) -> None:
        """Transmit a packet into the fabric.

        The packet's source must belong to this host; sending someone
        else's packets is a wiring error we want to fail loudly.
        """
        if packet.src.ip != self.ip:
            raise SimulationError(
                f"{self.name} cannot send packet with src {packet.src.ip}"
            )
        network = self._network
        # ``_now`` directly: the packet path reads the clock inside the
        # ``net`` package without the property call.
        now = network.simulator._now
        packet.sent_at = now
        self.packets_sent += 1
        if self._captures:
            local = self.clock.local_time(now)
            for capture in self._captures:
                capture.record(packet, _OUT, local)
        network.transmit(packet, self)

    def deliver(self, packet: Packet) -> None:
        """Called by the fabric when a packet arrives for this host."""
        self.packets_received += 1
        if self._captures:
            local = self.clock.local_time(self._network.simulator._now)
            for capture in self._captures:
                capture.record(packet, _IN, local)
        handler = self._handlers.get(packet.dst.port)
        if handler is None:
            self.packets_unhandled += 1
            return
        handler(packet, self)

    # ----------------------------------------------------------------- #
    # Capture.
    # ----------------------------------------------------------------- #

    def start_capture(self) -> Capture:
        """Start a tcpdump-style capture on this host."""
        capture = Capture(self.name)
        self._captures.append(capture)
        return capture

    def stop_captures(self) -> None:
        """Stop every running capture on this host."""
        for capture in self._captures:
            capture.stop()

