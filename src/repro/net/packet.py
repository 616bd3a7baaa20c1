"""Packet records that traverse the simulated network.

A :class:`Packet` is the unit moved by the fabric.  It carries wire
sizes (for serialisation/queueing and traffic-rate accounting), an L7
payload length (the paper computes data rates "from Layer-7 payload
length in pcap traces", Fig. 15), and an opaque payload object used by
the media pipeline to move encoded chunk fragments end to end.

Packets are the hottest allocation in the simulator -- a multi-party
session constructs millions of them (every media fragment, probe and
SFU fan-out copy is one).  The class is therefore hand-rolled rather
than a dataclass: ``__slots__`` storage, a metadata dict that is only
allocated when someone actually touches it, the wire size computed once
at construction, and a validation-free :meth:`Packet.fast` constructor
for trusted hot loops (the packetiser validates sizes upstream).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

from ..errors import ConfigurationError
from .address import Address

#: Standard Ethernet MTU payload budget used by the packetiser.
DEFAULT_MTU_BYTES = 1200

#: Approximate IP+UDP+SRTP framing overhead added to every packet.
HEADER_OVERHEAD_BYTES = 40


class Protocol(str, enum.Enum):
    """Transport protocol of a packet."""

    UDP = "udp"
    TCP = "tcp"


class PacketKind(str, enum.Enum):
    """What a packet carries; used by captures and service logic."""

    MEDIA_VIDEO = "media-video"
    MEDIA_AUDIO = "media-audio"
    PROBE = "probe"
    PROBE_REPLY = "probe-reply"
    SIGNALING = "signaling"
    FEEDBACK = "feedback"


_packet_ids = itertools.count(1)

#: Hoisted enum singleton: ``Packet.fast`` runs per media fragment and
#: the class-attribute chain is measurable there.
_UDP = Protocol.UDP


class Packet:
    """One packet on the wire.

    Attributes:
        src: Source transport address.
        dst: Destination transport address.
        payload_bytes: Layer-7 payload length.
        proto: Transport protocol.
        kind: Semantic type of the packet.
        flow_id: Identifier correlating packets of one media stream.
        payload: Opaque payload delivered to the receiver (e.g. a
            :class:`~repro.media.video_codec.ChunkFragment`).
        packet_id: Unique id assigned at construction.
        sent_at: Simulation time when the sender handed the packet to
            its uplink; stamped by the host.
        seq: Per-flow sequence number stamped by media senders (kept
            out of :attr:`metadata` so the per-packet dict allocation
            disappears from the hot path).
        wire_bytes: Total on-the-wire size including header overhead;
            computed once at construction.
        metadata: Free-form annotations (feedback reports, probe ids,
            burst markers...).  Allocated lazily on first access --
            media packets never touch it.
    """

    __slots__ = (
        "src",
        "dst",
        "payload_bytes",
        "proto",
        "kind",
        "flow_id",
        "payload",
        "packet_id",
        "sent_at",
        "seq",
        "wire_bytes",
        "_metadata",
    )

    def __init__(
        self,
        src: Address,
        dst: Address,
        payload_bytes: int,
        proto: Protocol = Protocol.UDP,
        kind: PacketKind = PacketKind.MEDIA_VIDEO,
        flow_id: str = "",
        payload: Any = None,
        packet_id: Optional[int] = None,
        sent_at: Optional[float] = None,
        seq: Optional[int] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        if payload_bytes < 0:
            raise ConfigurationError(
                f"payload_bytes must be >= 0, got {payload_bytes}"
            )
        self.src = src
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.proto = proto
        self.kind = kind
        self.flow_id = flow_id
        self.payload = payload
        self.packet_id = packet_id if packet_id is not None else next(_packet_ids)
        self.sent_at = sent_at
        self.seq = seq
        self.wire_bytes = payload_bytes + HEADER_OVERHEAD_BYTES
        self._metadata = metadata

    @classmethod
    def fast(
        cls,
        src: Address,
        dst: Address,
        payload_bytes: int,
        kind: PacketKind,
        flow_id: str,
        payload: Any = None,
        seq: Optional[int] = None,
    ) -> "Packet":
        """Validation-free constructor for trusted hot loops.

        The packetiser guarantees ``payload_bytes >= 0`` upstream, so
        the per-packet range check, keyword machinery and metadata
        handling of :meth:`__init__` are skipped.  Everything else is
        identical to a default-constructed UDP packet.
        """
        packet = object.__new__(cls)
        packet.src = src
        packet.dst = dst
        packet.payload_bytes = payload_bytes
        packet.proto = _UDP
        packet.kind = kind
        packet.flow_id = flow_id
        packet.payload = payload
        packet.packet_id = next(_packet_ids)
        packet.sent_at = None
        packet.seq = seq
        packet.wire_bytes = payload_bytes + HEADER_OVERHEAD_BYTES
        packet._metadata = None
        return packet

    @property
    def metadata(self) -> dict:
        """Free-form annotations; the dict is created on first touch."""
        if self._metadata is None:
            self._metadata = {}
        return self._metadata

    @metadata.setter
    def metadata(self, value: Optional[dict]) -> None:
        self._metadata = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, {self.src}->{self.dst}, "
            f"{self.kind.value}, {self.payload_bytes}B, flow={self.flow_id!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.payload_bytes == other.payload_bytes
            and self.proto is other.proto
            and self.kind is other.kind
            and self.flow_id == other.flow_id
            and self.payload == other.payload
            and self.packet_id == other.packet_id
            and self.sent_at == other.sent_at
            and self.seq == other.seq
            and (self._metadata or {}) == (other._metadata or {})
        )

    def reply_template(self, payload_bytes: int, kind: PacketKind) -> "Packet":
        """A new packet from ``dst`` back to ``src``.

        Used by probe responders and feedback loops; the reply gets a
        fresh packet id and cleared timestamps.
        """
        return Packet(
            src=self.dst,
            dst=self.src,
            payload_bytes=payload_bytes,
            proto=self.proto,
            kind=kind,
            flow_id=self.flow_id,
            metadata={"in_reply_to": self.packet_id},
        )

    def forwarded_to(self, src: Address, dst: Address) -> "Packet":
        """A relayed copy of this packet with new endpoints.

        Relay services (SFUs) use this to fan a sender's packet out to
        each receiver while preserving payload, flow, sequence and
        metadata.  Media packets carry no metadata dict, so SFU fan-out
        to N receivers allocates no dicts at all; when annotations are
        present the copy gets its own dict (mutations must not leak
        back into the original).
        """
        clone = object.__new__(Packet)
        clone.src = src
        clone.dst = dst
        clone.payload_bytes = self.payload_bytes
        clone.proto = self.proto
        clone.kind = self.kind
        clone.flow_id = self.flow_id
        clone.payload = self.payload
        clone.packet_id = next(_packet_ids)
        clone.sent_at = None
        clone.seq = self.seq
        clone.wire_bytes = self.wire_bytes
        clone._metadata = dict(self._metadata) if self._metadata else None
        return clone
