"""Packet capture: the simulator's ``tcpdump``.

The paper's client monitor "captures incoming/outgoing videoconferencing
traffic with tcpdump, and dumps the trace to a file for offline
analysis" (Section 3.2).  A :class:`Capture` attached to a host records
every packet the host sends or receives, timestamped with the host's
*local* clock (so cross-host correlation inherits realistic clock
error), and offers the query helpers the paper's analyses need:
endpoint discovery, Layer-7 data rates, and time/size series for the
lag detector of Figure 2.

Recording sits on the per-packet hot path (every send and every
delivery records, often into two captures), so the store is columnar
rather than an object per packet: ``record`` appends one flat tuple to
the row store -- no :class:`CapturedPacket` is allocated while the
simulation runs -- and the numeric columns (timestamps, sizes,
direction and kind codes) are extracted into cached numpy arrays the
first time a query needs them.  The session readouts run on those
columns and rows without per-packet objects: rates are masked column
sums, and endpoint discovery dedupes plain ``(ip, port, proto)`` tuples
before building one :class:`EndpointKey` per distinct endpoint.
:class:`CapturedPacket` views exist only for :meth:`Capture.filter`,
iteration and indexing, materialised lazily for the records returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import CaptureError
from ..units import rate_from_bytes
from .address import EndpointKey
from .packet import Packet, PacketKind, Protocol


class Direction(str, enum.Enum):
    """Whether the host sent or received the packet."""

    IN = "in"
    OUT = "out"


#: Row-tuple field offsets (the storage schema of :class:`Capture`).
#: Source and destination are stored as :class:`Address` references --
#: addresses are frozen, so sharing them is safe and saves four
#: attribute reads per recorded packet.
_TIMESTAMP, _DIRECTION, _SRC, _DST = range(4)
_PROTO, _KIND, _WIRE, _PAYLOAD, _FLOW, _PACKET_ID = range(4, 10)

_DIRECTION_CODE = {Direction.OUT: 0, Direction.IN: 1}
_KIND_CODE = {kind: i for i, kind in enumerate(PacketKind)}
_MEDIA_KINDS = (PacketKind.MEDIA_VIDEO, PacketKind.MEDIA_AUDIO)


@dataclass(frozen=True)
class CapturedPacket:
    """One record in a capture file.

    Attributes:
        timestamp: Host-local capture time (includes clock error).
        direction: :data:`Direction.IN` or :data:`Direction.OUT`.
        src_ip/src_port/dst_ip/dst_port: Transport 4-tuple.
        proto: Transport protocol.
        kind: Semantic packet type (media, probe...).
        wire_bytes: On-the-wire packet size.
        payload_bytes: Layer-7 payload length (rate analyses use this).
        flow_id: Media stream correlation id.
        packet_id: Simulator-unique packet id.
    """

    __slots__ = (
        "timestamp",
        "direction",
        "src_ip",
        "src_port",
        "dst_ip",
        "dst_port",
        "proto",
        "kind",
        "wire_bytes",
        "payload_bytes",
        "flow_id",
        "packet_id",
    )

    timestamp: float
    direction: Direction
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: Protocol
    kind: PacketKind
    wire_bytes: int
    payload_bytes: int
    flow_id: str
    packet_id: int

    @property
    def remote_endpoint(self) -> EndpointKey:
        """The non-local side of the packet as an endpoint key."""
        if self.direction is Direction.OUT:
            return EndpointKey(self.dst_ip, self.dst_port, self.proto.value)
        return EndpointKey(self.src_ip, self.src_port, self.proto.value)


class Capture:
    """An in-memory pcap: append-only while running, queryable after.

    Captures are created via :meth:`repro.net.node.Host.start_capture`
    and can be stopped to freeze their contents; querying a running
    capture is allowed (the monitor's on-the-fly "active probing"
    pipeline does exactly that -- the column cache simply rebuilds when
    new rows have landed since it was last taken).
    """

    def __init__(self, host_name: str) -> None:
        self.host_name = host_name
        self._rows: List[tuple] = []
        self._running = True
        self._cols_len = -1
        self._timestamps: Optional[np.ndarray] = None
        self._payloads: Optional[np.ndarray] = None
        self._direction_codes: Optional[np.ndarray] = None
        self._kind_codes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return (self._materialise(row) for row in self._rows)

    def __getitem__(self, index: int) -> CapturedPacket:
        return self._materialise(self._rows[index])

    @property
    def running(self) -> bool:
        """Whether the capture is still recording."""
        return self._running

    def stop(self) -> None:
        """Stop recording; subsequent packets are ignored."""
        self._running = False

    def record(self, packet: Packet, direction: Direction, local_time: float) -> None:
        """Append one packet record (called by the owning host)."""
        if not self._running:
            return
        self._rows.append((
            local_time,
            direction,
            packet.src,
            packet.dst,
            packet.proto,
            packet.kind,
            packet.wire_bytes,
            packet.payload_bytes,
            packet.flow_id,
            packet.packet_id,
        ))

    # ----------------------------------------------------------------- #
    # Columnar access.
    # ----------------------------------------------------------------- #

    @staticmethod
    def _materialise(row: tuple) -> CapturedPacket:
        src = row[_SRC]
        dst = row[_DST]
        return CapturedPacket(
            row[_TIMESTAMP], row[_DIRECTION], src.ip, src.port, dst.ip,
            dst.port, row[_PROTO], row[_KIND], row[_WIRE], row[_PAYLOAD],
            row[_FLOW], row[_PACKET_ID],
        )

    def _refresh_columns(self) -> None:
        rows = self._rows
        n = len(rows)
        self._timestamps = np.fromiter(
            (row[_TIMESTAMP] for row in rows), dtype=np.float64, count=n
        )
        self._payloads = np.fromiter(
            (row[_PAYLOAD] for row in rows), dtype=np.int64, count=n
        )
        direction_code = _DIRECTION_CODE
        self._direction_codes = np.fromiter(
            (direction_code[row[_DIRECTION]] for row in rows),
            dtype=np.uint8, count=n,
        )
        kind_code = _KIND_CODE
        self._kind_codes = np.fromiter(
            (kind_code[row[_KIND]] for row in rows), dtype=np.uint8, count=n
        )
        self._cols_len = n

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(timestamps, payloads, direction codes, kind codes) arrays."""
        if self._cols_len != len(self._rows):
            self._refresh_columns()
        return (
            self._timestamps,
            self._payloads,
            self._direction_codes,
            self._kind_codes,
        )

    def _select(
        self,
        direction: Optional[Direction],
        kinds: Optional[Iterable[PacketKind]],
    ) -> np.ndarray:
        """Boolean mask of rows matching a direction/kind filter."""
        _, _, dir_codes, kind_codes = self._columns()
        mask = np.ones(len(self._rows), dtype=bool)
        if direction is not None:
            mask &= dir_codes == _DIRECTION_CODE[direction]
        if kinds is not None:
            wanted = [_KIND_CODE[k] for k in kinds]
            if len(wanted) == 1:
                mask &= kind_codes == wanted[0]
            else:
                mask &= np.isin(kind_codes, wanted)
        return mask

    # ----------------------------------------------------------------- #
    # Query helpers (the "offline analysis" toolbox).
    # ----------------------------------------------------------------- #

    def filter(
        self,
        direction: Optional[Direction] = None,
        kind: Optional[PacketKind] = None,
        kinds: Optional[Iterable[PacketKind]] = None,
        remote_port: Optional[int] = None,
        flow_id: Optional[str] = None,
        predicate: Optional[Callable[[CapturedPacket], bool]] = None,
    ) -> List[CapturedPacket]:
        """Select records matching all given criteria (BPF, kindly)."""
        if kind is not None and kinds is not None:
            raise CaptureError("pass either kind or kinds, not both")
        kind_set = {kind} if kind is not None else set(kinds) if kinds else None
        result = []
        materialise = self._materialise
        for row in self._rows:
            if direction is not None and row[_DIRECTION] is not direction:
                continue
            if kind_set is not None and row[_KIND] not in kind_set:
                continue
            if flow_id is not None and row[_FLOW] != flow_id:
                continue
            if remote_port is not None:
                remote = row[_DST] if row[_DIRECTION] is Direction.OUT else row[_SRC]
                if remote.port != remote_port:
                    continue
            record = materialise(row)
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result

    def time_size_series(
        self,
        direction: Direction,
        kind: Optional[PacketKind] = None,
    ) -> List[Tuple[float, int]]:
        """(timestamp, payload_bytes) pairs, the raw data of Figure 2."""
        mask = self._select(direction, None if kind is None else (kind,))
        timestamps, payloads, _, _ = self._columns()
        return list(zip(
            timestamps[mask].tolist(), payloads[mask].tolist()
        ))

    def total_payload_bytes(
        self, direction: Direction, kind: Optional[PacketKind] = None
    ) -> int:
        """Sum of L7 payload bytes in one direction."""
        mask = self._select(direction, None if kind is None else (kind,))
        _, payloads, _, _ = self._columns()
        return int(payloads[mask].sum())

    def payload_bytes_between(
        self,
        direction: Direction,
        start: float,
        end: float,
        kinds: Optional[Iterable[PacketKind]] = None,
    ) -> int:
        """L7 payload bytes in ``[start, end)`` -- one timeline phase.

        The right-open window matches phase segmentation: a packet on
        a phase boundary belongs to the phase it *enters*, so summing
        over consecutive windows never double-counts.  Records are
        appended in timestamp order (event order through a monotonic
        affine clock), so the window reduces to one ``searchsorted``
        slice over the timestamp column -- many-phase timelines (trace
        replay) stay cheap even over large captures.
        """
        timestamps, payloads, dir_codes, kind_codes = self._columns()
        lo = int(np.searchsorted(timestamps, start, side="left"))
        hi = int(np.searchsorted(timestamps, end, side="left"))
        if hi <= lo:
            return 0
        # Filter on the window slice only: many-phase timelines issue
        # one query per phase, and full-capture masks would make that
        # O(phases x capture) instead of O(phases x window).
        mask = dir_codes[lo:hi] == _DIRECTION_CODE[direction]
        if kinds is not None:
            wanted = [_KIND_CODE[k] for k in kinds]
            window_kinds = kind_codes[lo:hi]
            if len(wanted) == 1:
                mask &= window_kinds == wanted[0]
            else:
                mask &= np.isin(window_kinds, wanted)
        return int(payloads[lo:hi][mask].sum())

    def payload_rate_bps(
        self,
        direction: Direction,
        start: Optional[float] = None,
        end: Optional[float] = None,
        kind: Optional[PacketKind] = None,
    ) -> float:
        """Average Layer-7 data rate over a time window.

        This is the paper's Fig. 15 metric ("computed from Layer-7
        payload length in pcap traces").  The window defaults to the
        first/last matching packet timestamps.

        Raises :class:`~repro.errors.CaptureError` if no packets match.
        """
        mask = self._select(direction, None if kind is None else (kind,))
        timestamps, payloads, _, _ = self._columns()
        if start is not None or end is not None:
            lo = start if start is not None else float("-inf")
            hi = end if end is not None else float("inf")
            mask = mask & (timestamps >= lo) & (timestamps <= hi)
        selected = timestamps[mask]
        if selected.size == 0:
            raise CaptureError("no packets in window; cannot compute a rate")
        if start is None:
            start = float(selected[0])
        if end is None:
            end = float(selected[-1])
        duration = end - start
        if duration <= 0:
            raise CaptureError("rate window must have positive duration")
        total = int(payloads[mask].sum())
        return rate_from_bytes(total, duration)

    def remote_endpoints(
        self,
        direction: Optional[Direction] = None,
        port: Optional[int] = None,
        media_only: bool = True,
    ) -> Set[EndpointKey]:
        """Distinct remote endpoints seen in the trace.

        This is the monitor's endpoint-discovery step: the paper counts
        how many distinct streaming endpoints a client encounters over
        sessions (Section 4.2's 20 / 19.5 / 1.8 finding).
        """
        kinds = _MEDIA_KINDS if media_only else None
        # Dedupe plain (ip, port, proto) tuples first and build one
        # EndpointKey per distinct endpoint: every packet carries its
        # own Address objects, so keying on them (or building a key per
        # row) would hash a dataclass per packet.
        distinct: Set[tuple] = set()
        for side, remote_field in ((Direction.OUT, _DST), (Direction.IN, _SRC)):
            if direction is not None and direction is not side:
                continue
            for row in compress(self._rows, self._select(side, kinds).tolist()):
                remote = row[remote_field]
                distinct.add((remote.ip, remote.port, row[_PROTO]))
        return {
            EndpointKey(ip, remote_port, proto.value)
            for ip, remote_port, proto in distinct
            if port is None or remote_port == port
        }

    def span(self) -> Tuple[float, float]:
        """(first, last) record timestamps.

        Raises :class:`~repro.errors.CaptureError` on an empty capture.
        """
        if not self._rows:
            raise CaptureError("capture is empty")
        return self._rows[0][_TIMESTAMP], self._rows[-1][_TIMESTAMP]
