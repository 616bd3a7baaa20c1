"""Media transport: fragmentation and reassembly of encoded frames.

Encoded video frames routinely exceed the MTU, so the sending client
fragments them into MTU-sized pieces and the receiver reassembles.  A
frame with any missing fragment is undecodable and counts as lost --
this is the mechanism by which shaper drops (Section 4.4's bandwidth
caps) become frozen video and QoE loss in Figure 17.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generic, List, Optional, Set, TypeVar

from ..errors import MediaError

#: Fragment payload budget; matches the packetiser MTU in repro.net.
DEFAULT_FRAGMENT_BYTES = 1200

FrameT = TypeVar("FrameT")


@dataclass(frozen=True)
class ChunkFragment(Generic[FrameT]):
    """One transport fragment of an encoded frame.

    Slotted: one fragment is allocated per MTU of every encoded frame,
    which at scale is second only to packets themselves.

    Attributes:
        frame_index: Index of the frame this fragment belongs to.
        fragment_index: Position of this fragment within the frame.
        fragment_count: Total fragments of the frame.
        payload_bytes: Bytes of encoded data carried.
        frame: Reference to the full encoded frame.  Fragments share
            the reference; the reassembler only releases the frame to
            the decoder when every fragment has arrived, so carrying
            the reference does not leak undecodable data.
    """

    __slots__ = (
        "frame_index",
        "fragment_index",
        "fragment_count",
        "payload_bytes",
        "frame",
    )

    frame_index: int
    fragment_index: int
    fragment_count: int
    payload_bytes: int
    frame: FrameT


def fragment_frame(
    frame: FrameT,
    size_bytes: int,
    frame_index: int,
    mtu: int = DEFAULT_FRAGMENT_BYTES,
) -> List[ChunkFragment[FrameT]]:
    """Split an encoded frame into MTU-sized fragments.

    The last fragment carries the remainder; every frame yields at
    least one fragment (even a zero-byte frame needs a header).
    """
    if mtu <= 0:
        raise MediaError(f"mtu must be positive, got {mtu}")
    if size_bytes < 0:
        raise MediaError(f"size_bytes must be >= 0, got {size_bytes}")
    count = max(1, (size_bytes + mtu - 1) // mtu)
    fragments = []
    remaining = size_bytes
    for i in range(count):
        chunk = min(mtu, remaining) if i < count - 1 else remaining
        fragments.append(
            ChunkFragment(
                frame_index=frame_index,
                fragment_index=i,
                fragment_count=count,
                payload_bytes=max(chunk, 1),
                frame=frame,
            )
        )
        remaining -= chunk
    return fragments


class Reassembler(Generic[FrameT]):
    """Collects fragments into frames; detects losses by progress.

    When a later frame completes while earlier frames are still
    incomplete, the earlier ones are declared lost (real-time media
    does not retransmit).  Callbacks:

    * ``on_frame(frame)`` -- a frame completed, in arrival order,
    * ``on_lost(frame_index)`` -- a frame was abandoned.
    """

    def __init__(
        self,
        on_frame: Callable[[FrameT], None],
        on_lost: Optional[Callable[[int], None]] = None,
        reorder_window: int = 2,
        fec_tolerance: float = 0.0,
    ) -> None:
        if reorder_window < 0:
            raise MediaError("reorder_window must be >= 0")
        if not 0.0 <= fec_tolerance < 1.0:
            raise MediaError("fec_tolerance must be in [0, 1)")
        self._on_frame = on_frame
        self._on_lost = on_lost
        self._reorder_window = reorder_window
        self._fec_tolerance = fec_tolerance
        self._pending: Dict[int, Set[int]] = {}
        self._frame_refs: Dict[int, FrameT] = {}
        self._fragment_counts: Dict[int, int] = {}
        self._delivered: Set[int] = set()
        self.frames_completed = 0
        self.frames_lost = 0
        self.fragments_received = 0

    def push(self, fragment: ChunkFragment[FrameT]) -> None:
        """Accept one fragment.

        A frame is delivered once its missing-fragment fraction is
        within ``fec_tolerance`` -- the model of the forward error
        correction and NACK retransmission real-time stacks use, which
        lets streams survive light loss (the unconstrained and
        lightly-capped scenarios) while heavy overload still starves
        frames entirely.
        """
        self.fragments_received += 1
        index = fragment.frame_index
        if index in self._delivered:
            return
        needed = self._pending.get(index)
        if needed is None:
            needed = set(range(fragment.fragment_count))
            self._pending[index] = needed
            self._frame_refs[index] = fragment.frame
            self._fragment_counts[index] = fragment.fragment_count
        needed.discard(fragment.fragment_index)
        tolerated = int(self._fec_tolerance * self._fragment_counts[index])
        if len(needed) <= tolerated:
            frame = self._frame_refs.pop(index)
            del self._pending[index]
            del self._fragment_counts[index]
            self._delivered.add(index)
            self.frames_completed += 1
            self._expire_older_than(index - self._reorder_window)
            self._on_frame(frame)

    def _expire_older_than(self, horizon: int) -> None:
        stale = [i for i in self._pending if i < horizon]
        for index in sorted(stale):
            del self._pending[index]
            del self._frame_refs[index]
            del self._fragment_counts[index]
            self.frames_lost += 1
            if self._on_lost is not None:
                self._on_lost(index)
        # Bound the delivered-set so very long sessions stay O(window).
        if len(self._delivered) > 4096:
            cutoff = max(self._delivered) - 2048
            self._delivered = {i for i in self._delivered if i >= cutoff}

    def flush(self) -> None:
        """Abandon all incomplete frames (end of session)."""
        self._expire_older_than(float("inf"))  # type: ignore[arg-type]
