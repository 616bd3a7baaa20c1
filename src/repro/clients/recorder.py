"""Desktop recorder: the platform-agnostic QoE recording of Section 3.1.

"We run a videoconferencing client in full screen mode, and use
simplescreenrecorder to record the desktop screen with audio, within a
cloud VM itself."  The recorder samples the client's rendered output at
its own frame clock, which is what makes the approach platform-agnostic
-- and also what introduces the recording artefacts the paper's
post-processing must undo (UI widgets over the padding, resampling,
start-time offset).

We model those artefacts explicitly:

* at every recorder tick the most recently decoded frame is grabbed
  (a frozen stream yields repeated frames, exactly as on screen),
* client UI widgets are drawn into the padding margin,
* the screen-scaling round trip (render at desktop resolution, record,
  scale back) is applied as a down/up resample.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..errors import SessionError
from ..media.frames import FrameSpec
from ..media.padding import pad_size, resize_frames
from ..media.video_codec import VideoDecoder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .client import BaseClient

#: Luma of UI widget rectangles drawn over the padding.
WIDGET_VALUE = 52

#: Default screen-scaling round-trip factor (desktop render + capture).
DEFAULT_RESAMPLE = 0.85


class RecordedFrames(Sequence):
    """Lazy, read-only view of a recorder's frames, in tick order.

    ``len`` is the tick count.  Integer and slice reads apply the
    screen-scaling round trip only to the ticks they touch (a slice
    resamples its missing frames as one batch); each distinct grab is
    resolved and resampled once and then cached, so ticks that grabbed
    the same screen share one non-writeable array.  Slices return
    lists.  The view is live: ticks recorded after it was taken show up
    in later reads.
    """

    def __init__(self, recorder: "DesktopRecorder") -> None:
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._recorder._tick_grabs)

    def __getitem__(self, index):
        ticks = range(len(self))[index]
        if isinstance(index, slice):
            return self._recorder._frames_at(ticks)
        return self._recorder._frames_at((ticks,))[0]

    def __iter__(self):
        return iter(self[:])


class DesktopRecorder:
    """Samples a decoded video flow at a fixed recording frame rate.

    Ticks are scheduled at absolute multiples of the frame period from
    the recording start, so timestamps stay exact over arbitrarily
    long sessions (repeated relative ``schedule(1/fps)`` calls would
    accumulate float rounding error).  Ticks only note what the screen
    showed: consecutive ticks that grabbed the same decoder output share
    one grab.  Rendering (UI widgets) and the screen-scaling round trip
    run when :attr:`frames` is read, once per grab and only for the
    ticks a read touches -- scoring reads a window of the recording.

    Attributes:
        frames: Recorded (uint8) frames, in tick order (a lazy
            :class:`RecordedFrames` view).
        timestamps: Simulation times of each recorded frame.
        stale_flags: Per-tick freeze markers: ``True`` when the grab
            repeated the previous screen content (the decoder produced
            no new frame since the last tick) -- the raw data for
            per-phase freeze summaries under dynamic conditions.
    """

    def __init__(
        self,
        client: "BaseClient",
        spec: FrameSpec,
        pad_fraction: float,
        record_fps: Optional[int] = None,
        resample_factor: float = DEFAULT_RESAMPLE,
        draw_widgets: bool = True,
    ) -> None:
        if not 0.0 < resample_factor <= 1.0:
            raise SessionError("resample_factor must be in (0, 1]")
        self._client = client
        self.spec = spec
        self.pad_fraction = pad_fraction
        self.record_fps = record_fps if record_fps is not None else spec.fps
        self.resample_factor = resample_factor
        self.draw_widgets = draw_widgets
        self.timestamps: List[float] = []
        self.stale_flags: List[bool] = []
        #: Distinct grabs: a decoder event-count token when decoding is
        #: deferred, else the decoder's rendered frame (or ``None``).
        self._grabs: List[object] = []
        #: Per tick, the index of its grab in ``_grabs``.
        self._tick_grabs: List[int] = []
        #: Grab index -> its rendered, resampled, read-only frame.
        self._resampled: Dict[int, np.ndarray] = {}
        self._frames = RecordedFrames(self)
        self._decoder: Optional[VideoDecoder] = None
        self._running = False
        self._stop_at = 0.0
        self._record_start = 0.0
        self._ticker = None
        self._frames_seen = 0

    @property
    def frames(self) -> RecordedFrames:
        """Recorded frames, with the capture resample applied on read."""
        return self._frames

    def frames_head(self, count: int) -> List[np.ndarray]:
        """The first ``count`` recorded frames (``frames[:count]``)."""
        return self.frames[:count]

    def start(
        self, decoder: VideoDecoder, duration_s: float, start_delay_s: float = 0.0
    ) -> None:
        """Record the output of ``decoder`` for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise SessionError("recording duration must be positive")
        self._decoder = decoder
        simulator = self._client.host.network.simulator
        self._running = True
        simulator.schedule(start_delay_s, self._begin, duration_s)

    def _begin(self, duration_s: float) -> None:
        simulator = self._client.host.network.simulator
        self._record_start = simulator.now
        self._stop_at = simulator.now + duration_s
        self._ticker = simulator.schedule_periodic(
            None, self._tick, rate=self.record_fps
        )

    def stop(self) -> None:
        """Stop recording at the next tick."""
        self._running = False

    def _tick(self) -> "bool | None":
        simulator = self._client.host.network.simulator
        if not self._running or simulator.now >= self._stop_at:
            return False
        decoder = self._decoder
        if decoder.defer:
            # Deferred decode: grabbing last_frame here would force a
            # materialise per tick.  Park the decoder's event count as
            # a token instead; a read resolves it to the exact frame
            # this tick would have grabbed.  The stale flag reads the
            # (eagerly exact) metadata state machine.
            grab = decoder.events_seen
            repeat = bool(self._grabs) and grab == self._grabs[-1]
            has_output = decoder.has_output
        else:
            # last_frame is memoised per reference, so an unchanged
            # screen hands back the very same array.
            grab = decoder.last_frame
            repeat = bool(self._grabs) and grab is self._grabs[-1]
            has_output = grab is not None
        decoded = decoder.frames_decoded
        self.stale_flags.append(not has_output or decoded == self._frames_seen)
        self._frames_seen = decoded
        if not repeat:
            self._grabs.append(grab)
        self._tick_grabs.append(len(self._grabs) - 1)
        self.timestamps.append(simulator.now)
        return None

    # ----------------------------------------------------------------- #
    # Screen rendering + capture model.
    # ----------------------------------------------------------------- #

    def _frames_at(self, ticks: "Sequence[int]") -> List[np.ndarray]:
        """The recorded frames of ``ticks``, resampling missing grabs.

        Grabs not read before are rendered and put through the
        screen-scaling round trip as one ``(T, H, W)`` stack per frame
        shape -- bit-compatible with resizing each frame on its own.
        """
        grab_ids = [self._tick_grabs[tick] for tick in ticks]
        missing = sorted(set(grab_ids).difference(self._resampled))
        if missing:
            rendered = [self._render(self._grabs[grab]) for grab in missing]
            if self.resample_factor < 1.0:
                small_shape = (
                    max(16, int(self.spec.height * self.resample_factor)),
                    max(16, int(self.spec.width * self.resample_factor)),
                )
                for shape in {frame.shape for frame in rendered}:
                    members = [
                        i for i, frame in enumerate(rendered)
                        if frame.shape == shape
                    ]
                    stack = np.stack([rendered[i] for i in members])
                    resampled = resize_frames(
                        resize_frames(stack, small_shape), self.spec.shape
                    )
                    for i, frame in zip(members, resampled):
                        rendered[i] = frame
            for grab, frame in zip(missing, rendered):
                # Ticks sharing a grab share this array: keep it
                # immutable so no read can change a sibling tick.
                frame.setflags(write=False)
                self._resampled[grab] = frame
        return [self._resampled[grab] for grab in grab_ids]

    def _render(self, grab: object) -> np.ndarray:
        """The screen a grab showed: decoded frame plus UI widgets."""
        decoder = self._decoder
        frame = decoder.frame_at_token(grab) if decoder.defer else grab
        if frame is None:
            # Nothing rendered yet: the desktop shows the meeting UI on
            # a dark background.
            rendered = np.zeros(self.spec.shape, dtype=np.uint8)
        else:
            rendered = frame.copy()
        if self.draw_widgets:
            rendered = self._overlay_widgets(rendered)
        return rendered

    def _overlay_widgets(self, frame: np.ndarray) -> np.ndarray:
        """Draw client UI chrome confined to the padding margin.

        A control toolbar along the bottom padding and a self-view
        thumbnail in the top-right padding corner -- the widgets that
        "partially block" the screen in Section 4.3 and motivate the
        padding workflow of Figure 13.
        """
        height, width = frame.shape
        pad_h = pad_size(height, self.pad_fraction / (1 + 2 * self.pad_fraction))
        pad_w = pad_size(width, self.pad_fraction / (1 + 2 * self.pad_fraction))
        if pad_h >= 4:
            toolbar_top = height - int(pad_h * 0.8)
            toolbar_bottom = height - int(pad_h * 0.2)
            frame[toolbar_top:toolbar_bottom, width // 4 : 3 * width // 4] = (
                WIDGET_VALUE
            )
        if pad_h >= 4 and pad_w >= 4:
            frame[: int(pad_h * 0.9), width - int(pad_w * 0.9) :] = WIDGET_VALUE
        return frame
