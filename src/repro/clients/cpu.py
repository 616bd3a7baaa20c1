"""Mobile CPU usage model (Section 5, Figure 19a, Table 4).

CPU usage of a videoconferencing client decomposes into mechanistic
terms the paper's observations let us calibrate:

* a per-platform pipeline overhead (signalling, compositing, codecs
  warm), much higher for Webex when the screen is off ("Webex still
  requires about 125%"),
* decode cost proportional to the incoming stream's bitrate (a HIGH
  stream around 1 Mbps costs roughly 60 % of a core; LOW tiles cost
  proportionally less),
* render cost for the active layout (full screen vs gallery tiles),
* camera capture cost when the device streams its own video (about
  +100 % on the S10 with its better sensor, +50 % on the J3),
* per-thumbnail costs on platforms that show previews (Meet).

The low-end J3 runs the same workload on slower cores: demand scales
up by ``slow_core_factor`` and saturates at ``throttle_cap_pct`` --
which is why all three clients converge to ~200 % on the J3 while Meet
"only grabs more resources if available" on the S10.

Usage is sampled every three seconds with Gaussian noise, exactly like
the paper's adb-based monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import to_mbps

#: Decode cost, percent of a core per Mbps of incoming video.
DECODE_PCT_PER_MBPS = 60.0

#: Render cost of the layouts, percent.
RENDER_FULLSCREEN_PCT = 30.0
RENDER_GALLERY_PCT = 10.0

#: Camera capture cost by device class, percent.
CAMERA_PCT = {"mobile-highend": 100.0, "mobile-lowend": 50.0}

#: Per-platform pipeline overheads, percent.
PLATFORM_OVERHEAD_PCT = {"zoom": 70.0, "webex": 70.0, "meet": 70.0}

#: Overhead that remains when the screen is off (audio-only); the
#: asymmetry is the paper's Webex finding.
SCREEN_OFF_OVERHEAD_PCT = {"zoom": 30.0, "webex": 120.0, "meet": 35.0}

#: Extra cost per rendered thumbnail/preview tile, percent.
THUMBNAIL_PCT = {"zoom": 10.0, "webex": 8.0, "meet": 12.0}

#: Gallery-mode penalty for clients whose gallery is inefficient:
#: Webex's gallery "even caus[es] a slight CPU increase on S10", and
#: Meet's approximated gallery changes nothing (no real support).
GALLERY_PENALTY_PCT = {"zoom": 0.0, "webex": 60.0, "meet": 20.0}


@dataclass(frozen=True)
class CpuSample:
    """One 3-second CPU sample."""

    time_s: float
    usage_pct: float


@dataclass
class CpuModel:
    """Analytic CPU-usage model for one device running one client.

    Attributes:
        platform: ``zoom``/``webex``/``meet``.
        device: ``mobile-highend`` (S10) or ``mobile-lowend`` (J3).
        slow_core_factor: Demand multiplier on the low-end device.
        throttle_cap_pct: Saturation ceiling on the low-end device.
        noise_pct: Std-dev of per-sample Gaussian noise.
    """

    platform: str
    device: str
    slow_core_factor: float = 1.35
    throttle_cap_pct: float = 215.0
    noise_pct: float = 9.0

    def __post_init__(self) -> None:
        if self.platform not in PLATFORM_OVERHEAD_PCT:
            raise ConfigurationError(f"unknown platform: {self.platform!r}")
        if self.device not in ("mobile-highend", "mobile-lowend"):
            raise ConfigurationError(f"unknown device: {self.device!r}")

    def demand_pct(
        self,
        incoming_video_bps: float,
        view_mode: str,
        camera_on: bool,
        screen_on: bool,
        thumbnail_count: int = 0,
    ) -> float:
        """Deterministic CPU demand for the given client state."""
        if not screen_on:
            demand = SCREEN_OFF_OVERHEAD_PCT[self.platform]
            if camera_on:
                demand += CAMERA_PCT[self.device]
            return self._device_scale(demand)
        demand = PLATFORM_OVERHEAD_PCT[self.platform]
        demand += DECODE_PCT_PER_MBPS * to_mbps(incoming_video_bps)
        if view_mode == "gallery":
            demand += RENDER_GALLERY_PCT + GALLERY_PENALTY_PCT[self.platform]
        else:
            demand += RENDER_FULLSCREEN_PCT
        demand += THUMBNAIL_PCT[self.platform] * max(0, thumbnail_count)
        if camera_on:
            demand += CAMERA_PCT[self.device]
        return self._device_scale(demand)

    def _device_scale(self, demand: float) -> float:
        if self.device == "mobile-lowend":
            return min(demand * self.slow_core_factor, self.throttle_cap_pct)
        return demand

    def sample(
        self,
        rng: np.random.Generator,
        time_s: float,
        incoming_video_bps: float,
        view_mode: str,
        camera_on: bool,
        screen_on: bool,
        thumbnail_count: int = 0,
    ) -> CpuSample:
        """One noisy sample, as the adb monitor would read it."""
        demand = self.demand_pct(
            incoming_video_bps, view_mode, camera_on, screen_on, thumbnail_count
        )
        noisy = max(0.0, demand + float(rng.normal(0.0, self.noise_pct)))
        return CpuSample(time_s=time_s, usage_pct=noisy)
