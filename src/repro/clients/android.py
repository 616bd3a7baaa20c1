"""Android device clients: the Samsung S10 and J3 of Table 2.

An :class:`AndroidClient` is a :class:`~repro.clients.client.BaseClient`
whose host sits behind the Raspberry-Pi WiFi at the residential
vantage point, instrumented the way Section 5 instruments the phones:

* CPU usage sampled every three seconds through the adb monitor
  (:class:`~repro.clients.cpu.CpuModel`),
* download data rate measured from its packet capture,
* battery discharge integrated by the Monsoon meter (J3 only in the
  paper; the model allows either),
* UI state (full screen / gallery / screen-off, camera on/off) that
  both drives subscriptions and feeds the resource models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..net.node import Host
from ..platforms.base import ViewContext
from .client import BaseClient
from .cpu import CpuModel, CpuSample
from .power import BatteryModel, MonsoonMeter, PowerRailModel

#: CPU sampling period of the adb-based monitor.
CPU_SAMPLE_PERIOD_S = 3.0

#: Monsoon sampling period used by the model.
POWER_SAMPLE_PERIOD_S = 0.1


@dataclass(frozen=True)
class AndroidDeviceSpec:
    """Table 2: Android device characteristics.

    Attributes:
        name: Device label.
        android_version: OS major version.
        cpu_cores: Number of cores ("Quad-core"/"Octa-core").
        memory_gb: RAM in GB.
        screen_resolution: (width, height) pixels.
        device_class: ``mobile-highend`` or ``mobile-lowend``.
        battery_mah: Battery capacity (J3's removable pack is 2600).
    """

    name: str
    android_version: int
    cpu_cores: int
    memory_gb: int
    screen_resolution: tuple[int, int]
    device_class: str
    battery_mah: float

    def __post_init__(self) -> None:
        if self.device_class not in ("mobile-highend", "mobile-lowend"):
            raise ConfigurationError(f"bad device class: {self.device_class!r}")


GALAXY_J3 = AndroidDeviceSpec(
    name="Galaxy J3",
    android_version=8,
    cpu_cores=4,
    memory_gb=2,
    screen_resolution=(720, 1280),
    device_class="mobile-lowend",
    battery_mah=2600.0,
)

GALAXY_S10 = AndroidDeviceSpec(
    name="Galaxy S10",
    android_version=11,
    cpu_cores=8,
    memory_gb=8,
    screen_resolution=(1440, 3040),
    device_class="mobile-highend",
    battery_mah=3400.0,
)

#: Table 2 registry by short name.
ANDROID_DEVICES = {"J3": GALAXY_J3, "S10": GALAXY_S10}


class AndroidClient(BaseClient):
    """A phone participant with resource instrumentation."""

    def __init__(
        self,
        name: str,
        host: Host,
        device: AndroidDeviceSpec,
        platform_name: str,
        rng: np.random.Generator,
        view: Optional[ViewContext] = None,
        camera_on: bool = False,
        screen_on: bool = True,
    ) -> None:
        view = view if view is not None else ViewContext(
            view_mode="fullscreen", device=device.device_class
        )
        super().__init__(name, host, view)
        self.device = device
        self.platform_name = platform_name
        self.camera_on = camera_on
        self.screen_on = screen_on
        self.rng = rng
        self.cpu_model = CpuModel(platform=platform_name, device=device.device_class)
        self.power_rails = PowerRailModel()
        self.battery = BatteryModel(capacity_mah=device.battery_mah)
        self.meter = MonsoonMeter(rng)
        self.cpu_samples: List[CpuSample] = []
        self._monitor_running = False
        self._monitor_stop_at = 0.0
        self._video_bytes_snapshot = 0
        self._total_bytes_snapshot = 0
        self._last_video_bps = 0.0
        self._last_total_bps = 0.0
        self.thumbnail_count = 0

    # ----------------------------------------------------------------- #
    # Scenario state.
    # ----------------------------------------------------------------- #

    @property
    def effective_view_mode(self) -> str:
        """UI mode fed to the resource models."""
        if not self.screen_on:
            return "audio-only"
        return self.view.view_mode

    def scenario_label(self, motion: str) -> str:
        """The paper's scenario naming (LM, HM, LM-View, ...)."""
        prefix = "LM" if motion == "low" else "HM"
        parts = [prefix]
        if self.camera_on:
            parts.append("Video")
        if self.view.view_mode == "gallery":
            parts.append("View")
        if not self.screen_on:
            parts.append("Off")
        return "-".join(parts)

    # ----------------------------------------------------------------- #
    # Resource monitoring.
    # ----------------------------------------------------------------- #

    def start_monitoring(self, duration_s: float, start_delay_s: float = 0.0) -> None:
        """Begin CPU and power sampling for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise ConfigurationError("monitoring duration must be positive")
        simulator = self.host.network.simulator
        self._monitor_running = True
        simulator.schedule(start_delay_s, self._begin_monitor, duration_s)

    def _begin_monitor(self, duration_s: float) -> None:
        simulator = self.host.network.simulator
        self._monitor_stop_at = simulator.now + duration_s
        self._cpu_tick()
        self._power_tick()

    def _take_rate_window(self) -> None:
        """Refresh smoothed rates from the receiver engine's counters.

        Reading the engine's per-flow byte totals and differencing
        against the last snapshot is O(flows) per sample, unlike
        re-scanning the packet capture.
        """
        video_bytes = 0
        total_bytes = 0
        for flow_id, stats in self.receiver.flow_stats.items():
            total_bytes += stats.bytes
            if "|v-" in flow_id:
                video_bytes += stats.bytes
        self._last_video_bps = (
            (video_bytes - self._video_bytes_snapshot) * 8.0 / CPU_SAMPLE_PERIOD_S
        )
        self._last_total_bps = (
            (total_bytes - self._total_bytes_snapshot) * 8.0 / CPU_SAMPLE_PERIOD_S
        )
        self._video_bytes_snapshot = video_bytes
        self._total_bytes_snapshot = total_bytes

    def _cpu_tick(self) -> None:
        simulator = self.host.network.simulator
        if not self._monitor_running or simulator.now >= self._monitor_stop_at:
            return
        self._take_rate_window()
        sample = self.cpu_model.sample(
            rng=self.rng,
            time_s=simulator.now,
            incoming_video_bps=self._last_video_bps,
            view_mode=self.effective_view_mode,
            camera_on=self.camera_on,
            screen_on=self.screen_on,
            thumbnail_count=self.thumbnail_count,
        )
        self.cpu_samples.append(sample)
        simulator.schedule(CPU_SAMPLE_PERIOD_S, self._cpu_tick)

    def _power_tick(self) -> None:
        simulator = self.host.network.simulator
        if not self._monitor_running or simulator.now >= self._monitor_stop_at:
            return
        cpu_pct = self.cpu_samples[-1].usage_pct if self.cpu_samples else 50.0
        power = self.power_rails.power_w(
            cpu_pct=cpu_pct,
            screen_on=self.screen_on,
            camera_on=self.camera_on,
            traffic_bps=self._last_total_bps,
        )
        self.meter.record(simulator.now, power)
        simulator.schedule(POWER_SAMPLE_PERIOD_S, self._power_tick)

    def stop_monitoring(self) -> None:
        """Stop the samplers at their next tick."""
        self._monitor_running = False

    # ----------------------------------------------------------------- #
    # Summaries.
    # ----------------------------------------------------------------- #

    def median_cpu_pct(self) -> float:
        """Median CPU usage over the monitored window."""
        if not self.cpu_samples:
            raise ConfigurationError(f"{self.name}: no CPU samples collected")
        return float(np.median([s.usage_pct for s in self.cpu_samples]))

    def discharge_mah(self) -> float:
        """Monsoon-integrated battery discharge."""
        return self.meter.discharge_mah()
