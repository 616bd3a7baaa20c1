"""Battery discharge: power rails and the Monsoon meter (Section 5).

The J3's removable battery is wired to a Monsoon power meter producing
fine-grained current readings.  We model device power as a sum of
rails -- SoC idle, CPU (proportional to utilisation), screen, camera
and radio (base + per-Mbps) -- and the meter integrates sampled power
into a discharge figure in mAh, the unit of Figure 19c.

Calibration anchors from the paper: one hour of conferencing with
camera on drains up to ~40 % of the J3's 2600 mAh battery; screen-off
audio-only roughly halves the drain; the three clients sit within
~10 % of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..units import to_mbps

#: Nominal battery voltage used for mAh conversion.
BATTERY_VOLTAGE = 3.85


@dataclass(frozen=True)
class PowerRailModel:
    """Per-rail power coefficients, in watts.

    Attributes:
        soc_idle_w: Always-on SoC/baseband floor.
        cpu_w_per_100pct: CPU power per 100 % of a core in use.
        screen_w: Display panel at conferencing brightness.
        camera_w: Camera sensor + ISP while capturing.
        radio_base_w: WiFi radio actively associated.
        radio_w_per_mbps: Marginal radio power per Mbps moved.
    """

    soc_idle_w: float = 0.30
    cpu_w_per_100pct: float = 0.45
    screen_w: float = 0.90
    camera_w: float = 0.55
    radio_base_w: float = 0.25
    radio_w_per_mbps: float = 0.18

    def power_w(
        self,
        cpu_pct: float,
        screen_on: bool,
        camera_on: bool,
        traffic_bps: float,
    ) -> float:
        """Instantaneous device power for one state."""
        power = self.soc_idle_w
        power += self.cpu_w_per_100pct * max(cpu_pct, 0.0) / 100.0
        if screen_on:
            power += self.screen_w
        if camera_on:
            power += self.camera_w
        power += self.radio_base_w + self.radio_w_per_mbps * to_mbps(traffic_bps)
        return power


@dataclass
class BatteryModel:
    """A battery with finite capacity (the J3's removable 2600 mAh)."""

    capacity_mah: float = 2600.0
    voltage: float = BATTERY_VOLTAGE

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0 or self.voltage <= 0:
            raise ConfigurationError("battery parameters must be positive")

    def drain_fraction(self, discharge_mah: float) -> float:
        """Fraction of capacity consumed by a discharge."""
        return discharge_mah / self.capacity_mah


@dataclass(frozen=True)
class PowerReading:
    """One Monsoon sample."""

    time_s: float
    power_w: float

    @property
    def current_ma(self) -> float:
        """Instantaneous current draw in milliamps."""
        return self.power_w / BATTERY_VOLTAGE * 1000.0


class MonsoonMeter:
    """Integrates sampled power into discharge (mAh).

    The real meter samples at 5 kHz; the model samples at the rate the
    experiment schedules (default 10 Hz) with small measurement noise,
    and integrates with the trapezoid rule.  At conferencing power
    levels the integration error at 10 Hz is far below the meter's own
    tolerance.
    """

    def __init__(self, rng: np.random.Generator, noise_w: float = 0.02) -> None:
        if noise_w < 0:
            raise ConfigurationError("noise_w must be >= 0")
        self._rng = rng
        self._noise_w = noise_w
        self.readings: List[PowerReading] = []

    def record(self, time_s: float, power_w: float) -> PowerReading:
        """Take one sample (noise added as measurement error)."""
        measured = max(0.0, power_w + float(self._rng.normal(0.0, self._noise_w)))
        reading = PowerReading(time_s=time_s, power_w=measured)
        self.readings.append(reading)
        return reading

    def discharge_mah(self) -> float:
        """Total integrated discharge over the recorded window."""
        if len(self.readings) < 2:
            return 0.0
        times = np.array([r.time_s for r in self.readings])
        currents = np.array([r.current_ma for r in self.readings])
        hours = (times - times[0]) / 3600.0
        return float(np.trapezoid(currents, hours))
