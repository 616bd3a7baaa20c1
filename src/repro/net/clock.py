"""Per-host clocks with bounded synchronisation error.

The paper's lag measurement correlates packet timestamps recorded on
*different* machines, which "requires accurate clock synchronization
among deployed clients"; it relies on the clouds' stratum-1 time-sync
services (Section 3.1).  We model each host clock as the true simulation
time plus a small constant offset and a tiny frequency drift, drawn from
distributions representative of cloud PTP/NTP sync (sub-millisecond).

Captures timestamp packets with :meth:`Clock.local_time`, so measured
lags inherit realistic clock error exactly as in the real testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import us


@dataclass(frozen=True)
class Clock:
    """A host clock: ``local = true + offset + drift_ppm * true``.

    Attributes:
        offset_s: Constant offset from true time, seconds.
        drift_ppm: Frequency error in parts-per-million.
    """

    offset_s: float = 0.0
    drift_ppm: float = 0.0

    def local_time(self, true_time: float) -> float:
        """Map true simulation time to this host's local timestamp."""
        return true_time + self.offset_s + self.drift_ppm * 1e-6 * true_time

    def error_at(self, true_time: float) -> float:
        """Absolute clock error at a given true time."""
        return self.local_time(true_time) - true_time


class SyncedClockFactory:
    """Draws clocks typical of cloud time-sync services.

    Offsets are Gaussian with a standard deviation defaulting to 100 us
    (Azure/AWS time sync keeps VMs well under 1 ms from true time), and
    drifts are a few ppm.  A dedicated factory keeps the randomness
    seedable per experiment.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        offset_std_s: float = us(100),
        drift_std_ppm: float = 2.0,
    ) -> None:
        if offset_std_s < 0 or drift_std_ppm < 0:
            raise ConfigurationError("clock error scales must be non-negative")
        self._rng = rng
        self._offset_std_s = offset_std_s
        self._drift_std_ppm = drift_std_ppm

    def make_clock(self) -> Clock:
        """Draw a fresh clock for one host."""
        offset = float(self._rng.normal(0.0, self._offset_std_s))
        drift = float(self._rng.normal(0.0, self._drift_std_ppm))
        return Clock(offset_s=offset, drift_ppm=drift)


#: A perfectly synchronised clock, useful in unit tests.
PERFECT_CLOCK = Clock(offset_s=0.0, drift_ppm=0.0)
