"""Sender-side rate control and bandwidth adaptation policies.

Each platform decides (a) the target video bitrate for a sender given
the session context, and (b) how that target reacts to congestion
feedback.  The paper observes three very different personalities
(Sections 4.3-4.4):

* **Zoom** holds its rate nearly constant across motion levels (5-10 %
  LM/HM difference) and defends quality as caps tighten, then falls off
  a cliff at 250 Kbps -- it will not track arbitrarily low rates.
* **Webex** streams at a virtually constant, highest-of-the-three rate
  and barely adapts; under caps of 1 Mbps or less its video "frequently
  stalls and even completely disappears".
* **Meet** is the most dynamic: very high rate for two-party sessions,
  much lower for multi-party, large per-session fluctuation, and
  graceful degradation under caps.

:class:`SenderRateState` implements the feedback loop; the per-platform
constants live in each :class:`AdaptationPolicy` instance created by
the platform modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError


@dataclass(frozen=True)
class RateContext:
    """Everything a platform looks at when choosing a sender's rate.

    Attributes:
        num_participants: Total clients in the session (the paper's N).
        motion: ``"low"`` or ``"high"`` -- content class of the feed.
            Black-box encoders estimate this from their own output;
            our senders pass the feed's label.
        device: ``"vm"``, ``"mobile-highend"`` or ``"mobile-lowend"``.
        session_index: Index of the session in an experiment, used by
            platforms with per-session rate variation (Meet).
    """

    num_participants: int = 2
    motion: str = "low"
    device: str = "vm"
    session_index: int = 0

    def __post_init__(self) -> None:
        if self.num_participants < 2:
            raise ConfigurationError("a session needs at least 2 participants")
        if self.motion not in ("low", "high"):
            raise ConfigurationError(f"unknown motion class: {self.motion!r}")
        if self.device not in ("vm", "mobile-highend", "mobile-lowend"):
            raise ConfigurationError(f"unknown device class: {self.device!r}")


@dataclass(frozen=True)
class AdaptationPolicy:
    """How a sender's target rate responds to congestion feedback.

    The loop runs on receiver feedback reports (loss fraction over the
    last window).  When smoothed loss exceeds ``loss_threshold`` for
    ``patience_reports`` consecutive reports, the target is multiplied
    by ``decrease_factor`` (bounded below by ``floor_bps``).  When loss
    stays under ``recovery_threshold``, the target climbs back by
    ``increase_factor`` per report toward the context rate.

    A policy with ``decrease_factor=1.0`` never reduces -- Webex's
    near-non-adaptive behaviour is modelled with a factor close to 1
    and very high patience.
    """

    loss_threshold: float = 0.05
    recovery_threshold: float = 0.01
    decrease_factor: float = 0.7
    increase_factor: float = 1.05
    floor_bps: float = 100_000.0
    patience_reports: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.decrease_factor <= 1.0:
            raise ConfigurationError("decrease_factor must be in (0, 1]")
        if self.increase_factor < 1.0:
            raise ConfigurationError("increase_factor must be >= 1")
        if self.floor_bps <= 0:
            raise ConfigurationError("floor_bps must be positive")
        if self.patience_reports < 1:
            raise ConfigurationError("patience_reports must be >= 1")


class SenderRateState:
    """Per-sender adaptive rate: base target + congestion response.

    Loss reports arrive from *every* receiver (reporter); the state
    keeps per-reporter consecutive-congestion counts.  The sender slows
    down when any single receiver stays congested for the policy's
    patience, and only climbs back while its *worst* receiver is clean
    -- one healthy receiver must not mask another's congestion.

    Attributes:
        base_bps: The context rate the platform would use on an
            unconstrained path.
        current_bps: The present target after adaptation.
    """

    def __init__(self, base_bps: float, policy: AdaptationPolicy) -> None:
        if base_bps <= 0:
            raise ConfigurationError("base rate must be positive")
        self.base_bps = float(base_bps)
        self.policy = policy
        self.current_bps = float(base_bps)
        self._congested_reports: dict[str, int] = {}
        self._last_loss: dict[str, float] = {}
        self.decreases = 0
        self.increases = 0

    def on_feedback(
        self, loss_fraction: float, reporter: str = "receiver"
    ) -> Optional[float]:
        """Process one loss report; returns the new target if changed."""
        if not 0.0 <= loss_fraction <= 1.0:
            raise ConfigurationError(f"loss fraction out of range: {loss_fraction}")
        policy = self.policy
        self._last_loss[reporter] = loss_fraction
        if loss_fraction > policy.loss_threshold:
            count = self._congested_reports.get(reporter, 0) + 1
            if count >= policy.patience_reports:
                self._congested_reports[reporter] = 0
                new_rate = max(
                    policy.floor_bps, self.current_bps * policy.decrease_factor
                )
                if new_rate < self.current_bps:
                    self.current_bps = new_rate
                    self.decreases += 1
                    return self.current_bps
                return None
            self._congested_reports[reporter] = count
            return None
        self._congested_reports[reporter] = 0
        worst = max(self._last_loss.values())
        if (
            worst <= policy.recovery_threshold
            and self.current_bps < self.base_bps
        ):
            self.current_bps = min(
                self.base_bps, self.current_bps * policy.increase_factor
            )
            self.increases += 1
            return self.current_bps
        return None
