"""Zoom service model.

Observed behaviour reproduced here (paper sections in parentheses):

* single service endpoint per session on UDP/8801; endpoints change
  (new IP) every session -- 20 distinct endpoints over 20 sessions
  (4.2),
* two-party calls switch to direct peer-to-peer streaming on ephemeral
  ports (4.2, footnote 2),
* US-only relay infrastructure: sessions relay near the meeting
  creator's US region; non-US sessions are load-balanced across
  US sites, producing the three distinct RTT bands of Figs. 10a/11a
  (4.2.2),
* data rates: ~1 Mbps P2P down at N=2, ~0.7 Mbps relayed at N>2, only
  5-10 % lower for low motion; mobile clients stick to a ~750 Kbps
  default; gallery view halves rate via LOW tiles (~165 Kbps each)
  (4.3.1, 5),
* audio at ~90 Kbps with robust concealment: MOS stays flat under caps
  (4.4),
* adaptation defends quality down to a floor of a few hundred Kbps,
  below which quality collapses -- the sudden Figure 17 drop at
  250 Kbps (4.4).
"""

from __future__ import annotations

from typing import Dict, List

from ..net.address import ZOOM_UDP_PORT
from .base import (
    ClientBinding,
    PlatformModel,
    RelayTiming,
    ServiceRelay,
    StreamLayer,
)
from .ratecontrol import AdaptationPolicy, RateContext

#: Relay sites; non-US sessions are balanced across all three.
US_SITES = ("zoom-us-east", "zoom-us-central", "zoom-us-west")

#: Baseline rates in bits/second (see module docstring for sources).
P2P_HIGH_BPS = 1_000_000.0
RELAYED_HIGH_BPS = 700_000.0
MOBILE_HIGH_BPS = 750_000.0
LOW_LAYER_BPS = 165_000.0
#: Low-motion rate discount ("least difference, 5-10%").
LOW_MOTION_FACTOR = 0.93


class ZoomModel(PlatformModel):
    """Zoom: per-session US relays, P2P at N=2, quality-defending."""

    name = "zoom"
    udp_port = ZOOM_UDP_PORT
    audio_bps = 90_000.0
    audio_concealment = "repeat"
    relay_timing = RelayTiming(
        base_delay_s=0.008,
        jitter_scale_s=0.0012,
        session_load_scale_s=0.0,
    )
    adaptation = AdaptationPolicy(
        loss_threshold=0.05,
        recovery_threshold=0.01,
        decrease_factor=0.6,
        increase_factor=1.03,
        floor_bps=150_000.0,
        patience_reports=2,
    )

    def uses_p2p(self, num_participants: int) -> bool:
        return num_participants == 2

    def thumbnails_in_fullscreen(self) -> int:
        # Section 5: full-screen Zoom pre-buffers a couple of extra
        # streams so view switches are instant (+5% rate, +12% CPU).
        return 2

    def forward_fraction(self, receiver_view, layer, context) -> float:
        """Background (pre-buffered) streams are heavily throttled.

        In full-screen mode the extra LOW-layer streams exist only to
        make view switches instant, so the relay forwards them at a
        small fraction of the gallery-tile rate (Table 4 shows only a
        ~5 % rate increase from the buffering).
        """
        if layer is StreamLayer.LOW and receiver_view.view_mode == "fullscreen":
            return 0.25
        return 1.0

    def video_rates(self, context: RateContext) -> Dict[StreamLayer, float]:
        if context.device.startswith("mobile"):
            high = MOBILE_HIGH_BPS
        elif context.num_participants == 2:
            high = P2P_HIGH_BPS
        else:
            high = RELAYED_HIGH_BPS
        if context.motion == "low":
            high *= LOW_MOTION_FACTOR
        return {StreamLayer.HIGH: high, StreamLayer.LOW: LOW_LAYER_BPS}

    def _select_relays(
        self, clients: List[ClientBinding], host_name: str, session_id: str
    ) -> Dict[str, ServiceRelay]:
        host_binding = next(c for c in clients if c.name == host_name)
        location = host_binding.host.location
        # US hosts get a relay near their region; non-US sessions are
        # load-balanced uniformly across the US sites, which is what
        # spreads European RTTs into the three bands of Fig. 10a.
        if self._is_us(location):
            site = self.directory.nearest_site(location, list(US_SITES))
        else:
            site = str(self.rng.choice(list(US_SITES)))
        relay_host = self.directory.session_relay(site, reuse_probability=0.0)
        relay = ServiceRelay.install(
            relay_host, self.udp_port, self.relay_timing, self.rng
        )
        return {c.name: relay for c in clients}

    @staticmethod
    def _is_us(location) -> bool:
        """Continental-US test by longitude/latitude box."""
        return -130.0 <= location.lon <= -60.0 and 20.0 <= location.lat <= 55.0
