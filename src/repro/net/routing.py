"""The network fabric: moves packets between hosts.

:class:`Network` ties the pieces together -- a simulator, a latency
model, an IP allocator and the set of hosts.  Transmitting a packet
walks the same pipeline a real packet would:

1. serialisation onto the sender's uplink (queueing behind earlier
   packets),
2. propagation across the wide area (geo distance, route inflation,
   per-packet jitter, optional random loss),
3. the receiver's ingress shaper, if a bandwidth cap is installed
   (Section 4.4's tc/ifb position) -- packets may be delayed or
   tail-dropped here,
4. serialisation on the receiver's downlink, then delivery to the
   bound port handler.

All randomness flows through one seeded generator, so experiments are
reproducible end to end (design goal D3).

**The fast lane.**  The slow pipeline costs three heap events per
packet (``_propagate`` at departure, ``_arrive`` at arrival,
``deliver`` at delivery).  Each event exists to pin *stateful* work to
its correct simulation time and global order: rng draws (loss, jitter)
must happen in event order because the generator is shared, and the
destination downlink's virtual clock must be advanced in arrival order
because reservations do not commute.  Whenever a stage provably does
nothing stateful, the fast lane removes its event while reproducing
the remaining work bit-identically:

* If the sender-side stage draws nothing (no base loss, no scripted
  egress loss, zero jitter scale) the ``_propagate`` event is skipped:
  the hop delay is deterministic, so the next stage is scheduled
  directly from ``transmit``.
* If the receiver-side stage draws nothing and has no shaper, the
  ``_arrive`` event is fused into the delivery event: the downlink
  reservation is pushed onto the link's pending-arrival buffer (which
  flushes in arrival order with arithmetic identical to an eager
  reservation -- see :meth:`AccessLink.flush_pending_downlink`) and a
  single fused delivery event is scheduled at the no-backlog delivery
  estimate.  If the flush reveals queueing, the event re-arms itself
  at the true reservation time.

Both fusions are guarded by the links' scheduled-change registries
(:meth:`AccessLink.quiet_through`): a packet whose flight window
overlaps any registered timeline boundary travels the exact slow path,
so conditions are always read (and rng always drawn) at the times and
in the order the slow path would have used.  ``fast_lane_epoch_misses``
counts packets whose destination link was mutated *without*
registration while they were fused in flight -- zero in any scripted
scenario, and the equivalence tests assert it stays zero.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, RoutingError
from .address import IpAllocator
from .clock import Clock, PERFECT_CLOCK
from .geo import GeoPoint, LatencyModel
from .link import AccessLink
from .node import Host
from .packet import Packet
from .simulator import Simulator

#: Process-wide default for new networks; the bit-identity tests (and
#: anyone debugging a suspected fast-lane divergence) flip this off.
FAST_LANE_DEFAULT = True


class Network:
    """A geographic packet network with attached hosts.

    Attributes:
        simulator: The event loop everything runs on.
        latency_model: Distance -> delay model for host pairs.
        base_loss_rate: Probability that any wide-area traversal loses
            the packet (independent of shaper drops).  Default 0: the
            paper's cloud paths are effectively loss-free at the rates
            measured; residential experiments may raise it.
        fast_lane: Whether the fused packet path may engage (results
            are bit-identical either way; disabling it exists for the
            equivalence tests and for debugging).
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        latency_model: Optional[LatencyModel] = None,
        rng: Optional[np.random.Generator] = None,
        base_loss_rate: float = 0.0,
        fast_lane: Optional[bool] = None,
    ) -> None:
        if not 0.0 <= base_loss_rate < 1.0:
            raise ConfigurationError(f"loss rate out of range: {base_loss_rate}")
        self.simulator = simulator if simulator is not None else Simulator()
        self.latency_model = (
            latency_model if latency_model is not None else LatencyModel()
        )
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.base_loss_rate = base_loss_rate
        self.fast_lane = FAST_LANE_DEFAULT if fast_lane is None else fast_lane
        self._hosts_by_ip: Dict[str, Host] = {}
        self._hosts_by_name: Dict[str, Host] = {}
        self._ip_allocator = IpAllocator()
        self._path_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self.packets_lost = 0
        self.packets_shaper_dropped = 0
        self.packets_condition_lost = 0
        self.fast_lane_fused = 0
        self.fast_lane_sender_fused = 0
        self.fast_lane_rearmed = 0
        self.fast_lane_epoch_misses = 0
        #: Packet trains committed in bulk.  Every packet travels on its
        #: own, so this stays 0; it is kept for readers of the counter.
        self.burst_trains = 0

    # ----------------------------------------------------------------- #
    # Topology.
    # ----------------------------------------------------------------- #

    def add_host(
        self,
        name: str,
        location: GeoPoint,
        link: Optional[AccessLink] = None,
        clock: Clock = PERFECT_CLOCK,
        tier: str = "client",
    ) -> Host:
        """Create a host, allocate it an address and attach it.

        Raises :class:`~repro.errors.ConfigurationError` on duplicate
        host names; experiments address hosts by name.
        """
        if name in self._hosts_by_name:
            raise ConfigurationError(f"duplicate host name: {name!r}")
        ip = self._ip_allocator.allocate(tier)
        host = Host(
            name=name,
            ip=ip,
            location=location,
            network=self,
            link=link,
            clock=clock,
        )
        self._hosts_by_ip[ip] = host
        self._hosts_by_name[name] = host
        self._path_cache.clear()
        return host

    def host_by_ip(self, ip: str) -> Host:
        """Look up a host by address."""
        try:
            return self._hosts_by_ip[ip]
        except KeyError:
            raise RoutingError(f"no host with ip {ip!r}") from None

    def host_by_name(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts_by_name[name]
        except KeyError:
            raise RoutingError(f"no host named {name!r}") from None

    def hosts(self) -> list[Host]:
        """All attached hosts, in attach order."""
        return list(self._hosts_by_name.values())

    # ----------------------------------------------------------------- #
    # Path properties.
    # ----------------------------------------------------------------- #

    def _path_params(self, a: Host, b: Host) -> Tuple[float, float]:
        """Cached (base one-way delay, jitter scale) for a host pair.

        Locations and the latency model are fixed after attachment, so
        both values are pure functions of the pair; caching them takes
        a haversine + exp off every packet.  The cached floats are the
        model's own outputs, so downstream arithmetic is unchanged.
        """
        key = (a.ip, b.ip)
        cached = self._path_cache.get(key)
        if cached is None:
            base = self.latency_model.one_way_delay_s(a.location, b.location)
            scale = self.latency_model.jitter_scale_s(a.location, b.location)
            cached = (base, scale)
            self._path_cache[key] = cached
        return cached

    def one_way_delay(self, a: Host, b: Host) -> float:
        """Jitter-free one-way wide-area delay between two hosts.

        Scripted access conditions contribute too: each endpoint's
        link-level latency adder extends the path.  Per-packet jitter
        is drawn only on the packet path (:meth:`_propagate`).
        """
        base, _scale = self._path_params(a, b)
        return base + (a.link.extra_latency_s + b.link.extra_latency_s)

    def nominal_rtt(self, a: Host, b: Host) -> float:
        """Jitter-free round-trip time between two hosts."""
        return 2.0 * self.one_way_delay(a, b)

    # ----------------------------------------------------------------- #
    # Transmission pipeline.
    # ----------------------------------------------------------------- #

    def _fast_plan(self, source: Host, destination: Host) -> list:
        """Recompute a pair's full-fusion plan (the cache-miss path).

        A plan is ``[src_epoch, dst_epoch, eligible, delay]``: whether
        the *entire* chain is currently draw-free and shaper-free for
        this pair, and if so the deterministic hop delay.  Every
        condition the eligibility test reads (loss rates, jitter
        adders, latency adders, shaper presence) is only mutable
        through link methods that bump ``conditions_epoch``, so two
        integer comparisons (done inline in :meth:`transmit`)
        revalidate the whole predicate on later packets.
        """
        source_link = source.link
        destination_link = destination.link
        base, scale = self._path_params(source, destination)
        eligible = (
            scale == 0.0
            and source_link.loss_rate == 0.0
            and source_link.extra_jitter_s == 0.0
            and destination_link.loss_rate == 0.0
            and destination_link.extra_jitter_s == 0.0
            and destination_link.ingress_shaper is None
        )
        delay = base
        delay += (
            source_link.extra_latency_s + destination_link.extra_latency_s
        )
        plan = [
            source_link.conditions_epoch,
            destination_link.conditions_epoch,
            eligible,
            delay,
        ]
        source.fast_plans[destination.ip] = plan
        return plan

    def transmit(self, packet: Packet, source: Host) -> None:
        """Entry point used by :meth:`Host.send`.

        ``source`` is the sending host: :meth:`Host.send` passes itself
        after checking the packet's source ip, so no per-packet lookup
        by ip is needed.
        """
        hosts = self._hosts_by_ip
        dst_ip = packet.dst.ip
        destination = hosts.get(dst_ip)
        if destination is None:
            raise RoutingError(f"no route to {dst_ip!r}")
        simulator = self.simulator
        now = simulator._now
        source_link = source.link
        departure = source_link.reserve_uplink(now, packet.wire_bytes)
        # Sender-side fusion: when the whole chain is provably
        # stateless (no draw at departure, none at arrival, no shaper)
        # and no scripted change overlaps the flight window, skip both
        # intermediate events and schedule the fused delivery directly.
        if self.fast_lane and self.base_loss_rate == 0.0:
            destination_link = destination.link
            plan = source.fast_plans.get(dst_ip)
            if (
                plan is None
                or plan[0] != source_link.conditions_epoch
                or plan[1] != destination_link.conditions_epoch
            ):
                plan = self._fast_plan(source, destination)
            if plan[2]:
                arrival = departure + plan[3]
                # The truthiness pre-checks skip two method calls per
                # packet in the (typical) no-timeline case.
                if (
                    not source_link._scheduled_changes
                    or source_link.quiet_through(now, departure)
                ) and (
                    not destination_link._scheduled_changes
                    or destination_link.quiet_through(now, arrival)
                ):
                    self.fast_lane_sender_fused += 1
                    self._schedule_fused(packet, destination, arrival)
                    return
        simulator.schedule_at(departure, self._propagate, packet, source, destination)

    def _propagate(self, packet: Packet, source: Host, destination: Host) -> None:
        rng = self.rng
        if self.base_loss_rate > 0 and rng.random() < self.base_loss_rate:
            self.packets_lost += 1
            return
        source_link = source.link
        # Scripted egress loss (e.g. a handover outage at the sender's
        # access).  The draw only happens when a timeline has set a
        # loss rate, so static sessions consume no randomness here.
        if source_link.loss_rate > 0 and rng.random() < source_link.loss_rate:
            self.packets_condition_lost += 1
            return
        destination_link = destination.link
        base, scale = self._path_params(source, destination)
        delay = base
        delay += source_link.extra_latency_s + destination_link.extra_latency_s
        # ``scale * standard_gamma(shape)`` is how numpy computes
        # ``gamma(shape, scale)``: the same draw, without the keyword
        # call and the float conversion.
        if scale > 0:
            delay += scale / 2.0 * rng.standard_gamma(2.0)
        for link in (source_link, destination_link):
            if link.extra_jitter_s > 0:
                delay += link.extra_jitter_s / 2.0 * rng.standard_gamma(2.0)
        now = self.simulator._now
        arrival = now + delay
        # Receiver-side fusion: no draw, no shaper, and no scripted
        # change before the packet lands -> one fused delivery event.
        if (
            self.fast_lane
            and destination_link.loss_rate == 0.0
            and destination_link.ingress_shaper is None
            and (
                not destination_link._scheduled_changes
                or destination_link.quiet_through(now, arrival)
            )
        ):
            self._schedule_fused(packet, destination, arrival)
            return
        self.simulator.schedule_at(arrival, self._arrive, packet, destination)

    def _schedule_fused(
        self, packet: Packet, destination: Host, arrival: float
    ) -> None:
        link = destination.link
        wire = packet.wire_bytes
        entry = link.push_pending_downlink(arrival, wire)
        # No-backlog delivery estimate (the reservation flush computes
        # the exact time; this is only a firing floor, and it is never
        # later than the true reservation).
        estimate = arrival + wire * 8.0 / link.downlink_bps
        self.fast_lane_fused += 1
        self.simulator.schedule_at(
            estimate, self._fast_deliver, packet, destination, entry,
            link.last_change_s,
        )

    def _fast_deliver(
        self, packet: Packet, destination: Host, entry: list,
        decided_change_s: float,
    ) -> None:
        link = destination.link
        now = self.simulator._now
        delivery = entry[3]
        if delivery < 0.0:
            link.flush_pending_downlink(now)
            delivery = entry[3]
        if link.last_change_s != decided_change_s and link.last_change_s <= entry[0]:
            # An unregistered mutation landed inside the flight window;
            # the slow path would have seen it.  Scripted scenarios
            # register every boundary, so this stays zero there.
            self.fast_lane_epoch_misses += 1
        if delivery > now:
            # The downlink was backlogged at arrival; re-arm at the
            # true reservation time (exactly where the slow path's
            # arrive event would have scheduled delivery).
            self.fast_lane_rearmed += 1
            self.simulator.schedule_at(delivery, destination.deliver, packet)
            return
        destination.deliver(packet)

    def _arrive(self, packet: Packet, destination: Host) -> None:
        now = self.simulator._now
        # Scripted ingress loss, checked at arrival so packets already
        # in flight when a phase flips are dropped by the new regime.
        if (
            destination.link.loss_rate > 0
            and self.rng.random() < destination.link.loss_rate
        ):
            self.packets_condition_lost += 1
            return
        release = now
        shaper = destination.link.ingress_shaper
        if shaper is not None:
            shaped = shaper.submit(now, packet.wire_bytes)
            if shaped is None:
                self.packets_shaper_dropped += 1
                return
            release = shaped
        delivery = destination.link.reserve_downlink(release, packet.wire_bytes)
        self.simulator.schedule_at(delivery, destination.deliver, packet)
