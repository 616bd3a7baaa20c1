"""The testbed: regions, VMs, phones and platforms in one place.

A :class:`Testbed` owns a network, a region registry, the platform
models attached to that network and the set of deployed clients --
the simulation analogue of the paper's Azure subscription plus the
residential mobile rack.  Experiments ask it for clients and run
sessions through it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..clients.android import ANDROID_DEVICES, AndroidClient
from ..clients.client import BaseClient, CloudVMClient
from ..clients.wifi import residential_wifi_link
from ..errors import ConfigurationError
from ..net.clock import SyncedClockFactory
from ..net.geo import LatencyModel
from ..net.link import default_cap_burst
from ..net.regions import RegionRegistry, default_registry
from ..net.routing import Network
from ..platforms import make_platform
from ..platforms.base import PlatformModel, ViewContext
from .session import MeetingSession, SessionArtifacts, SessionConfig


@dataclass(frozen=True)
class TestbedConfig:
    """Knobs of a testbed deployment.

    Attributes:
        seed: Master seed; everything random derives from it.
        latency_model: Wide-area delay model.
        clock_offset_std_s: Cloud time-sync quality for VM clocks.
    """

    seed: int = 0
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    clock_offset_std_s: float = 100e-6


class Testbed:
    """A deployed measurement testbed over a simulated Internet."""

    def __init__(
        self,
        config: Optional[TestbedConfig] = None,
        registry: Optional[RegionRegistry] = None,
    ) -> None:
        self.config = config if config is not None else TestbedConfig()
        self.registry = registry if registry is not None else default_registry()
        self.rng = np.random.default_rng(self.config.seed)
        self.network = Network(
            latency_model=self.config.latency_model,
            rng=np.random.default_rng(self.config.seed + 1),
        )
        self._clock_factory = SyncedClockFactory(
            np.random.default_rng(self.config.seed + 2),
            offset_std_s=self.config.clock_offset_std_s,
        )
        self._platforms: Dict[str, PlatformModel] = {}
        self.clients: Dict[str, BaseClient] = {}

    # ------------------------------------------------------------- #
    # Deployment.
    # ------------------------------------------------------------- #

    def add_vm(self, vm_name: str) -> CloudVMClient:
        """Deploy one cloud VM client in its Table 3 region."""
        if vm_name in self.clients:
            raise ConfigurationError(f"client {vm_name!r} already deployed")
        region = self.registry.region_of_vm(vm_name)
        host = self.network.add_host(
            name=vm_name,
            location=region.location,
            clock=self._clock_factory.make_clock(),
            tier="client",
        )
        client = CloudVMClient(vm_name, host)
        self.clients[vm_name] = client
        return client

    def deploy_group(self, group: str) -> List[CloudVMClient]:
        """Deploy every VM of a Table 3 group (``US`` or ``Europe``)."""
        return [self.add_vm(name) for name in self.registry.vm_names(group)]

    def add_android(
        self,
        short_name: str,
        platform_name: str,
        view: Optional[ViewContext] = None,
        camera_on: bool = False,
        screen_on: bool = True,
        client_name: Optional[str] = None,
    ) -> AndroidClient:
        """Deploy a phone (``"S10"``/``"J3"``) at the residential site."""
        if short_name not in ANDROID_DEVICES:
            raise ConfigurationError(
                f"unknown device {short_name!r}; choose from "
                f"{sorted(ANDROID_DEVICES)}"
            )
        device = ANDROID_DEVICES[short_name]
        name = client_name if client_name is not None else short_name
        if name in self.clients:
            raise ConfigurationError(f"client {name!r} already deployed")
        host = self.network.add_host(
            name=name,
            location=self.registry.site("residential-us-east"),
            link=residential_wifi_link(),
            clock=self._clock_factory.make_clock(),
            tier="mobile",
        )
        client = AndroidClient(
            name=name,
            host=host,
            device=device,
            platform_name=platform_name,
            # crc32, not hash(): str hashes change with PYTHONHASHSEED.
            rng=np.random.default_rng(
                [self.config.seed, zlib.crc32(name.encode())]
            ),
            view=view,
            camera_on=camera_on,
            screen_on=screen_on,
        )
        self.clients[name] = client
        return client

    # ------------------------------------------------------------- #
    # Platforms & sessions.
    # ------------------------------------------------------------- #

    def platform(self, name: str) -> PlatformModel:
        """The attached platform model (created on first use)."""
        key = name.lower()
        if key not in self._platforms:
            model = make_platform(key, seed=self.config.seed + 10)
            model.attach(self.network)
            self._platforms[key] = model
        return self._platforms[key]

    def apply_bandwidth_cap(
        self, client_name: str, rate_bps: Optional[float]
    ) -> None:
        """Install (or remove, with ``None``) an ingress cap on a client.

        This is the Section 4.4 tc/ifb hook, applied at the client's
        access link.
        """
        client = self.clients[client_name]
        client.host.link.set_ingress_cap(
            rate_bps,
            burst_bytes=default_cap_burst(rate_bps),
            now=self.network.simulator.now,
        )

    def clear_conditions(self, client_name: str) -> None:
        """Restore one client's access link to its base conditions.

        The cleanup counterpart of :meth:`apply_bandwidth_cap` and of
        timeline-driven sessions: experiment drivers call it in their
        ``finally`` so an aborted session cannot leave a shared link
        capped, lossy or delayed for whatever runs next.  Unknown
        clients are ignored -- cleanup must not mask the original
        error.
        """
        client = self.clients.get(client_name)
        if client is not None:
            client.host.link.clear_conditions(self.network.simulator.now)

    def run_session(
        self,
        platform_name: str,
        client_names: List[str],
        host_name: str,
        config: SessionConfig,
        extra_sender_names: Optional[List[str]] = None,
    ) -> SessionArtifacts:
        """Run one meeting session among deployed clients."""
        missing = [n for n in client_names if n not in self.clients]
        if missing:
            raise ConfigurationError(f"clients not deployed: {missing}")
        session = MeetingSession(
            platform=self.platform(platform_name),
            clients=[self.clients[n] for n in client_names],
            host_name=host_name,
            config=config,
            extra_sender_names=extra_sender_names,
        )
        return session.run()
