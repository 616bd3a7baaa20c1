"""Mobile resource study: Figure 19 and Table 4.

Section 5: a US-east cloud VM hosts the meeting and streams the
low-motion (LM) or high-motion (HM) feed; a Samsung S10 and J3 join
from a residential network behind 50 Mbps Raspberry-Pi WiFi.  Device
scenarios vary the UI: full screen (default), gallery view (``-View``),
cameras on (``-Video``), screen off (``-Off``).  CPU is sampled every
three seconds over adb, download rate comes from per-device captures,
and the J3's battery discharge is integrated by a Monsoon power meter.
Table 4 adds up to eight extra high-motion-streaming VMs to reach
N in {3, 6, 11}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.session import SessionConfig
from ..core.testbed import Testbed, TestbedConfig
from ..errors import ConfigurationError
from ..platforms.base import ViewContext
from .scale import ExperimentScale, QUICK_SCALE

#: The Figure 19 scenarios.
MOBILE_SCENARIOS = ("LM", "HM", "LM-View", "LM-Video-View", "LM-Off")


@dataclass(frozen=True)
class MobileScenario:
    """Decoded scenario label.

    Attributes:
        motion: Feed class of the meeting host.
        view_mode: Phone UI mode.
        camera_on: Whether the phones stream their own video.
        screen_on: Whether the phone screens are on.
    """

    motion: str
    view_mode: str
    camera_on: bool
    screen_on: bool

    @classmethod
    def parse(cls, label: str) -> "MobileScenario":
        """Parse a paper label like ``"LM-Video-View"``."""
        parts = label.split("-")
        if parts[0] not in ("LM", "HM"):
            raise ConfigurationError(f"bad scenario label: {label!r}")
        motion = "low" if parts[0] == "LM" else "high"
        camera_on = "Video" in parts[1:]
        gallery = "View" in parts[1:]
        screen_off = "Off" in parts[1:]
        return cls(
            motion=motion,
            view_mode="gallery" if gallery else "fullscreen",
            camera_on=camera_on,
            screen_on=not screen_off,
        )


@dataclass
class DeviceReading:
    """Per-device outputs of one scenario."""

    device: str
    median_cpu_pct: float
    mean_rate_mbps: float
    discharge_mah: float
    cpu_samples: List[float] = field(default_factory=list)


@dataclass
class MobileScenarioResult:
    """One row group of Figure 19 / one cell pair of Table 4."""

    platform: str
    scenario: str
    num_participants: int
    readings: Dict[str, DeviceReading] = field(default_factory=dict)


def run_mobile_scenario(
    platform_name: str,
    scenario_label: str,
    scale: ExperimentScale = QUICK_SCALE,
    num_participants: int = 3,
    devices: Sequence[str] = ("S10", "J3"),
) -> MobileScenarioResult:
    """Run one (platform, scenario, N) mobile experiment.

    For ``num_participants`` beyond the host and the phones, extra
    cloud VMs join and stream simultaneously (the Table 4 stress
    setup).  Media uses the size-modelled streamers: only traffic,
    CPU and battery are observed on the phones.
    """
    scenario = MobileScenario.parse(scenario_label)
    extra_vm_count = num_participants - 1 - len(devices)
    if extra_vm_count < 0:
        raise ConfigurationError(
            f"N={num_participants} too small for host + {len(devices)} phones"
        )

    testbed = Testbed(TestbedConfig(seed=scale.seed))
    testbed.add_vm("US-East")
    extra_names = []
    for index in range(extra_vm_count):
        name = f"extra-{index + 1}"
        host = testbed.network.add_host(
            name=name,
            location=testbed.registry.get("US-East").location,
            tier="client",
        )
        from ..clients.client import CloudVMClient

        testbed.clients[name] = CloudVMClient(name, host)
        extra_names.append(name)

    phone_names = []
    for short in devices:
        view = ViewContext(
            view_mode=scenario.view_mode if scenario.screen_on else "audio-only",
            device="mobile-highend" if short == "S10" else "mobile-lowend",
        )
        testbed.add_android(
            short,
            platform_name,
            view=view,
            camera_on=scenario.camera_on,
            screen_on=scenario.screen_on,
        )
        phone_names.append(short)

    names = ["US-East"] + extra_names + phone_names
    duration = scale.qoe_session_duration_s
    config = SessionConfig(
        duration_s=duration,
        feed=scenario.motion,
        pad_fraction=0.0,
        audio=True,
        use_codec=False,  # size-modelled senders; phones observe traffic
        content_spec=scale.content_spec,
        probes=False,
        device_profile="mobile-highend",
        feed_seed=scale.seed,
    )

    extra_senders = list(extra_names)
    if scenario.camera_on:
        extra_senders.extend(phone_names)

    # Thumbnail counts feed the CPU model: platforms that preview other
    # participants pay per-tile decode costs even in full screen.
    platform = testbed.platform(platform_name)
    for short in phone_names:
        phone = testbed.clients[short]
        remote_with_video = 1 + len(extra_senders) - (1 if scenario.camera_on else 0)
        if scenario.screen_on and scenario.view_mode == "fullscreen":
            phone.thumbnail_count = min(
                max(0, remote_with_video - 1), platform.thumbnails_in_fullscreen()
            )
        else:
            phone.thumbnail_count = 0
        phone.start_monitoring(duration, start_delay_s=config.settle_s)

    artifacts = testbed.run_session(
        platform_name,
        names,
        "US-East",
        config,
        extra_sender_names=extra_senders,
    )

    result = MobileScenarioResult(
        platform=platform_name,
        scenario=scenario_label,
        num_participants=num_participants,
    )
    for short in phone_names:
        phone = testbed.clients[short]
        phone.stop_monitoring()
        try:
            rate = artifacts.download_rate_bps(short) / 1e6
        except Exception:
            rate = 0.0
        result.readings[short] = DeviceReading(
            device=short,
            median_cpu_pct=phone.median_cpu_pct(),
            mean_rate_mbps=rate,
            discharge_mah=phone.discharge_mah(),
            cpu_samples=[s.usage_pct for s in phone.cpu_samples],
        )
    return result


def run_table4(
    platforms: Sequence[str] = ("zoom", "webex", "meet"),
    participant_counts: Sequence[int] = (3, 6, 11),
    scale: ExperimentScale = QUICK_SCALE,
) -> Dict[tuple, MobileScenarioResult]:
    """Table 4: (platform, N, view) -> readings for S10/J3."""
    results = {}
    for platform_name in platforms:
        for n in participant_counts:
            for view_label, scenario in (("Full screen", "HM"), ("Gallery", "HM-View")):
                result = run_mobile_scenario(
                    platform_name, scenario, scale=scale, num_participants=n
                )
                results[(platform_name, n, view_label)] = result
    return results
