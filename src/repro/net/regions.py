"""Region registry reproducing Table 3 of the paper.

Twelve Azure regions host the emulated clients: seven VMs in the US and
seven in Europe (two regions host two VMs each).  This module records
each region's location so the latency model can derive realistic
inter-region delays, plus additional *infrastructure sites* used by the
platform models (Zoom/Webex relay locations, Google's edge POPs) and the
residential vantage point that hosts the Android testbed.

Note on naming: the paper's Table 3 labels a "Denmark" row ``DE`` while
the body text discusses clients "located further into central Europe
(e.g., Germany and Switzerland)" under the same label.  We follow the
body text and place ``DE`` in Frankfurt, Germany; the label is kept
verbatim so figures match the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..errors import ConfigurationError
from .geo import GeoPoint

#: Region group labels used by the paper.
GROUP_US = "US"
GROUP_EUROPE = "Europe"


@dataclass(frozen=True)
class Region:
    """One vantage-point region from Table 3.

    Attributes:
        name: The paper's region label (e.g. ``"US-East"``).
        location: Geographic position of the region's datacentre.
        group: ``"US"`` or ``"Europe"``.
        vm_count: Number of VMs Table 3 deploys in this region.
    """

    name: str
    location: GeoPoint
    group: str
    vm_count: int = 1

    def __post_init__(self) -> None:
        if self.vm_count < 1:
            raise ConfigurationError(f"vm_count must be >= 1, got {self.vm_count}")
        if self.group not in (GROUP_US, GROUP_EUROPE):
            raise ConfigurationError(f"unknown region group: {self.group}")


def _gp(name: str, lat: float, lon: float) -> GeoPoint:
    return GeoPoint(name=name, lat=lat, lon=lon)


#: Table 3 of the paper: VM locations/counts for streaming-lag testing.
TABLE3_REGIONS: Tuple[Region, ...] = (
    Region("US-Central", _gp("Des Moines, IA", 41.59, -93.62), GROUP_US, 1),
    Region("US-NCentral", _gp("Chicago, IL", 41.88, -87.63), GROUP_US, 1),
    Region("US-SCentral", _gp("San Antonio, TX", 29.42, -98.49), GROUP_US, 1),
    Region("US-East", _gp("Richmond, VA", 37.54, -77.44), GROUP_US, 2),
    Region("US-West", _gp("San Francisco, CA", 37.77, -122.42), GROUP_US, 2),
    Region("CH", _gp("Zurich, Switzerland", 47.38, 8.54), GROUP_EUROPE, 1),
    Region("DE", _gp("Frankfurt, Germany", 50.11, 8.68), GROUP_EUROPE, 1),
    Region("IE", _gp("Dublin, Ireland", 53.35, -6.26), GROUP_EUROPE, 1),
    Region("NL", _gp("Amsterdam, Netherlands", 52.37, 4.90), GROUP_EUROPE, 1),
    Region("FR", _gp("Paris, France", 48.86, 2.35), GROUP_EUROPE, 1),
    Region("UK-South", _gp("London, UK", 51.51, -0.13), GROUP_EUROPE, 1),
    Region("UK-West", _gp("Cardiff, UK", 51.48, -3.18), GROUP_EUROPE, 1),
)

#: Additional named sites used by platform models and the mobile testbed.
#: Keys are site names referenced from ``repro.platforms`` configs.
KNOWN_SITES: Dict[str, GeoPoint] = {
    # Residential vantage point hosting the Android devices (Section 5:
    # "a residential access network of the east-coast of US").
    "residential-us-east": _gp("Murray Hill, NJ (residential)", 40.68, -74.40),
    # Zoom relay datacentres (US footprint with regional load balancing).
    "zoom-us-east": _gp("Ashburn, VA", 39.04, -77.49),
    "zoom-us-central": _gp("Dallas, TX", 32.78, -96.80),
    "zoom-us-west": _gp("San Jose, CA", 37.34, -121.89),
    # Webex relays sessions via its US-east infrastructure (Finding-1).
    "webex-us-east": _gp("Richardson, TX / East relay (VA)", 38.90, -77.26),
    # Google Meet edge POPs: cross-continental presence (Finding-2).
    "meet-us-east": _gp("Ashburn, VA (Google)", 39.02, -77.46),
    "meet-us-central": _gp("Council Bluffs, IA (Google)", 41.26, -95.86),
    "meet-us-south": _gp("Midlothian, TX (Google)", 32.48, -97.01),
    "meet-us-west": _gp("The Dalles, OR (Google)", 45.59, -121.18),
    "meet-eu-west": _gp("Dublin, IE (Google)", 53.32, -6.34),
    "meet-eu-london": _gp("London, UK (Google)", 51.52, -0.08),
    "meet-eu-central": _gp("Frankfurt, DE (Google)", 50.12, 8.74),
    "meet-eu-belgium": _gp("St. Ghislain, BE (Google)", 50.47, 3.87),
    "meet-eu-zurich": _gp("Zurich, CH (Google)", 47.42, 8.52),
}


class RegionRegistry:
    """Lookup and iteration over vantage-point regions and named sites.

    The default registry (:func:`default_registry`) holds Table 3 plus
    :data:`KNOWN_SITES`; experiments may build custom registries to
    model other deployments.
    """

    def __init__(
        self,
        regions: Tuple[Region, ...] = TABLE3_REGIONS,
        sites: Dict[str, GeoPoint] | None = None,
    ) -> None:
        self._regions: Dict[str, Region] = {}
        for region in regions:
            if region.name in self._regions:
                raise ConfigurationError(f"duplicate region name: {region.name}")
            self._regions[region.name] = region
        self._sites = dict(KNOWN_SITES if sites is None else sites)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def get(self, name: str) -> Region:
        """Return the region named ``name``.

        Raises :class:`~repro.errors.ConfigurationError` if unknown.
        """
        try:
            return self._regions[name]
        except KeyError:
            raise ConfigurationError(f"unknown region: {name!r}") from None

    def site(self, name: str) -> GeoPoint:
        """Return a named infrastructure site location."""
        try:
            return self._sites[name]
        except KeyError:
            raise ConfigurationError(f"unknown site: {name!r}") from None

    def site_names(self) -> List[str]:
        """All registered infrastructure site names, sorted."""
        return sorted(self._sites)

    def by_group(self, group: str) -> List[Region]:
        """Regions in a group (``"US"`` or ``"Europe"``)."""
        return [r for r in self if r.group == group]

    def vm_names(self, group: str) -> List[str]:
        """Expand regions into per-VM names, numbering duplicates.

        Regions with ``vm_count > 1`` yield ``name`` then ``name2``
        (matching the paper's ``US-East`` / ``US-East2`` labels).
        """
        names: List[str] = []
        for region in self.by_group(group):
            for index in range(region.vm_count):
                suffix = "" if index == 0 else str(index + 1)
                names.append(region.name + suffix)
        return names

    def region_of_vm(self, vm_name: str) -> Region:
        """Map a per-VM name (``US-East2``) back to its region."""
        base = vm_name.rstrip("0123456789")
        return self.get(base)


_DEFAULT: RegionRegistry | None = None


def default_registry() -> RegionRegistry:
    """The shared registry with Table 3 regions and known sites."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = RegionRegistry()
    return _DEFAULT
