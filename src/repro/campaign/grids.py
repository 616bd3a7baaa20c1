"""Preset campaign grids: the paper's protocol and a CI smoke grid.

:func:`paper_campaign` declares the study's full sweep -- every lag
host of Figs. 4-7, the QoE N x motion grid, the bandwidth caps and the
mobile scenarios, per platform -- which at ``PAPER_SCALE`` is the
700-session/48-hour protocol.  :func:`smoke_campaign` is the same shape
shrunk to a handful of seconds for end-to-end checks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import CampaignError
from ..experiments.bandwidth_study import RATE_LIMITS
from ..experiments.dynamics_study import DYNAMICS_SCENARIOS
from ..experiments.lag_study import LAG_SCENARIOS
from ..experiments.mobile_study import MOBILE_SCENARIOS
from ..experiments.scale import ExperimentScale
from ..media.frames import FrameSpec
from .spec import CampaignSpec, ScenarioSpec

#: Platforms measured by the paper.
ALL_PLATFORMS = ("zoom", "webex", "meet")

#: Scale used by ``--smoke`` runs: one short session per cell.
SMOKE_SCALE = ExperimentScale(
    sessions=1,
    lag_session_duration_s=6.0,
    qoe_session_duration_s=5.0,
    content_spec=FrameSpec(96, 72, 10),
    probe_count=3,
    score_frames=12,
)


def paper_campaign(
    platforms: Sequence[str] = ALL_PLATFORMS,
    kinds: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    master_seed: int = 7,
    name: str = "paper-protocol",
) -> CampaignSpec:
    """The full measurement grid of the paper, optionally filtered.

    Args:
        platforms: Platforms to sweep (every scenario crosses these).
        kinds: Restrict to a subset of scenario kinds (default: all).
        scale: Per-cell sessions/durations (default:
            :class:`ExperimentScale`'s quick profile; pass
            ``PAPER_SCALE`` for the 48-hour protocol).
        master_seed: Root of per-cell seed derivation.
        name: Campaign name recorded in the store.
    """
    platforms = tuple(platforms)
    hosts = tuple(host for _, host, _ in LAG_SCENARIOS)
    groups = {host: group for _, host, group in LAG_SCENARIOS}
    scenarios = {
        "lag": lambda: [
            ScenarioSpec("lag", {
                "platform": platforms,
                "host": (host,),
                "group": (groups[host],),
            })
            for host in hosts
        ],
        "endpoints": lambda: [
            ScenarioSpec("endpoints", {"platform": platforms})
        ],
        "qoe": lambda: [
            ScenarioSpec("qoe", {
                "platform": platforms,
                "motion": ("low", "high"),
                "participants": (2, 3, 4),
                "region": ("US", "EU"),
            })
        ],
        "bandwidth": lambda: [
            ScenarioSpec("bandwidth", {
                "platform": platforms,
                "motion": ("high",),
                "limit_bps": tuple(RATE_LIMITS),
            })
        ],
        "mobile": lambda: [
            ScenarioSpec("mobile", {
                "platform": platforms,
                "scenario": tuple(MOBILE_SCENARIOS),
            })
        ],
        "dynamics": lambda: [
            ScenarioSpec("dynamics", {
                "platform": platforms,
                "scenario": tuple(DYNAMICS_SCENARIOS),
            })
        ],
    }
    selected = tuple(kinds) if kinds else tuple(scenarios)
    unknown = [kind for kind in selected if kind not in scenarios]
    if unknown:
        raise CampaignError(
            f"unknown scenario kinds {unknown}; expected a subset of "
            f"{tuple(scenarios)}"
        )
    specs = []
    for kind in selected:
        specs.extend(scenarios[kind]())
    return CampaignSpec(
        name=name, scenarios=specs, scale=scale, master_seed=master_seed
    )


def calibration_campaign(
    cells: int = 24,
    spin_ms: float = 0.0,
    master_seed: int = 7,
    name: str = "calibration",
) -> CampaignSpec:
    """A grid of deterministic no-op cells.

    Used by the scheduler-overhead benchmark (``spin_ms=0``: every
    second not spent in the cell is fabric overhead) and by the chaos
    matrix and fabric tests, which crash, slow or hang its cells
    through the fault plane (:mod:`repro.campaign.fabric.faults`).

    Args:
        cells: Number of no-op cells (``index`` axis).
        spin_ms: Busy-wait per cell, in milliseconds.
        master_seed: Root of per-cell seed derivation.
        name: Campaign name recorded in the store.
    """
    if cells < 1:
        raise CampaignError("a calibration campaign needs at least one cell")
    return CampaignSpec(
        name=name,
        scenarios=(
            ScenarioSpec("noop", {
                "index": tuple(range(cells)),
                "spin_ms": (spin_ms,),
            }),
        ),
        scale=SMOKE_SCALE,
        master_seed=master_seed,
    )


def smoke_campaign(
    platforms: Sequence[str] = ("zoom", "meet"),
    master_seed: int = 7,
) -> CampaignSpec:
    """A tiny end-to-end grid, seconds total.

    Two platforms of lag + qoe, plus one dynamics ramp cell so CI
    exercises the condition-timeline path (mid-session link mutation,
    per-phase reporting) end to end.
    """
    platforms = tuple(platforms)
    return CampaignSpec(
        name="smoke",
        scenarios=(
            ScenarioSpec("lag", {
                "platform": platforms,
                "host": ("US-East",),
                "group": ("US",),
            }),
            ScenarioSpec("qoe", {
                "platform": platforms,
                "motion": ("low",),
                "participants": (2,),
            }),
            ScenarioSpec("dynamics", {
                "platform": platforms[:1],
                "scenario": ("ramp",),
            }),
        ),
        scale=SMOKE_SCALE,
        master_seed=master_seed,
    )
