"""Uniform adapters from campaign cells to the experiment drivers.

Each :class:`ScenarioAdapter` binds one experiment kind to the driver
that runs it (:mod:`repro.experiments`), fills defaults for axes a cell
does not sweep, and flattens the driver's rich result object into a
JSON-serializable metrics dict (scalars plus serialized
:class:`~repro.core.results.SummaryStats`) that the store can persist
and the aggregator can fold into paper-style tables without importing
any driver types.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping

import numpy as np

from ..core.results import SummaryStats
from ..errors import CampaignError
from ..experiments.bandwidth_study import limit_label, run_bandwidth_cell
from ..experiments.dynamics_study import run_dynamics_cell
from ..experiments.endpoint_study import run_endpoint_study
from ..experiments.lag_study import run_lag_scenario
from ..experiments.mobile_study import run_mobile_scenario
from ..experiments.qoe_study import EU_ROSTER, US_ROSTER, run_qoe_cell
from ..experiments.scale import ExperimentScale
from ..net.dynamics import ConditionTimeline
from .spec import KNOWN_KINDS

Metrics = Dict[str, Any]


def sanitize(value: Any) -> Any:
    """Replace non-finite floats with ``None``, recursively.

    Keeps stored metrics strict JSON (``NaN`` is not) and equality-
    comparable (``NaN != NaN`` would make identical cells look
    different), e.g. VIFp when ``compute_vifp`` is off.
    """
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {key: sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return value


@dataclass(frozen=True)
class ScenarioAdapter:
    """Dispatch entry for one experiment kind.

    Attributes:
        kind: Registry key (a member of ``KNOWN_KINDS``).
        defaults: Fallback values for params a cell leaves unbound.
        execute: ``(params, scale) -> metrics`` driver invocation.
    """

    kind: str
    defaults: Mapping[str, Any]
    execute: Callable[[Mapping[str, Any], ExperimentScale], Metrics]

    def bind(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Cell params over adapter defaults; rejects unknown names."""
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise CampaignError(
                f"scenario kind {self.kind!r} does not accept params "
                f"{sorted(unknown)}; known: {sorted(self.defaults)}"
            )
        bound = dict(self.defaults)
        bound.update(params)
        return bound

    def run(self, params: Mapping[str, Any],
            scale: ExperimentScale) -> Metrics:
        """Execute the driver for one fully-bound cell."""
        return sanitize(self.execute(self.bind(params), scale))


def _lag_execute(params: Mapping[str, Any],
                 scale: ExperimentScale) -> Metrics:
    result = run_lag_scenario(
        params["platform"], params["host"], params["group"], scale=scale
    )
    all_lags = [lag for lags in result.lags_ms.values() for lag in lags]
    all_rtts = [
        rtt for rtts in result.rtts_ms.values() for rtt in rtts
        if np.isfinite(rtt)
    ]
    lo, hi = result.lag_range_ms()
    return {
        "median_lag_ms": {
            receiver: result.median_lag_ms(receiver)
            for receiver in sorted(result.lags_ms)
        },
        "mean_rtt_ms": {
            receiver: float(np.nanmean(rtts))
            for receiver, rtts in sorted(result.rtts_ms.items())
        },
        "lag_band_ms": [lo, hi],
        "lag_ms": SummaryStats.from_values(all_lags).to_dict(),
        "rtt_ms": (
            SummaryStats.from_values(all_rtts).to_dict() if all_rtts else None
        ),
        "sessions": len(result.sessions),
    }


def _qoe_execute(params: Mapping[str, Any],
                 scale: ExperimentScale) -> Metrics:
    roster = US_ROSTER if params["region"] == "US" else EU_ROSTER
    cell = run_qoe_cell(
        params["platform"],
        params["motion"],
        int(params["participants"]),
        roster=roster,
        scale=scale,
        compute_vifp=bool(params["compute_vifp"]),
    )
    return {
        "psnr_db": {"mean": cell.psnr_mean, "std": cell.psnr_std},
        "ssim": {"mean": cell.ssim_mean, "std": cell.ssim_std},
        "vifp": {"mean": cell.vifp_mean, "std": cell.vifp_std},
        "upload_mbps": cell.upload_mbps,
        "download_mbps": cell.download_mbps,
        "sessions": len(cell.sessions),
    }


def _bandwidth_execute(params: Mapping[str, Any],
                       scale: ExperimentScale) -> Metrics:
    limit = params["limit_bps"]
    cell = run_bandwidth_cell(
        params["platform"],
        params["motion"],
        None if limit is None else float(limit),
        scale=scale,
        compute_vifp=bool(params["compute_vifp"]),
    )
    return {
        "limit_label": limit_label(cell.limit_bps),
        "psnr_db": cell.psnr_mean,
        "ssim": cell.ssim_mean,
        "vifp": cell.vifp_mean,
        "mos_lqo": cell.mos_lqo_mean,
        "download_mbps": cell.download_mbps,
        "frames_frozen": cell.frames_frozen,
    }


def _mobile_execute(params: Mapping[str, Any],
                    scale: ExperimentScale) -> Metrics:
    result = run_mobile_scenario(
        params["platform"],
        params["scenario"],
        scale=scale,
        num_participants=int(params["participants"]),
    )
    return {
        "devices": {
            device: {
                "median_cpu_pct": reading.median_cpu_pct,
                "mean_rate_mbps": reading.mean_rate_mbps,
                "discharge_mah": reading.discharge_mah,
                "cpu_pct": SummaryStats.from_values(
                    reading.cpu_samples
                ).to_dict() if reading.cpu_samples else None,
            }
            for device, reading in sorted(result.readings.items())
        },
        "participants": result.num_participants,
    }


def _dynamics_execute(params: Mapping[str, Any],
                      scale: ExperimentScale) -> Metrics:
    # A cell may carry a full serialized timeline (a grid axis value)
    # or just a named scenario; the driver resolves either.
    timeline = ConditionTimeline.coerce(params["timeline"])
    cell = run_dynamics_cell(
        params["platform"],
        params["scenario"],
        scale=scale,
        motion=params["motion"],
        timeline=timeline,
    )
    return {
        "psnr_db": cell.psnr_mean,
        "ssim": cell.ssim_mean,
        "phases": {
            report.name: {
                "psnr_db": report.psnr_mean,
                "ssim": report.ssim_mean,
                "download_mbps": report.download_mbps,
                "freeze_fraction": report.freeze_fraction,
                "frames_scored": report.frames_scored,
                "shaper_dropped": report.shaper_dropped,
            }
            for report in cell.phases
        },
        "phase_order": [report.name for report in cell.phases],
        "sessions": cell.sessions,
    }


def _noop_execute(params: Mapping[str, Any],
                  scale: ExperimentScale) -> Metrics:
    """Calibration cell: deterministic metrics, near-zero cost.

    ``spin_ms`` busy-waits to give a cell measurable duration.  Metrics
    are a pure function of the cell seed and params, so a cell the
    fault plane crashed and the fabric retried is content-identical to
    an uninterrupted one.
    """
    spin_ms = float(params["spin_ms"])
    if spin_ms > 0:
        deadline = time.perf_counter() + spin_ms / 1000.0
        while time.perf_counter() < deadline:
            pass
    index = int(params["index"])
    return {
        "index": index,
        "value": (scale.seed * 2654435761 + index) % (2 ** 31),
    }


def _endpoints_execute(params: Mapping[str, Any],
                       scale: ExperimentScale) -> Metrics:
    sessions = params["sessions"]
    result = run_endpoint_study(
        params["platform"],
        scale=scale,
        sessions=None if sessions is None else int(sessions),
    )
    return {
        "mean_endpoints_per_client": result.mean_endpoints_per_client(),
        "endpoints_per_session": result.endpoints_per_session(),
        "ports": sorted(result.ports),
        "sessions": result.sessions,
    }


#: kind -> adapter; covers every member of ``KNOWN_KINDS``.
ADAPTERS: Dict[str, ScenarioAdapter] = {
    adapter.kind: adapter
    for adapter in (
        ScenarioAdapter(
            kind="lag",
            defaults={"platform": "zoom", "host": "US-East", "group": "US"},
            execute=_lag_execute,
        ),
        ScenarioAdapter(
            kind="qoe",
            defaults={
                "platform": "zoom",
                "motion": "high",
                "participants": 3,
                "region": "US",
                "compute_vifp": False,
            },
            execute=_qoe_execute,
        ),
        ScenarioAdapter(
            kind="bandwidth",
            defaults={
                "platform": "zoom",
                "motion": "high",
                "limit_bps": None,
                "compute_vifp": False,
            },
            execute=_bandwidth_execute,
        ),
        ScenarioAdapter(
            kind="mobile",
            defaults={"platform": "zoom", "scenario": "LM", "participants": 3},
            execute=_mobile_execute,
        ),
        ScenarioAdapter(
            kind="endpoints",
            defaults={"platform": "zoom", "sessions": None},
            execute=_endpoints_execute,
        ),
        ScenarioAdapter(
            kind="noop",
            defaults={"index": 0, "spin_ms": 0.0},
            execute=_noop_execute,
        ),
        ScenarioAdapter(
            kind="dynamics",
            defaults={
                "platform": "zoom",
                "scenario": "ramp",
                "motion": "high",
                "timeline": None,
            },
            execute=_dynamics_execute,
        ),
    )
}

assert set(ADAPTERS) == set(KNOWN_KINDS)


def get_adapter(kind: str) -> ScenarioAdapter:
    """The adapter for one kind (raises CampaignError if unknown)."""
    try:
        return ADAPTERS[kind]
    except KeyError:
        raise CampaignError(
            f"no adapter registered for scenario kind {kind!r}"
        ) from None
