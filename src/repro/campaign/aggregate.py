"""Fold persisted campaign records into paper-style outputs.

Everything here works from stored cell records alone -- no driver
objects, no re-execution -- so a report can be rendered on a different
machine (or months later) from the store file.  Tables reuse
:class:`~repro.analysis.tables.TextTable` and the Markdown shape of
:class:`~repro.analysis.report.ExperimentReport`, so campaign output
matches the per-figure benchmarks.

Each paper table is declared as a :class:`TableSpec`: headers plus a
*per-record* row builder.  The batch path (:func:`build_report`) and
the streaming path (:class:`~repro.campaign.fabric.streaming.StreamingAggregator`,
which folds records into table rows as they arrive) share these specs,
which is what keeps an incrementally-built report identical to one
assembled from the store after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.report import ExperimentReport
from ..analysis.tables import TextTable
from .spec import CampaignSpec
from .store import CellRecord
from .stores import open_store

#: Render order and section titles for the per-kind tables.
KIND_TITLES = {
    "lag": "Streaming lag (Figs. 4-11 protocol)",
    "endpoints": "Endpoint architecture (Fig. 3 protocol)",
    "qoe": "Video QoE (Figs. 12/16 protocol)",
    "bandwidth": "Bandwidth constraints (Figs. 17-18 protocol)",
    "mobile": "Mobile resources (Fig. 19 protocol)",
    "dynamics": "Network dynamics (scripted condition timelines)",
    "noop": "Scheduler calibration (no-op cells)",
}


def _fmt(value: Optional[float], spec: str = ".1f") -> str:
    if value is None:
        return "-"
    formatted = format(value, spec)
    return "-" if formatted == "nan" else formatted


# --------------------------------------------------------------------- #
# Per-kind table specs: headers + rows for ONE ok record.
# --------------------------------------------------------------------- #

RowBuilder = Callable[[CellRecord], List[List[object]]]


@dataclass(frozen=True)
class TableSpec:
    """One paper table: its headers and its per-record row builder."""

    headers: List[str]
    rows: RowBuilder


def _lag_rows(record: CellRecord) -> List[List[object]]:
    metrics = record.metrics
    lo, hi = metrics["lag_band_ms"]
    rtt = metrics.get("rtt_ms")
    return [[
        record.params.get("platform", "?"),
        record.params.get("host", "?"),
        record.params.get("group", "?"),
        f"{_fmt(lo)} - {_fmt(hi)}",
        _fmt(metrics["lag_ms"]["median"]),
        _fmt(rtt["mean"]) if rtt else "-",
        metrics.get("sessions", "-"),
    ]]


def _endpoints_rows(record: CellRecord) -> List[List[object]]:
    metrics = record.metrics
    return [[
        record.params.get("platform", "?"),
        metrics.get("sessions", "-"),
        _fmt(metrics["mean_endpoints_per_client"]),
        ",".join(str(p) for p in metrics.get("ports", [])),
    ]]


def _qoe_rows(record: CellRecord) -> List[List[object]]:
    metrics = record.metrics
    return [[
        record.params.get("platform", "?"),
        record.params.get("motion", "?"),
        record.params.get("participants", "-"),
        record.params.get("region", "US"),
        f"{_fmt(metrics['psnr_db']['mean'])} "
        f"+/- {_fmt(metrics['psnr_db']['std'])}",
        f"{_fmt(metrics['ssim']['mean'], '.3f')} "
        f"+/- {_fmt(metrics['ssim']['std'], '.3f')}",
        _fmt(metrics["upload_mbps"], ".2f"),
        _fmt(metrics["download_mbps"], ".2f"),
    ]]


def _bandwidth_rows(record: CellRecord) -> List[List[object]]:
    metrics = record.metrics
    return [[
        record.params.get("platform", "?"),
        record.params.get("motion", "?"),
        metrics.get("limit_label", "-"),
        _fmt(metrics["psnr_db"]),
        _fmt(metrics["ssim"], ".3f"),
        _fmt(metrics["mos_lqo"], ".2f"),
        _fmt(metrics["download_mbps"], ".2f"),
        metrics.get("frames_frozen", "-"),
    ]]


def _mobile_rows(record: CellRecord) -> List[List[object]]:
    metrics = record.metrics
    return [
        [
            record.params.get("platform", "?"),
            record.params.get("scenario", "?"),
            metrics.get("participants", "-"),
            device,
            _fmt(reading["median_cpu_pct"], ".0f"),
            _fmt(reading["mean_rate_mbps"], ".2f"),
            _fmt(reading["discharge_mah"], ".2f"),
        ]
        for device, reading in metrics["devices"].items()
    ]


def _dynamics_rows(record: CellRecord) -> List[List[object]]:
    metrics = record.metrics
    phases = metrics.get("phases", {})
    return [
        [
            record.params.get("platform", "?"),
            record.params.get("scenario", "?"),
            name,
            _fmt(phases[name]["psnr_db"]),
            _fmt(phases[name]["ssim"], ".3f"),
            _fmt(phases[name]["download_mbps"], ".2f"),
            _fmt(phases[name]["freeze_fraction"], ".2f"),
            phases[name].get("shaper_dropped", "-"),
        ]
        for name in metrics.get("phase_order", sorted(phases))
    ]


def _noop_rows(record: CellRecord) -> List[List[object]]:
    metrics = record.metrics
    return [[
        metrics.get("index", "-"),
        metrics.get("value", "-"),
        record.seed,
        _fmt(record.duration_s * 1000.0, ".2f"),
    ]]


#: kind -> table spec, in render order.
KIND_TABLES: Dict[str, TableSpec] = {
    "lag": TableSpec(
        ["Platform", "Host", "Group", "Lag band (ms)", "Median lag (ms)",
         "Mean RTT (ms)", "Sessions"],
        _lag_rows,
    ),
    "endpoints": TableSpec(
        ["Platform", "Sessions", "Mean endpoints/client", "Ports"],
        _endpoints_rows,
    ),
    "qoe": TableSpec(
        ["Platform", "Motion", "N", "Region", "PSNR (dB)", "SSIM",
         "Up Mbps", "Down Mbps"],
        _qoe_rows,
    ),
    "bandwidth": TableSpec(
        ["Platform", "Motion", "Limit", "PSNR (dB)", "SSIM", "MOS-LQO",
         "Down Mbps", "Frozen"],
        _bandwidth_rows,
    ),
    "mobile": TableSpec(
        ["Platform", "Scenario", "N", "Device", "Median CPU %",
         "Rate (Mbps)", "mAh"],
        _mobile_rows,
    ),
    "dynamics": TableSpec(
        ["Platform", "Scenario", "Phase", "PSNR (dB)", "SSIM",
         "Down Mbps", "Freeze", "Drops"],
        _dynamics_rows,
    ),
    "noop": TableSpec(
        ["Index", "Value", "Seed", "Duration (ms)"],
        _noop_rows,
    ),
}


# --------------------------------------------------------------------- #
# Progress and report assembly.
# --------------------------------------------------------------------- #

def _folded(spec: CampaignSpec, records: Sequence[CellRecord]):
    """A :class:`StreamingAggregator` holding ``records``."""
    from .fabric.streaming import StreamingAggregator

    aggregator = StreamingAggregator(spec)
    for record in records:
        aggregator.fold(record)
    return aggregator


def status_table(spec: CampaignSpec,
                 records: Sequence[CellRecord]) -> TextTable:
    """Per-kind progress of a campaign, folded from its records."""
    return _folded(spec, records).status_table()


def build_report(spec: CampaignSpec,
                 records: Sequence[CellRecord]) -> ExperimentReport:
    """A paper-style Markdown report assembled from stored records.

    Folds the records through the streaming aggregator, so a report
    built incrementally during a run and one built from the store
    afterwards are the same document.
    """
    return _folded(spec, records).build_report()


def report_from_store(store_path: str) -> ExperimentReport:
    """Render the report for a store, from the store alone."""
    store = open_store(store_path)
    return build_report(store.spec(), store.cell_records())
