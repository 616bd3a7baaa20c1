"""Campaign orchestration: parallel, persistent, resumable grids.

The paper runs 700+ sessions over 48 hours; this package turns the
one-shot drivers of :mod:`repro.experiments` into that kind of
campaign:

* :mod:`repro.campaign.spec` -- declarative sweeps
  (:class:`ScenarioSpec`, :class:`CampaignSpec`) expanded into concrete
  :class:`CampaignCell` work items with deterministic per-cell seeds,
* :mod:`repro.campaign.registry` -- uniform adapters dispatching cells
  to the experiment drivers and serializing their results,
* :mod:`repro.campaign.store` / :mod:`~repro.campaign.stores` -- the
  one result store, :class:`CampaignStore`: an append-only JSONL file
  (:func:`open_store`) with spec-hash integrity checking, an fsync
  after every record and crash-safe compaction,
* :mod:`repro.campaign.fabric` -- the campaign fabric: sharded
  scheduling in-process or over owned, crash-recovering worker
  processes, per-cell retry/timeout, durable checkpoints, streaming
  aggregation and live watch,
* :mod:`repro.campaign.runner` -- :func:`run_campaign`, the one-call
  entry point with resume (completed cells are skipped by id),
* :mod:`repro.campaign.aggregate` -- paper-style tables and Markdown
  reports folded from the store alone,
* :mod:`repro.campaign.grids` -- the paper's full grid, a smoke
  preset, and the no-op calibration grid.

Quickstart::

    from repro.campaign import run_campaign, smoke_campaign

    spec = smoke_campaign()
    summary = run_campaign(spec, "campaign.jsonl", workers=2)
    summary = run_campaign(spec, "campaign.jsonl", workers=2, resume=True)
    assert summary.executed == 0   # everything was already done

    from repro.campaign import report_from_store
    print(report_from_store("campaign.jsonl").render())

Or from the shell: ``python -m repro campaign run --smoke --workers 2``,
then ``python -m repro campaign watch <store>`` from another terminal.
"""

from .aggregate import (
    KIND_TABLES,
    TableSpec,
    build_report,
    report_from_store,
    status_table,
)
from .fabric import (
    FAULT_CLASSES,
    CampaignScheduler,
    ChaosCaseResult,
    FabricConfig,
    FaultPlan,
    FaultSpec,
    ProgressSnapshot,
    StreamingAggregator,
    backoff_delay,
    make_executor,
    run_chaos_case,
    run_chaos_matrix,
    watch_store,
)
from .grids import (
    ALL_PLATFORMS,
    SMOKE_SCALE,
    calibration_campaign,
    paper_campaign,
    smoke_campaign,
)
from .registry import ADAPTERS, ScenarioAdapter, get_adapter
from .runner import (
    CampaignRunSummary,
    execute_cell,
    run_campaign,
)
from .spec import (
    KNOWN_KINDS,
    CampaignCell,
    CampaignSpec,
    ScenarioSpec,
    derive_seed,
)
from .store import (
    CampaignStore,
    CellRecord,
    GcStats,
)
from .stores import open_store

__all__ = [
    "ADAPTERS",
    "ALL_PLATFORMS",
    "CampaignCell",
    "CampaignRunSummary",
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStore",
    "CellRecord",
    "ChaosCaseResult",
    "FAULT_CLASSES",
    "FabricConfig",
    "FaultPlan",
    "FaultSpec",
    "GcStats",
    "KIND_TABLES",
    "KNOWN_KINDS",
    "ProgressSnapshot",
    "SMOKE_SCALE",
    "ScenarioAdapter",
    "ScenarioSpec",
    "StreamingAggregator",
    "TableSpec",
    "backoff_delay",
    "build_report",
    "calibration_campaign",
    "derive_seed",
    "execute_cell",
    "get_adapter",
    "make_executor",
    "open_store",
    "paper_campaign",
    "report_from_store",
    "run_campaign",
    "run_chaos_case",
    "run_chaos_matrix",
    "smoke_campaign",
    "status_table",
    "watch_store",
]
