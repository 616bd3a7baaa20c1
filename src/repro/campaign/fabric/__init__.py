"""The campaign fabric.

Everything that turns a campaign spec into a finished store when the
grid is too big for one process and one sitting:

* :mod:`~repro.campaign.fabric.executors` -- where cells run: inline,
  or N owned, crash-recovering worker processes,
* :mod:`~repro.campaign.fabric.scheduler` -- sharding, dispatch,
  per-cell retry budgets, timeouts, durable checkpoints,
* :mod:`~repro.campaign.fabric.streaming` -- incremental folding of
  arriving records into live paper tables and progress,
* :mod:`~repro.campaign.fabric.watch` -- read-only live status over
  a store another process writes,
* :mod:`~repro.campaign.fabric.selfcheck` -- the kill/resume and
  gc-crash equivalence proofs CI runs,
* :mod:`~repro.campaign.fabric.faults` -- the deterministic
  fault-injection plane (seeded fault plans, cross-process
  exactly-N-times firing, deterministic retry backoff),
* :mod:`~repro.campaign.fabric.chaos` -- the chaos matrix: every
  fault class, judged by bit-identity with a clean reference run.
"""

from .chaos import FAULT_CLASSES, ChaosCaseResult, run_chaos_case, run_chaos_matrix
from .executors import (
    CellDone,
    ExecutorBase,
    InlineExecutor,
    UnitFailed,
    WorkerExecutor,
    WorkUnit,
    make_executor,
)
from .faults import FaultPlan, FaultSpec, backoff_delay
from .scheduler import CampaignScheduler, FabricConfig
from .selfcheck import (
    GcSelfCheckResult,
    SelfCheckResult,
    run_gc_selfcheck,
    run_selfcheck,
)
from .streaming import ProgressSnapshot, StreamingAggregator
from .watch import (
    load_fabric_health,
    render_fabric_health,
    render_snapshot,
    watch_store,
)

__all__ = [
    "FAULT_CLASSES",
    "CampaignScheduler",
    "CellDone",
    "ChaosCaseResult",
    "ExecutorBase",
    "FabricConfig",
    "FaultPlan",
    "FaultSpec",
    "GcSelfCheckResult",
    "InlineExecutor",
    "ProgressSnapshot",
    "SelfCheckResult",
    "StreamingAggregator",
    "UnitFailed",
    "WorkUnit",
    "WorkerExecutor",
    "backoff_delay",
    "load_fabric_health",
    "make_executor",
    "render_fabric_health",
    "render_snapshot",
    "run_chaos_case",
    "run_chaos_matrix",
    "run_gc_selfcheck",
    "run_selfcheck",
    "watch_store",
]
