"""The campaign fabric.

Everything that turns a campaign spec into a finished store when the
grid is too big for one process and one sitting:

* :mod:`~repro.campaign.fabric.executors` -- where cells run: inline,
  or N owned, crash-recovering worker processes,
* :mod:`~repro.campaign.fabric.scheduler` -- sharding, dispatch,
  the one failure policy (per-cell retry budgets, poison quarantine,
  the crash-loop breaker), timeouts, durable checkpoints,
* :mod:`~repro.campaign.fabric.streaming` -- incremental folding of
  arriving records into live paper tables and progress,
* :mod:`~repro.campaign.fabric.watch` -- read-only live status over
  a store another process writes,
* :mod:`~repro.campaign.fabric.faults` -- the deterministic
  fault-injection plane (seeded fault plans, cross-process
  exactly-N-times firing, deterministic retry backoff),
* :mod:`~repro.campaign.fabric.chaos` -- the chaos matrix, the one
  durability proof CI runs: every fault class (worker crashes, hangs,
  store I/O errors, checkpoint corruption, crash loops, poison cells,
  a SIGKILLed run and a SIGKILLed gc), judged by bit-identity with a
  clean reference run.
"""

from .chaos import FAULT_CLASSES, ChaosCaseResult, run_chaos_case, run_chaos_matrix
from .executors import (
    CellDone,
    InlineExecutor,
    UnitFailed,
    WorkerExecutor,
    WorkUnit,
    make_executor,
)
from .faults import FaultPlan, FaultSpec, backoff_delay
from .scheduler import CampaignScheduler, FabricConfig
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
    "FabricConfig",
    "FaultPlan",
    "FaultSpec",
    "InlineExecutor",
    "ProgressSnapshot",
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
    "watch_store",
]
