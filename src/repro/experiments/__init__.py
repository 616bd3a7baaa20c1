"""Experiment drivers: one module per study in the paper.

Each driver reproduces the methodology of one evaluation section for
one cell of its figure (one platform, scenario, size or cap) and
returns a structured result:

* :mod:`repro.experiments.lag_study` — streaming lag + endpoint RTTs
  (Figs. 2, 4-11),
* :mod:`repro.experiments.endpoint_study` — endpoint architecture and
  churn (Fig. 3, the 20/19.5/1.8 finding),
* :mod:`repro.experiments.qoe_study` — video QoE vs session size and
  motion (Figs. 12, 14, 15, 16),
* :mod:`repro.experiments.bandwidth_study` — QoE under ingress caps
  (Figs. 17, 18),
* :mod:`repro.experiments.mobile_study` — Android resource use
  (Fig. 19, Table 4),
* :mod:`repro.experiments.dynamics_study` — QoE under *time-varying*
  conditions (bandwidth ramps, handover), reported per timeline phase.

Every driver accepts an :class:`ExperimentScale`; ``QUICK_SCALE`` keeps
benchmark runtimes in seconds, ``PAPER_SCALE`` approaches the paper's
session counts and durations.

The drivers are one-shot and in-process.  A figure's grid is a
campaign: :mod:`repro.campaign` expands it into cells, runs each cell's
driver with a per-cell seed and stores the serialized results, and the
per-figure benchmarks build Figs. 12 and 14-19 from those records.
Table 4 is the exception: :func:`run_table4` runs its conference sizes
on one shared seed (its saturation reading does not hold under
per-cell seeds).
"""

from .bandwidth_study import run_bandwidth_cell
from .dynamics_study import run_dynamics_cell
from .endpoint_study import run_endpoint_study
from .lag_study import run_lag_scenario
from .mobile_study import run_mobile_scenario, run_table4
from .qoe_study import run_qoe_cell
from .scale import ExperimentScale, PAPER_SCALE, QUICK_SCALE

__all__ = [
    "ExperimentScale",
    "PAPER_SCALE",
    "QUICK_SCALE",
    "run_bandwidth_cell",
    "run_dynamics_cell",
    "run_endpoint_study",
    "run_lag_scenario",
    "run_mobile_scenario",
    "run_qoe_cell",
    "run_table4",
]
