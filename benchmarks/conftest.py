"""Shared configuration for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
``BENCH_SCALE`` profile (seconds per scenario instead of the paper's
hours) and prints the regenerated artifact.  Run with::

    pytest benchmarks/ --benchmark-only -s

Use :data:`repro.experiments.PAPER_SCALE` in the experiment drivers for
a full-scale validation run.

Figures whose grid is a campaign (Figs. 12 and 14-19) run it with
:func:`campaign_records`: the cells go through ``run_campaign`` and a
JSONL store, the path ``repro campaign run`` takes, and each figure
reads its numbers back from the stored records.
"""

from __future__ import annotations

from typing import List, Sequence

import pytest

from repro.campaign import (
    CampaignSpec,
    CellRecord,
    ScenarioSpec,
    open_store,
    run_campaign,
)
from repro.experiments.scale import ExperimentScale
from repro.media.frames import FrameSpec

#: The benchmark suite's scale: small frames, short sessions.
BENCH_SCALE = ExperimentScale(
    sessions=2,
    lag_session_duration_s=12.0,
    qoe_session_duration_s=8.0,
    content_spec=FrameSpec(128, 96, 12),
    probe_count=10,
    score_frames=24,
    seed=11,
)


@pytest.fixture
def scale():
    """The benchmark scale profile."""
    return BENCH_SCALE


@pytest.fixture
def emit(capsys):
    """Print a regenerated artifact to the real terminal."""

    def _emit(title: str, body: str) -> None:
        with capsys.disabled():
            print(f"\n=== {title} ===")
            print(body)

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def campaign_records(tmp_path_factory, name: str,
                     scenarios: Sequence[ScenarioSpec]) -> List[CellRecord]:
    """Run a figure's grid as a campaign; the ok record of every cell.

    The campaign runs at ``BENCH_SCALE`` from the default master seed
    on two workers into a fresh store, and the records are read back
    from that store in expansion order.  A cell without an ok record
    fails here, named with its last error, rather than as a missing
    key in a figure test.
    """
    spec = CampaignSpec(name, scenarios, scale=BENCH_SCALE)
    path = str(tmp_path_factory.mktemp(name) / "campaign.jsonl")
    summary = run_campaign(spec, path, workers=2)
    records = open_store(path).cell_records()
    ok = {record.cell_id: record for record in records if record.ok}
    errors = {record.cell_id: record.error
              for record in records if not record.ok}
    cells = spec.expand()
    missing = [cell.cell_id for cell in cells if cell.cell_id not in ok]
    assert summary.failed == 0 and not missing, (
        f"campaign {name!r}: {summary.failed} failed cell(s)\n"
        + "\n".join(
            f"{cell_id}: {errors.get(cell_id, 'no record')}"
            for cell_id in missing
        )
    )
    return [ok[cell.cell_id] for cell in cells]
