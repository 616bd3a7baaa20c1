"""Streaming aggregation: fold cell records into live paper tables.

The one-shot pipeline re-read the whole store at the end of a run to
build its report.  :class:`StreamingAggregator` instead folds each
:class:`~repro.campaign.store.CellRecord` as it arrives -- from the
scheduler during a run, or from ``store.tail()`` in ``campaign watch``
-- maintaining per-kind table rows, progress counters, failure lists
and a throughput window incrementally.  Only kinds that actually
received new records re-render their table (dirty tracking), and the
assembled report is *identical* to the batch one:
:func:`repro.campaign.aggregate.build_report` is itself implemented by
folding records through this class.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from ...analysis.report import ExperimentReport
from ...analysis.tables import TextTable
from ..aggregate import KIND_TABLES, KIND_TITLES
from ..spec import CampaignCell, CampaignSpec
from ..store import CellRecord

#: How many recent arrival timestamps feed the throughput estimate.
RATE_WINDOW = 64

#: How many recent failures a snapshot carries.
FAILURE_WINDOW = 8


@dataclass
class ProgressSnapshot:
    """One observation of a campaign's progress.

    Attributes:
        name: Campaign name.
        spec_hash: Spec hash from the store header.
        total: Cells in the grid.
        ok: Distinct cells completed successfully.
        failed: Distinct cells whose latest outcome is an error.
        pending: Cells with no successful record yet.
        cells_per_s: Completion rate over the recent arrival window
            (``None`` until two records have arrived).
        eta_s: Estimated seconds to finish pending cells at that rate.
        runtime_s: Total cell runtime folded so far.
        kind_rows: Per-kind ``[kind, total, done, failed, pending]``.
        recent_failures: Latest ``(cell_id, error)`` pairs.
    """

    name: str
    spec_hash: str
    total: int
    ok: int
    failed: int
    pending: int
    cells_per_s: Optional[float]
    eta_s: Optional[float]
    runtime_s: float
    kind_rows: List[List[object]] = field(default_factory=list)
    recent_failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every cell in the grid has succeeded."""
        return self.pending == 0


class StreamingAggregator:
    """Incremental fold of cell records into paper-style output.

    Fold order does not matter for the rendered tables (rows are keyed
    by cell id and rendered sorted), which is what makes the aggregate
    stable across executors, shard interleavings and resumes.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        #: Cells per kind in the grid: counted by the scheduler from its
        #: one grid expansion, else expanded once on first use.
        self._kind_totals: Optional[Dict[str, int]] = None
        self._ok: Dict[str, CellRecord] = {}
        self._failed: Dict[str, List[CellRecord]] = {}
        self._rows: Dict[str, Dict[str, List[List[object]]]] = {}
        self._kinds_with_ok: Set[str] = set()
        self._dirty: Set[str] = set()
        self._body_cache: Dict[str, str] = {}
        self._kind_ok: Dict[str, int] = {}
        self._kind_failed: Dict[str, int] = {}
        self._delta_dirty: Set[str] = set()
        self._delta_baseline: Dict[str, Tuple[int, int]] = {}
        self._ok_folds = 0
        self._runtime = 0.0
        self._arrivals: Deque[float] = deque(maxlen=RATE_WINDOW)
        self._recent_failures: Deque[Tuple[str, str]] = deque(
            maxlen=FAILURE_WINDOW
        )

    # -- folding ---------------------------------------------------------

    def fold(self, record: CellRecord,
             arrival: Optional[float] = None) -> None:
        """Absorb one cell record (from the scheduler or a store tail)."""
        self._arrivals.append(
            arrival if arrival is not None else time.monotonic()
        )
        self._absorb(record)

    def _absorb(self, record: CellRecord) -> None:
        self._runtime += record.duration_s
        if record.ok:
            self._ok_folds += 1
            if record.cell_id not in self._ok:
                self._kind_ok[record.kind] = (
                    self._kind_ok.get(record.kind, 0) + 1
                )
            self._ok[record.cell_id] = record
            if self._failed.pop(record.cell_id, None):
                self._kind_failed[record.kind] -= 1
            self._kinds_with_ok.add(record.kind)
            if record.metrics and record.kind in KIND_TABLES:
                rows = KIND_TABLES[record.kind].rows(record)
                self._rows.setdefault(record.kind, {})[record.cell_id] = rows
            self._dirty.add(record.kind)
            self._delta_dirty.add(record.kind)
        elif record.cell_id not in self._ok:
            bucket = self._failed.setdefault(record.cell_id, [])
            if not bucket:
                self._kind_failed[record.kind] = (
                    self._kind_failed.get(record.kind, 0) + 1
                )
            bucket.append(record)
            self._delta_dirty.add(record.kind)
            self._recent_failures.append(
                (record.cell_id, (record.error or "?").splitlines()[0])
            )

    def seed(self, records: "List[CellRecord]") -> None:
        """Fold records already persisted (resume / late attach).

        History counts as one arrival, at the time of the seed:
        replaying it in a tight loop must not fabricate a throughput
        estimate (the scheduler sizes work units from
        :attr:`cells_per_s`), and the first live record after it reads
        one cell over the time since the seed.
        """
        for record in records:
            self._absorb(record)
        if records:
            self._arrivals.append(time.monotonic())

    # -- progress --------------------------------------------------------

    @property
    def ok_count(self) -> int:
        """Distinct cells completed successfully."""
        return len(self._ok)

    @property
    def failed_count(self) -> int:
        """Distinct cells whose latest outcome is an error."""
        return len(self._failed)

    def _rate(self) -> Optional[float]:
        if len(self._arrivals) < 2:
            return None
        span = self._arrivals[-1] - self._arrivals[0]
        if span <= 0:
            return None
        return (len(self._arrivals) - 1) / span

    @property
    def cells_per_s(self) -> Optional[float]:
        """Completion rate over the recent arrival window.

        ``None`` until two arrivals (a resume seed is one) or when
        they all landed in the same instant.  The scheduler
        reads this to size worker units adaptively.
        """
        return self._rate()

    def kind_deltas(self) -> List[Tuple[str, int, int]]:
        """Per-kind ``(kind, ok_delta, failed_delta)`` since last call.

        Dirty-tracked: only kinds that received records since the
        previous call are inspected, and kinds whose distinct ok/failed
        counts did not actually move are skipped.  Calling this resets
        the movement baseline, so ``campaign watch`` sees exactly the
        cells that landed between its ticks.
        """
        deltas: List[Tuple[str, int, int]] = []
        for kind in sorted(self._delta_dirty):
            current = (
                self._kind_ok.get(kind, 0),
                self._kind_failed.get(kind, 0),
            )
            last = self._delta_baseline.get(kind, (0, 0))
            if current != last:
                deltas.append(
                    (kind, current[0] - last[0], current[1] - last[1])
                )
            self._delta_baseline[kind] = current
        self._delta_dirty.clear()
        return deltas

    def count_grid(self, cells: Iterable[CampaignCell]) -> None:
        """Take the per-kind grid totals from an existing expansion."""
        self._kind_totals = dict(Counter(cell.kind for cell in cells))

    def _totals(self) -> Dict[str, int]:
        if self._kind_totals is None:
            self.count_grid(self.spec.expand())
        return self._kind_totals

    def kind_rows(self) -> List[List[object]]:
        """Per-kind ``[kind, total, done, failed, pending]`` rows.

        Done and failed are the fold's distinct-cell counters, so a
        row costs no pass over the grid or the records.
        """
        totals = self._totals()
        rows: List[List[object]] = []
        for kind in KIND_TITLES:
            if kind in totals:
                done = self._kind_ok.get(kind, 0)
                rows.append([kind, totals[kind], done,
                             self._kind_failed.get(kind, 0),
                             totals[kind] - done])
        return rows

    def status_table(self) -> TextTable:
        """The per-kind progress rows as a table."""
        table = TextTable(["Kind", "Cells", "Completed", "Failed",
                           "Pending"])
        for row in self.kind_rows():
            table.add_row(row)
        return table

    def snapshot(self) -> ProgressSnapshot:
        """Current progress (cells/s, ETA, per-kind counts)."""
        total = sum(self._totals().values())
        ok = self.ok_count
        pending = total - ok
        rate = self._rate()
        return ProgressSnapshot(
            name=self.spec.name,
            spec_hash=self.spec.spec_hash(),
            total=total,
            ok=ok,
            failed=self.failed_count,
            pending=pending,
            cells_per_s=rate,
            eta_s=(pending / rate) if rate and pending else None,
            runtime_s=self._runtime,
            kind_rows=self.kind_rows(),
            recent_failures=list(self._recent_failures),
        )

    # -- report assembly -------------------------------------------------

    def _section_body(self, kind: str) -> str:
        if kind in self._dirty or kind not in self._body_cache:
            spec = KIND_TABLES[kind]
            table = TextTable(list(spec.headers))
            rows_by_cell = self._rows.get(kind, {})
            for cell_id in sorted(rows_by_cell):
                for row in rows_by_cell[cell_id]:
                    table.add_row(row)
            self._body_cache[kind] = table.render()
            self._dirty.discard(kind)
        return self._body_cache[kind]

    def _failure_records(self) -> List[CellRecord]:
        return [
            record
            for cell_id in sorted(self._failed)
            for record in self._failed[cell_id]
        ]

    def refresh_report(self, report: ExperimentReport) -> ExperimentReport:
        """Upsert this aggregate's sections into a live report.

        Existing sections keep their position; only kinds that received
        new records since the last refresh re-render their table body.
        """
        failures = self._failure_records()
        report.replace_section(
            "Campaign summary",
            self.status_table().render(),
            notes=[
                f"spec hash {self.spec.spec_hash()}, "
                f"master seed {self.spec.master_seed}",
                f"{self._ok_folds} cells stored, {len(failures)} failures, "
                f"{self._runtime:.1f} s of cell runtime",
            ],
        )
        for kind, title in KIND_TITLES.items():
            if kind in self._kinds_with_ok:
                report.replace_section(title, self._section_body(kind))
        if failures:
            table = TextTable(["Cell", "Error"])
            for record in failures:
                table.add_row([record.cell_id, record.error or "?"])
            report.replace_section("Failures", table.render())
        return report

    def build_report(self) -> ExperimentReport:
        """A fresh paper-style report from the folded records.

        Section order is canonical (summary, kinds in
        :data:`~repro.campaign.aggregate.KIND_TITLES` order, failures),
        so this matches a batch report built from the store.
        """
        return self.refresh_report(
            ExperimentReport(f"Campaign report: {self.spec.name}")
        )
