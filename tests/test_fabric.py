"""The campaign fabric: executors, retries, checkpoints, streaming.

Worker crashes here are real: a fault plan's ``cell.crash`` makes the
worker running one cell SIGKILL itself on that cell's first attempt,
so the worker-respawn path is exercised with actual dead processes,
not mocks.
"""

import json
import os
import random
import time

import pytest

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import TextTable
from repro.campaign import (
    CampaignScheduler,
    FabricConfig,
    FaultPlan,
    FaultSpec,
    StreamingAggregator,
    build_report,
    calibration_campaign,
    open_store,
    run_campaign,
    status_table,
    watch_store,
)
from repro.campaign.fabric import faults
from repro.campaign.fabric.executors import (
    InlineExecutor,
    WorkerExecutor,
    make_executor,
)
from repro.campaign.fabric.scheduler import CHECKPOINT_NAME
from repro.cli import main
from repro.errors import CampaignError


@pytest.fixture
def crash_once(tmp_path):
    """Arm the fault plane: the worker running a grid's first cell (by
    id) SIGKILLs itself once.  Returns ``(plan, crashing cell id)``."""

    def arm(spec):
        target = sorted(cell.cell_id for cell in spec.expand())[0]
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("cell.crash", cell_id=target),),
            state_dir=str(tmp_path / "fault-state"),
        )
        faults.activate(plan, str(tmp_path / "fault-plan.json"))
        return plan, target

    yield arm
    faults.deactivate()


def content_keys(store_path):
    return sorted(
        r.content_key() for r in open_store(store_path).cell_records()
    )


def ok_metrics(store_path):
    store = open_store(store_path)
    return {
        r.cell_id: r.metrics for r in store.cell_records() if r.ok
    }


class TestExecutors:
    def test_make_executor_by_worker_count(self):
        assert isinstance(make_executor(1), InlineExecutor)
        executor = make_executor(3, cell_timeout_s=2.0)
        assert isinstance(executor, WorkerExecutor)
        assert executor.workers == 3 and executor.cell_timeout_s == 2.0

    @pytest.mark.parametrize("workers", [
        pytest.param(1, id="inline-1"), pytest.param(2, id="workers-2"),
    ])
    def test_executors_produce_identical_cells(self, tmp_path, workers):
        """Inline and worker processes store the same cell content, on
        no-op calibration cells and on the real smoke grid."""
        from repro.campaign import smoke_campaign

        for spec in (calibration_campaign(cells=8, name="equiv"),
                     smoke_campaign()):
            path = str(tmp_path / f"{spec.name}.jsonl")
            summary = run_campaign(spec, path, workers=workers)
            assert summary.executed == spec.cell_count()
            assert summary.failed == 0
            reference = str(tmp_path / f"{spec.name}-ref.jsonl")
            run_campaign(spec, reference, workers=1)
            assert content_keys(path) == content_keys(reference)

    def test_invalid_worker_count_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(
                calibration_campaign(cells=2),
                str(tmp_path / "x.jsonl"), workers=0,
            )

    def _unit(self, unit_id=0):
        from repro.campaign.fabric.executors import WorkUnit

        payload = {
            "cell_id": f"noop:index={unit_id}", "kind": "noop",
            "params": {"index": unit_id}, "seed": 1,
            "spec_hash": "x" * 16, "scale": {},
        }
        return WorkUnit(unit_id=unit_id, payloads=(payload,))

    @pytest.mark.parametrize("workers", [
        pytest.param(1, id="inline-1"), pytest.param(2, id="workers-2"),
    ])
    def test_abandon_returns_pending_not_worker_death(self, workers):
        """The crash-loop breaker relies on abandon(): every queued
        payload comes back as an orderly UnitFailed so it can be
        resubmitted elsewhere, never through the scheduler's
        worker-death accounting."""
        from repro.campaign.fabric.executors import UnitFailed

        executor = make_executor(workers)
        executor.start()
        try:
            units = [self._unit(i) for i in range(3)]
            for unit in units:
                executor.submit(unit)
            abandoned = executor.abandon()
        finally:
            executor.shutdown()
        assert executor.outstanding() == 0
        pending = [p for event in abandoned for p in event.pending]
        assert all(isinstance(event, UnitFailed) for event in abandoned)
        assert all(event.reason == "executor abandoned"
                   for event in abandoned)
        # Units may already be mid-flight on workers, so abandon
        # returns a subset; everything it does return must be intact.
        for payload in pending:
            assert payload["kind"] == "noop"


class TestCrashRecovery:
    def test_worker_crash_is_retried_not_fatal(self, tmp_path, crash_once):
        spec = calibration_campaign(cells=5, name="crashy")
        plan, _ = crash_once(spec)
        path = str(tmp_path / "workers.jsonl")
        summary = run_campaign(spec, path, workers=2, max_attempts=3)
        assert summary.failed == 0
        assert summary.executed == spec.cell_count()
        assert summary.retried >= 1
        assert plan.fired("cell.crash") == 1  # the crash really happened
        # Retried content matches a crash-free inline run bit for bit
        # (the crash never fires in this, the plan's parent, process).
        reference = str(tmp_path / "ref.jsonl")
        run_campaign(spec, reference, workers=1)
        assert ok_metrics(path) == ok_metrics(reference)

    def test_retry_budget_exhaustion_records_error(self, tmp_path,
                                                   crash_once):
        # max_attempts=1: the crash cell's single crash exhausts it.
        spec = calibration_campaign(cells=3, name="crashy")
        crash_once(spec)
        path = str(tmp_path / "exhaust.jsonl")
        summary = run_campaign(spec, path, workers=2, max_attempts=1)
        assert summary.failed >= 1
        errors = [r for r in summary.records if not r.ok]
        assert any("fabric:" in r.error and "attempt 1/1" in r.error
                   for r in errors)
        # The run terminated with one final outcome per cell.
        assert summary.executed == spec.cell_count()

    def test_spawn_cell_timeout_kills_worker(self, tmp_path):
        # One cell spins for 30s against a 0.4s budget.
        spec = calibration_campaign(cells=1, spin_ms=30_000.0,
                                    name="stuck")
        path = str(tmp_path / "timeout.jsonl")
        summary = run_campaign(
            spec, path, workers=2, max_attempts=1, cell_timeout_s=0.4,
        )
        assert summary.failed == 1
        assert "timeout" in summary.records[0].error

    def test_failed_cells_rerun_on_resume(self, tmp_path, crash_once):
        spec = calibration_campaign(cells=3, name="crashy")
        crash_once(spec)
        path = str(tmp_path / "resume.jsonl")
        first = run_campaign(spec, path, workers=2, max_attempts=1)
        assert first.failed >= 1
        # The crash is spent, so the rerun succeeds.
        second = run_campaign(
            spec, path, workers=1, resume=True
        )
        assert second.failed == 0
        store = open_store(path)
        assert len(store.completed_ids()) == spec.cell_count()


class TestScheduler:
    def test_config_validation(self):
        with pytest.raises(CampaignError):
            FabricConfig(workers=0)
        with pytest.raises(CampaignError):
            FabricConfig(max_attempts=0)

    def test_policy_surface_is_pinned(self):
        """Poison and crash-loop verdicts derive from ``max_attempts``
        and ``workers``, and backoff and fsync are fixed: a new policy
        knob on ``campaign run`` or ``FabricConfig`` fails here first."""
        import argparse
        import dataclasses

        from repro.cli import build_parser

        def subcommand(parser, name):
            (action,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
            return action.choices[name]

        run = subcommand(subcommand(build_parser(), "campaign"), "run")
        flags = {flag for action in run._actions
                 for flag in action.option_strings}
        assert flags == {
            "-h", "--help", "--store", "--platforms", "--kinds",
            "--workers", "--resume", "--name", "--smoke", "--paper-scale",
            "--spec-json", "--calibration", "--spin-ms", "--max-attempts",
            "--cell-timeout", "--sessions", "--duration", "--probes",
            "--seed",
        }
        assert [f.name for f in dataclasses.fields(FabricConfig)] == [
            "workers", "max_attempts", "cell_timeout_s",
        ]

    def test_cell_timeout_needs_workers(self, tmp_path, capsys):
        """One worker runs cells in-process, where nothing can stop an
        overrunning cell: a timeout there is refused, not ignored."""
        with pytest.raises(CampaignError, match="cell timeout needs"):
            FabricConfig(workers=1, cell_timeout_s=0.5)
        assert FabricConfig(workers=2, cell_timeout_s=0.5).cell_timeout_s
        store = str(tmp_path / "t.jsonl")
        assert main([
            "campaign", "run", "--calibration", "1", "--spin-ms", "3000",
            "--cell-timeout", "0.5", "--workers", "1", "--store", store,
        ]) == 2
        assert "cell timeout needs workers > 1" in capsys.readouterr().err
        assert not os.path.exists(store)

    def test_shard_sizing(self):
        # Inline runs single-cell units, whatever the rate.
        inline = FabricConfig(workers=1)
        assert inline.resolve_shard_size(100) == 1
        assert inline.resolve_shard_size(64, 8.0) == 1
        # Workers: about four units per worker across the run.
        workers = FabricConfig(workers=2)
        assert workers.resolve_shard_size(64) == 8
        assert workers.resolve_shard_size(4) == 1
        assert workers.resolve_shard_size(10_000) == 16  # the cap

    def test_adaptive_shard_sizing_from_rate(self):
        workers = FabricConfig(workers=2)
        # No throughput estimate yet: the static heuristic.
        assert workers.resolve_shard_size(64, None) == 8
        # 8 cells/s over 2 workers at 2s-of-work units -> 8 cells each.
        assert workers.resolve_shard_size(64, 8.0) == 8
        # Slow cells requeue as single-cell units.
        assert workers.resolve_shard_size(64, 0.5) == 1
        # Fast cells clamp at the monopolisation cap...
        assert workers.resolve_shard_size(1000, 400.0) == 16
        # ...and never exceed the work actually pending.
        assert workers.resolve_shard_size(3, 400.0) == 3

    def test_checkpoint_cleared_on_completion(self, tmp_path):
        spec = calibration_campaign(cells=3, name="ckpt")
        path = str(tmp_path / "c.jsonl")
        scheduler = CampaignScheduler(spec, path)
        scheduler.run()
        assert not os.path.exists(path + "." + CHECKPOINT_NAME)

    def test_checkpoint_survives_failure_and_clears_after(self, tmp_path,
                                                          crash_once):
        spec = calibration_campaign(cells=3, name="ckpt2")
        crash_once(spec)
        path = str(tmp_path / "c.jsonl")
        run_campaign(spec, path, workers=2, max_attempts=1)
        checkpoint = path + "." + CHECKPOINT_NAME
        assert os.path.exists(checkpoint)
        state = json.load(open(checkpoint))
        assert state["spec_hash"] == spec.spec_hash()
        assert state["attempts"]  # the crashed cell spent an attempt
        # The crash is spent; resume completes and clears the checkpoint.
        run_campaign(spec, path, workers=1, resume=True)
        assert not os.path.exists(checkpoint)

    def test_scheduler_aggregator_is_live(self, tmp_path):
        spec = calibration_campaign(cells=5, name="live")
        scheduler = CampaignScheduler(spec, str(tmp_path / "c.jsonl"))
        scheduler.run()
        snapshot = scheduler.aggregator.snapshot()
        assert snapshot.complete
        assert snapshot.ok == 5 and snapshot.failed == 0


class TestBookkeepingCounts:
    """Durable bookkeeping happens only when something changed: exact
    counts of sidecar writes and grid expansions."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_clean_run_writes_no_sidecar(self, tmp_path, monkeypatch,
                                         workers):
        from repro.campaign.store import CampaignStore

        writes = []
        replace = os.replace

        def counting_replace(src, dst):
            if str(dst).endswith(CHECKPOINT_NAME):
                writes.append(dst)
            replace(src, dst)

        sidecar_seen = []
        append = CampaignStore.append_cell

        def checked_append(store, record):
            sidecar_seen.append(
                os.path.exists(store.sidecar_path(CHECKPOINT_NAME))
            )
            append(store, record)

        monkeypatch.setattr(os, "replace", counting_replace)
        monkeypatch.setattr(CampaignStore, "append_cell", checked_append)
        spec = calibration_campaign(cells=40, name="clean")
        path = str(tmp_path / "clean.jsonl")
        summary = run_campaign(spec, path, workers=workers)
        assert summary.executed == 40 and summary.failed == 0
        assert writes == []
        assert sidecar_seen == [False] * 40
        assert not os.path.exists(path + "." + CHECKPOINT_NAME)

    def test_spent_attempt_is_on_disk_before_the_next_record(
            self, tmp_path, monkeypatch, crash_once):
        from repro.campaign.store import CampaignStore

        spec = calibration_campaign(cells=5, name="attempt-on-disk")
        _, crash_cell = crash_once(spec)
        absorbed = []
        after_failure = []
        absorb = CampaignScheduler._absorb_failure
        append = CampaignStore.append_cell

        def marking_absorb(scheduler, *args):
            absorb(scheduler, *args)
            absorbed.append(True)

        def checked_append(store, record):
            if absorbed:
                with open(store.sidecar_path(CHECKPOINT_NAME)) as handle:
                    after_failure.append(json.load(handle)["attempts"])
            append(store, record)

        monkeypatch.setattr(CampaignScheduler, "_absorb_failure",
                            marking_absorb)
        monkeypatch.setattr(CampaignStore, "append_cell", checked_append)
        summary = run_campaign(spec, str(tmp_path / "crash.jsonl"),
                               workers=2, max_attempts=2)
        assert summary.failed == 0 and summary.retried == 1
        assert absorbed == [True]
        # The retried cell's own record lands after the failure at least.
        assert after_failure
        assert all(state == {crash_cell: 1} for state in after_failure)

    def test_resume_rewrites_a_torn_sidecar_at_its_first_save(
            self, tmp_path):
        spec = calibration_campaign(cells=3, name="torn-resume")
        path = str(tmp_path / "torn.jsonl")
        open_store(path).initialise(spec)
        sidecar = path + "." + CHECKPOINT_NAME
        with open(sidecar, "w") as handle:
            handle.write('{"attempts": {"noo')
        seen = []

        def progress(record, done, total):
            with open(sidecar) as handle:
                seen.append(handle.read())

        run_campaign(spec, path, resume=True, progress=progress)
        # Inline units land one record per poll; the poll's end is the
        # first save point.
        assert seen[0] == '{"attempts": {"noo'
        assert json.loads(seen[1])["attempts"] == {}
        assert not os.path.exists(sidecar)

    @staticmethod
    def count_builds(monkeypatch):
        """Patch ``CampaignCell.build``; the list it appends to."""
        from repro.campaign.spec import CampaignCell

        built = []
        build = CampaignCell.build.__func__

        def counting_build(cls, *args):
            built.append(args[1])
            return build(cls, *args)

        monkeypatch.setattr(CampaignCell, "build",
                            classmethod(counting_build))
        return built

    def test_fresh_run_expands_the_grid_once(self, tmp_path, monkeypatch):
        spec = calibration_campaign(cells=12, name="one-expand")
        cells = spec.cell_count()
        built = self.count_builds(monkeypatch)
        summary = run_campaign(spec, str(tmp_path / "once.jsonl"))
        assert summary.executed == cells
        assert len(built) == cells
        assert open_store(str(tmp_path / "once.jsonl")).header()["cells"] \
            == cells

    def test_status_rows_expand_the_grid_once(self, tmp_path, monkeypatch):
        spec = calibration_campaign(cells=40, name="status-once")
        path = str(tmp_path / "status.jsonl")
        run_campaign(spec, path)
        records = open_store(path).cell_records()
        built = self.count_builds(monkeypatch)
        aggregator = StreamingAggregator(spec)
        for record in records:
            aggregator.fold(record)
        snapshots = [aggregator.snapshot() for _ in range(5)]
        report = aggregator.refresh_report(ExperimentReport("status"))
        assert len(built) == 40
        assert snapshots[-1].kind_rows == [["noop", 40, 40, 0, 0]]
        assert aggregator.status_table().render() in report.render()


class TestStreamingAggregation:
    def folded_report(self, spec, records):
        aggregator = StreamingAggregator(spec)
        for record in records:
            aggregator.fold(record)
        return aggregator.build_report().render()

    def test_streaming_matches_batch_any_order(self, tmp_path):
        spec = calibration_campaign(cells=6, name="order")
        path = str(tmp_path / "c.jsonl")
        run_campaign(spec, path, workers=1)
        records = open_store(path).cell_records()
        batch = build_report(spec, records).render()
        assert self.folded_report(spec, records) == batch
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        assert self.folded_report(spec, shuffled) == batch

    def test_streaming_matches_batch_on_real_kinds(self, tmp_path):
        from repro.campaign import smoke_campaign

        spec = smoke_campaign()
        path = str(tmp_path / "smoke.jsonl")
        run_campaign(spec, path, workers=1)
        records = open_store(path).cell_records()
        batch = build_report(spec, records).render()
        assert self.folded_report(spec, records) == batch
        assert "Streaming lag" in batch and "Video QoE" in batch

    def test_snapshot_progress(self):
        spec = calibration_campaign(cells=4, name="snap")
        aggregator = StreamingAggregator(spec)
        snapshot = aggregator.snapshot()
        assert snapshot.total == 4 and snapshot.pending == 4
        assert not snapshot.complete
        from repro.campaign.runner import _cell_payload, execute_cell

        for index, cell in enumerate(spec.expand()):
            payload = execute_cell(
                _cell_payload(cell, spec, spec.spec_hash())
            )
            from repro.campaign import CellRecord
            aggregator.fold(
                CellRecord.from_dict(payload), arrival=float(index)
            )
        snapshot = aggregator.snapshot()
        assert snapshot.complete and snapshot.ok == 4
        assert snapshot.cells_per_s == pytest.approx(1.0)
        assert snapshot.eta_s is None

    def test_failure_superseded_by_ok(self):
        from repro.campaign import CellRecord

        spec = calibration_campaign(cells=1, name="supersede")
        cell = spec.expand()[0]
        base = dict(cell_id=cell.cell_id, kind=cell.kind,
                    params=dict(cell.params), seed=cell.seed,
                    spec_hash=spec.spec_hash())
        aggregator = StreamingAggregator(spec)
        aggregator.fold(CellRecord(status="error", error="boom", **base))
        assert aggregator.failed_count == 1
        aggregator.fold(CellRecord(
            status="ok", metrics={"index": 0, "value": 1}, **base
        ))
        assert aggregator.failed_count == 0
        assert "## Failures" not in aggregator.build_report().render()

    def record_of(self, spec, cell, status="ok"):
        from repro.campaign import CellRecord

        return CellRecord(
            cell_id=cell.cell_id, kind=cell.kind,
            params=dict(cell.params), seed=cell.seed,
            spec_hash=spec.spec_hash(), status=status,
            metrics={"index": cell.params["index"], "value": 1}
            if status == "ok" else None,
            error=None if status == "ok" else "boom",
        )

    def test_cells_per_s_property(self):
        spec = calibration_campaign(cells=4, name="rate")
        cells = spec.expand()
        aggregator = StreamingAggregator(spec)
        assert aggregator.cells_per_s is None
        for index, cell in enumerate(cells[:3]):
            aggregator.fold(self.record_of(spec, cell),
                            arrival=float(index))
        assert aggregator.cells_per_s == pytest.approx(1.0)

    def test_seed_does_not_fabricate_a_rate(self, tmp_path):
        spec = calibration_campaign(cells=6, name="seeded")
        path = str(tmp_path / "s.jsonl")
        run_campaign(spec, path, workers=1)
        aggregator = StreamingAggregator(spec)
        aggregator.seed(open_store(path).cell_records())
        # Replaying history in a tight loop must not look like
        # thousands of cells/s to the adaptive shard sizing.
        assert aggregator.cells_per_s is None
        # Nor may it pad the rate of the first live record: one cell
        # five seconds after the seed is 0.2 cells/s.
        aggregator.fold(self.record_of(spec, spec.expand()[0]),
                        arrival=time.monotonic() + 5.0)
        assert aggregator.cells_per_s == pytest.approx(0.2, rel=1e-3)

    def test_kind_rows_match_a_brute_force_count(self):
        from repro.campaign import CampaignSpec, CellRecord, ScenarioSpec
        from repro.campaign.aggregate import KIND_TITLES

        # noop index 2 is in both sweeps: one cell, counted once.
        spec = CampaignSpec("kind-rows", [
            ScenarioSpec("noop", {"index": (0, 1, 2)}),
            ScenarioSpec("noop", {"index": (2, 3)}),
            ScenarioSpec("endpoints", {"platform": ("zoom", "meet")}),
        ])
        cells = spec.expand()

        def record(index, status):
            cell = cells[index]
            ok = status == "ok"
            metrics = ({"index": 0, "value": 1} if cell.kind == "noop"
                       else {"mean_endpoints_per_client": 1.0})
            return CellRecord(
                cell_id=cell.cell_id, kind=cell.kind,
                params=dict(cell.params), seed=cell.seed,
                spec_hash=spec.spec_hash(), status=status,
                metrics=metrics if ok else None,
                error=None if ok else "boom",
            )

        records = [
            record(0, "ok"),
            record(1, "error"), record(1, "ok"),  # failed, then retried
            record(2, "error"),
            record(4, "error"), record(4, "error"),
        ]
        ok_ids = {r.cell_id for r in records if r.ok}
        failed_ids = {r.cell_id for r in records if not r.ok} - ok_ids
        expected = []
        for kind in KIND_TITLES:
            kind_cells = [c for c in cells if c.kind == kind]
            if kind_cells:
                done = sum(c.cell_id in ok_ids for c in kind_cells)
                failed = sum(c.cell_id in failed_ids for c in kind_cells)
                expected.append([kind, len(kind_cells), done, failed,
                                 len(kind_cells) - done])
        assert expected == [["endpoints", 2, 0, 1, 2],
                            ["noop", 4, 2, 1, 2]]
        expected_table = TextTable(["Kind", "Cells", "Completed", "Failed",
                                    "Pending"])
        for row in expected:
            expected_table.add_row(row)
        for seed in range(4):
            shuffled = list(records)
            random.Random(seed).shuffle(shuffled)
            aggregator = StreamingAggregator(spec)
            for item in shuffled:
                aggregator.fold(item)
            assert aggregator.snapshot().kind_rows == expected
            assert status_table(spec, shuffled).render() \
                == expected_table.render()

    def test_kind_deltas_dirty_tracking(self):
        spec = calibration_campaign(cells=3, name="deltas")
        cells = spec.expand()
        aggregator = StreamingAggregator(spec)
        assert aggregator.kind_deltas() == []
        aggregator.fold(self.record_of(spec, cells[0], status="error"))
        assert aggregator.kind_deltas() == [("noop", 0, 1)]
        # Quiet between calls: nothing to report, nothing recomputed.
        assert aggregator.kind_deltas() == []
        # The retry's ok supersedes the failure and lands a cell.
        aggregator.fold(self.record_of(spec, cells[0]))
        aggregator.fold(self.record_of(spec, cells[1]))
        assert aggregator.kind_deltas() == [("noop", 2, -1)]
        # A duplicate ok for the same cell moves no distinct counts.
        aggregator.fold(self.record_of(spec, cells[1]))
        assert aggregator.kind_deltas() == []


class TestWatch:
    def test_watch_once_renders_progress(self, tmp_path, capsys):
        spec = calibration_campaign(cells=4, name="watched")
        path = str(tmp_path / "w.jsonl")
        run_campaign(spec, path, workers=1)
        report_path = str(tmp_path / "live.md")
        snapshot = watch_store(path, once=True, report_path=report_path)
        assert snapshot.complete
        out = capsys.readouterr().out
        assert "4/4 ok" in out
        live = open(report_path).read()
        batch = build_report(
            spec, open_store(path).cell_records()
        ).render()
        assert live == batch

    def test_watch_follows_until_complete(self, tmp_path):
        import io

        spec = calibration_campaign(cells=3, name="follow")
        path = str(tmp_path / "f.jsonl")
        run_campaign(spec, path, workers=1)
        stream = io.StringIO()
        snapshot = watch_store(
            path, interval_s=0.01, stream=stream, max_ticks=5
        )
        assert snapshot.complete  # completes on the first tick
        assert "3/3 ok" in stream.getvalue()

    def test_watch_first_tick_reports_no_replay_rate(self, tmp_path, capsys):
        """The first tick replays history; it must not time the replay."""
        from repro.campaign import smoke_campaign

        path = str(tmp_path / "smoke.jsonl")
        run_campaign(smoke_campaign(), path, workers=1)
        capsys.readouterr()
        snapshot = watch_store(path, once=True)
        assert snapshot.complete and snapshot.ok == 5
        assert snapshot.cells_per_s is None
        assert "rate n/a" in capsys.readouterr().out

    def test_watch_second_tick_rates_only_live_records(self, tmp_path):
        import io
        import threading

        from repro.campaign import CellRecord

        spec = calibration_campaign(cells=4, name="live-rate")
        cells = spec.expand()
        path = str(tmp_path / "r.jsonl")
        writer = open_store(path)
        writer.initialise(spec)
        for cell in cells:
            record = CellRecord(
                cell_id=cell.cell_id, kind=cell.kind,
                params=dict(cell.params), seed=cell.seed,
                spec_hash=spec.spec_hash(),
                metrics={"index": cell.params["index"], "value": 1},
            )
            if cell is cells[-1]:
                last = record
            else:
                writer.append_cell(record)

        first_tick = threading.Event()

        class TickStream(io.StringIO):
            def write(self, text):
                result = super().write(text)
                first_tick.set()
                return result

        def finish():
            # One live cell at least 0.2 s after the history seed.
            first_tick.wait(timeout=10.0)
            time.sleep(0.2)
            writer.append_cell(last)
            writer.close()

        appender = threading.Thread(target=finish)
        appender.start()
        stream = TickStream()
        try:
            snapshot = watch_store(
                path, interval_s=0.02, stream=stream, max_ticks=500
            )
        finally:
            appender.join()
        assert snapshot.complete
        # Counting the three replayed records too would read >= 15.
        assert 0 < snapshot.cells_per_s <= 1 / 0.2
        assert "rate n/a" in stream.getvalue().split("campaign 'live-rate'")[1]

    def test_watch_missing_store_errors(self, tmp_path):
        with pytest.raises(CampaignError):
            watch_store(str(tmp_path / "absent.jsonl"), once=True)

    def test_watch_renders_kind_deltas_between_ticks(self, tmp_path):
        import io
        import threading

        from repro.campaign import CellRecord

        spec = calibration_campaign(cells=4, name="moves")
        cells = spec.expand()

        def record(cell):
            return CellRecord(
                cell_id=cell.cell_id, kind=cell.kind,
                params=dict(cell.params), seed=cell.seed,
                spec_hash=spec.spec_hash(),
                metrics={"index": cell.params["index"], "value": 1},
            )

        path = str(tmp_path / "d.jsonl")
        writer = open_store(path)
        writer.initialise(spec)
        for cell in cells[:2]:
            writer.append_cell(record(cell))

        first_tick = threading.Event()

        class TickStream(io.StringIO):
            def write(self, text):
                result = super().write(text)
                first_tick.set()
                return result

        def finish():
            # Only append once the watcher has printed its baseline
            # tick, so the remaining cells are guaranteed to arrive
            # *between* ticks.
            first_tick.wait(timeout=10.0)
            for cell in cells[2:]:
                writer.append_cell(record(cell))
            writer.close()

        appender = threading.Thread(target=finish)
        appender.start()
        stream = TickStream()
        try:
            snapshot = watch_store(
                path, interval_s=0.02, stream=stream, max_ticks=200
            )
        finally:
            appender.join()
        assert snapshot.complete
        out = stream.getvalue()
        # Tick blocks each start with the campaign banner line.
        ticks = out.split("campaign 'moves'")
        assert "delta" not in ticks[1]  # baseline tick: no movement
        assert "delta noop       +2 ok" in out

    def test_watch_surfaces_fabric_degradation(self, tmp_path, capsys):
        """A watcher must see quarantine/degradation/backoff state from
        the checkpoint sidecar, not just per-cell progress."""
        import json as json_mod
        import time as time_mod

        spec = calibration_campaign(cells=3, name="degraded")
        path = str(tmp_path / "h.jsonl")
        run_campaign(spec, path, workers=1)
        store = open_store(path)
        sidecar = {
            "spec_hash": spec.spec_hash(),
            "attempts": {},
            "quarantined": ["noop:index=0,spin_ms=0.0"],
            "degraded": "workers->inline after worker deaths under 3 "
                        "distinct cells (more than the 2 workers) with no "
                        "completed cell; their attempts were refunded",
            "backoff": {"noop:index=1,spin_ms=0.0": time_mod.time() + 60},
        }
        with open(store.sidecar_path("fabric.json"), "w") as handle:
            json_mod.dump(sidecar, handle)
        watch_store(path, once=True)
        out = capsys.readouterr().out
        assert "1 quarantined poison cell(s)" in out
        assert "noop:index=0,spin_ms=0.0" in out
        assert "executor degraded -- workers->inline" in out
        assert "1 cell(s) in retry backoff" in out

    def test_watch_tolerates_torn_sidecar(self, tmp_path, capsys):
        spec = calibration_campaign(cells=2, name="torn-sidecar")
        path = str(tmp_path / "t.jsonl")
        run_campaign(spec, path, workers=1)
        store = open_store(path)
        with open(store.sidecar_path("fabric.json"), "w") as handle:
            handle.write('{"quarantined": ["noo')  # writer mid-replace
        snapshot = watch_store(path, once=True)
        assert snapshot.complete  # torn health never breaks the watch


class TestFabricCli:
    def test_calibration_run_and_watch(self, tmp_path, capsys):
        store = str(tmp_path / "cal.jsonl")
        assert main([
            "campaign", "run", "--calibration", "6", "--store", store,
            "--workers", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "watch", "--store", store, "--once"]) == 0
        out = capsys.readouterr().out
        assert "6/6 ok" in out

    def test_spec_json_round_trip(self, tmp_path, capsys):
        spec = calibration_campaign(cells=3, name="fromjson")
        spec_path = str(tmp_path / "spec.json")
        spec.save(spec_path)
        store = str(tmp_path / "s.jsonl")
        assert main([
            "campaign", "run", "--spec-json", spec_path,
            "--store", store,
        ]) == 0
        assert "campaign 'fromjson'" in capsys.readouterr().out
        assert open_store(store).spec_hash() == spec.spec_hash()

    def test_gc_subcommand(self, tmp_path, capsys, crash_once):
        spec = calibration_campaign(cells=4, name="gccli")
        crash_once(spec)
        spec_path = str(tmp_path / "spec.json")
        spec.save(spec_path)
        store = str(tmp_path / "gc.jsonl")
        # First run records an error for the crash cell; the resume's
        # retry supersedes it, leaving debris for gc to drop.
        main(["campaign", "run", "--spec-json", spec_path,
              "--store", store, "--workers", "2", "--max-attempts", "1"])
        assert main(["campaign", "run", "--spec-json", spec_path,
                     "--store", store, "--resume"]) == 0
        capsys.readouterr()
        assert main(["campaign", "gc", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "dropped 1 superseded error record" in out
        store_obj = open_store(store)
        # Post-gc the store holds exactly one ok record per cell.
        assert len(store_obj.cell_records()) == spec.cell_count()
        assert len(store_obj.completed_ids()) == spec.cell_count()

    def test_chaos_subcommand_single_case(self, tmp_path, capsys):
        """One cheap case through the real CLI; the full matrix is the
        CI chaos step's job."""
        assert main([
            "campaign", "chaos", "--quick",
            "--faults", "slow", "--workdir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos[slow]: PASS" in out
        assert "1/1 cases survived" in out

    def test_chaos_rejects_unknown_fault(self, tmp_path, capsys):
        assert main([
            "campaign", "chaos", "--quick", "--faults", "gremlins",
            "--workdir", str(tmp_path),
        ]) == 2
        assert "unknown fault class" in capsys.readouterr().err


class TestScratchWorkdir:
    """``campaign chaos`` removes the temp directory it made once every
    case passes, keeps it (and prints its path) after a failure, and
    never deletes a ``--workdir`` it was given."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        import tempfile

        root = tmp_path / "tmp"
        root.mkdir()
        mkdtemp = tempfile.mkdtemp
        monkeypatch.setattr(
            tempfile, "mkdtemp",
            lambda prefix: mkdtemp(prefix=prefix, dir=str(root)),
        )
        return root

    def test_chaos_pass_removes_its_tempdir(self, temp_root, capsys):
        assert main(["campaign", "chaos", "--quick", "--faults", "slow"]) == 0
        assert "1/1 cases survived" in capsys.readouterr().out
        assert list(temp_root.iterdir()) == []

    def test_chaos_failure_keeps_its_tempdir(self, temp_root, capsys,
                                             monkeypatch):
        from repro.campaign import fabric
        from repro.campaign.fabric import ChaosCaseResult

        def failing_matrix(workdir, **_):
            open(os.path.join(workdir, "evidence.jsonl"), "w").close()
            return [ChaosCaseResult("slow", fired=1, duration_s=0.0,
                                    mismatches=["content differs"])]

        monkeypatch.setattr(fabric, "run_chaos_matrix", failing_matrix)
        assert main(["campaign", "chaos", "--quick"]) == 1
        (kept,) = temp_root.iterdir()
        assert (kept / "evidence.jsonl").exists()
        assert f"chaos: evidence kept in {kept}" in capsys.readouterr().out

    @staticmethod
    def fake_selfcheck(monkeypatch, mismatches):
        """Stand in for the kill/resume cases (``sigkill`` and
        ``gc-crash``, the former ``campaign selfcheck``): each writes a
        store into its case directory and reports ``mismatches``."""
        from repro.campaign.fabric import ChaosCaseResult, chaos

        def run_chaos_case(fault, workdir, **_):
            os.makedirs(workdir)
            open(os.path.join(workdir, "store.jsonl"), "w").close()
            return ChaosCaseResult(fault, fired=1, duration_s=0.0,
                                   mismatches=list(mismatches))

        monkeypatch.setattr(chaos, "run_chaos_case", run_chaos_case)

    def test_selfcheck_pass_removes_its_tempdir(self, temp_root, capsys,
                                                monkeypatch):
        self.fake_selfcheck(monkeypatch, mismatches=())
        assert main(["campaign", "chaos", "--quick",
                     "--faults", "sigkill", "gc-crash"]) == 0
        out = capsys.readouterr().out
        assert "chaos[sigkill]: PASS" in out
        assert "2/2 cases survived" in out
        assert list(temp_root.iterdir()) == []

    def test_selfcheck_failure_keeps_its_tempdir(self, temp_root, capsys,
                                                 monkeypatch):
        self.fake_selfcheck(monkeypatch, mismatches=("orphaned worker",))
        assert main(["campaign", "chaos", "--quick",
                     "--faults", "sigkill", "gc-crash"]) == 1
        (kept,) = temp_root.iterdir()
        assert (kept / "sigkill" / "store.jsonl").exists()
        out = capsys.readouterr().out
        assert "chaos[sigkill]: FAIL" in out
        assert "  orphaned worker" in out
        assert f"chaos: evidence kept in {kept}" in out

    def test_given_workdir_is_never_deleted(self, tmp_path, capsys):
        workdir = tmp_path / "mine"
        assert main(["campaign", "chaos", "--quick", "--faults", "slow",
                     "--workdir", str(workdir)]) == 0
        assert "1/1 cases survived" in capsys.readouterr().out
        assert (workdir / "slow" / "store.jsonl").exists()
