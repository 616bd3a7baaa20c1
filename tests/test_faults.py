"""The deterministic fault-injection plane and fabric hardening.

Backoff schedules must be reproducible bit-for-bit, fault plans must
fire exactly ``times`` across a whole process tree, transient store
I/O must be retried (and torn debris healed) without ever weakening
refuse-on-corruption, a cell whose worker dies on every attempt must
be quarantined as poison, and a crash-looping executor must degrade to
inline and still finish the grid without charging any cell.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CellRecord,
    FaultPlan,
    FaultSpec,
    backoff_delay,
    calibration_campaign,
    open_store,
    run_campaign,
)
from repro.campaign.fabric import faults
from repro.campaign.fabric.chaos import _ok_content, _subprocess_env
from repro.errors import CampaignError


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no active fault plan."""
    faults.deactivate()
    yield
    faults.deactivate()


# --------------------------------------------------------------------- #
# Backoff schedule
# --------------------------------------------------------------------- #

class TestBackoffDelay:
    def test_deterministic(self):
        a = backoff_delay("noop:index=3", 2, seed=42)
        b = backoff_delay("noop:index=3", 2, seed=42)
        assert a == b

    def test_jitter_varies_by_cell_attempt_and_seed(self):
        base = backoff_delay("cell-a", 1, seed=1)
        assert backoff_delay("cell-b", 1, seed=1) != base
        assert backoff_delay("cell-a", 2, seed=1) != base
        assert backoff_delay("cell-a", 1, seed=2) != base

    def test_bounds_half_to_full_of_raw(self):
        for attempt in range(1, 8):
            raw = min(2.0, 0.05 * 2 ** (attempt - 1))
            delay = backoff_delay("cell", attempt)
            assert raw * 0.5 <= delay < raw

    def test_exponential_growth_saturates_at_cap(self):
        # Compare upper envelopes, not samples (jitter can reorder
        # neighbours); deep attempts must sit inside the cap.
        assert backoff_delay("c", 6, base_s=0.1, cap_s=1.0) <= 1.0
        assert backoff_delay("c", 50, base_s=0.1, cap_s=1.0) <= 1.0
        assert backoff_delay("c", 50, base_s=0.1, cap_s=1.0) >= 0.5

    def test_non_positive_attempt_is_free(self):
        assert backoff_delay("c", 0) == 0.0
        assert backoff_delay("c", -1) == 0.0


# --------------------------------------------------------------------- #
# Fault specs and plans
# --------------------------------------------------------------------- #

class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(CampaignError):
            FaultSpec("cell.explode")

    def test_store_append_requires_mode(self):
        with pytest.raises(CampaignError):
            FaultSpec("store.append")
        FaultSpec("store.append", mode="torn")  # valid

    def test_times_must_be_positive(self):
        with pytest.raises(CampaignError):
            FaultSpec("cell.crash", times=0)

    def test_roundtrip(self):
        spec = FaultSpec("cell.hang", cell_id="noop:index=1", delay_s=2.5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_save_load_roundtrip(self, tmp_path):
        plan = FaultPlan(
            chaos_seed=7,
            specs=(FaultSpec("store.append", mode="eio", times=3),),
            state_dir=str(tmp_path / "state"),
        )
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_claims_exactly_times(self, tmp_path):
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("gc.crash", times=3),),
            state_dir=str(tmp_path / "state"),
        )
        os.makedirs(plan.state_dir, exist_ok=True)
        claimed = [plan.claim("gc.crash") for _ in range(5)]
        assert sum(spec is not None for spec in claimed) == 3
        assert plan.fired("gc.crash") == 3

    def test_claims_shared_across_plan_instances(self, tmp_path):
        # Two loads of the same plan (two processes, in spirit) share
        # the claim files, so `times` is a process-tree-wide budget.
        spec = (FaultSpec("gc.crash", times=1),)
        state = str(tmp_path / "state")
        first = FaultPlan(chaos_seed=0, specs=spec, state_dir=state)
        second = FaultPlan(chaos_seed=0, specs=spec, state_dir=state)
        os.makedirs(state, exist_ok=True)
        assert first.claim("gc.crash") is not None
        assert second.claim("gc.crash") is None

    def test_cell_scoped_fault_ignores_other_cells(self, tmp_path):
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("cell.slow", cell_id="target", delay_s=0.1),),
            state_dir=str(tmp_path / "state"),
        )
        os.makedirs(plan.state_dir, exist_ok=True)
        assert plan.claim("cell.slow", "bystander") is None
        assert plan.claim("cell.slow", "target") is not None

    def test_worker_only_sites_never_fire_in_parent(self, tmp_path):
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("cell.crash", times=5),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        # This process is the recorded parent: a claim here must
        # refuse, or the test process would SIGKILL itself.
        assert faults.claim("cell.crash", "any-cell") is None

    def test_activation_is_env_visible_and_reversible(self, tmp_path):
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("gc.crash"),),
            state_dir=str(tmp_path / "state"),
        )
        path = str(tmp_path / "plan.json")
        faults.activate(plan, path)
        assert os.environ[faults.PLAN_ENV] == os.path.abspath(path)
        assert faults.active_plan() == plan
        faults.deactivate()
        assert faults.PLAN_ENV not in os.environ
        assert faults.active_plan() is None

    def test_plan_loads_from_env_alone(self, tmp_path):
        # Simulates a worker/CLI process: no in-process activation,
        # just the environment variable pointing at the JSON plan.
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("gc.crash"),),
            state_dir=str(tmp_path / "state"),
        )
        path = str(tmp_path / "plan.json")
        plan.save(path)
        os.environ[faults.PLAN_ENV] = path
        assert faults.active_plan() == plan


# --------------------------------------------------------------------- #
# Store append hardening
# --------------------------------------------------------------------- #

def _record(cell_id="noop:index=0,spin_ms=0.0"):
    return CellRecord.from_dict({
        "type": "cell", "cell_id": cell_id, "kind": "noop",
        "params": {"index": 0, "spin_ms": 0.0}, "seed": 1,
        "spec_hash": "x" * 16, "status": "ok",
        "metrics": {"value": 1.0}, "error": None,
        "duration_s": 0.0, "finished_at": 0.0, "worker": 0,
    })


def _fresh_store(tmp_path, name="store.jsonl"):
    spec = calibration_campaign(cells=1, name="append-hardening")
    store = open_store(str(tmp_path / name))
    store.initialise(spec)
    return store


class TestAppendHardening:
    @pytest.mark.parametrize("mode", ["eio", "enospc"])
    def test_transient_errors_retried(self, tmp_path, mode):
        store = _fresh_store(tmp_path)
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("store.append", mode=mode, times=2),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        store.append_cell(_record())
        store.close()
        assert plan.fired("store.append") == 2
        assert len(_ok_content(store.path)) == 1

    def test_torn_write_healed_by_retry(self, tmp_path):
        store = _fresh_store(tmp_path)
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("store.append", mode="torn", times=1),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        store.append_cell(_record())
        store.close()
        # The torn partial line must be gone: every line parses.
        with open(store.path, "r", encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)
        assert len(_ok_content(store.path)) == 1

    def test_exhausted_retries_raise(self, tmp_path):
        store = _fresh_store(tmp_path)
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("store.append", mode="eio", times=50),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        with pytest.raises(CampaignError, match="append .* failed after"):
            store.append_cell(_record())

    def test_corruption_still_refused(self, tmp_path):
        # Hardening must not soften integrity: junk in the *middle* of
        # a store (not an unsynced tail) is corruption, not debris.
        store = _fresh_store(tmp_path)
        store.append_cell(_record())
        store.close()
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "cell_id": "torn\n')
            handle.write("not json either\n")
        with pytest.raises(CampaignError):
            list(open_store(store.path).cell_records())


# --------------------------------------------------------------------- #
# Quarantine and degradation, end to end
# --------------------------------------------------------------------- #

def _target_cell(spec):
    return sorted(cell.cell_id for cell in spec.expand())[0]


class TestHardeningIntegration:
    def test_poison_cell_quarantined(self, tmp_path):
        spec = calibration_campaign(cells=4, spin_ms=5.0, name="poison")
        target = _target_cell(spec)
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("cell.crash", cell_id=target, times=99),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        summary = run_campaign(spec, str(tmp_path / "store.jsonl"),
                               workers=2)
        assert summary.quarantined == 1
        assert summary.degraded is None
        poison = [
            r for r in open_store(str(tmp_path / "store.jsonl")).cell_records()
            if r.cell_id == target
        ]
        assert len(poison) == 1
        assert not poison[0].ok
        assert "fabric:poison" in poison[0].error
        # Quarantine must not cost the rest of the grid anything.
        assert len(_ok_content(str(tmp_path / "store.jsonl"))) == 3

    def test_crash_loop_degrades_to_inline_and_finishes(self, tmp_path):
        spec = calibration_campaign(cells=4, spin_ms=5.0, name="crashloop")
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("executor.crashloop", times=500),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        summary = run_campaign(spec, str(tmp_path / "store.jsonl"),
                               workers=2)
        assert summary.degraded is not None
        assert "inline" in summary.degraded
        assert summary.failed == 0
        assert len(_ok_content(str(tmp_path / "store.jsonl"))) == 4

    @pytest.mark.parametrize("timeout_s", [None, 30.0])
    def test_degrade_warning_says_when_timeouts_stop(self, tmp_path, capsys,
                                                     timeout_s):
        """The inline executor cannot time a cell out, so degrading to
        it must say so whenever the run had a cell timeout."""
        spec = calibration_campaign(cells=4, name="crashloop-timeout")
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("executor.crashloop", times=500),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        summary = run_campaign(
            spec, str(tmp_path / "store.jsonl"),
            workers=2, cell_timeout_s=timeout_s,
        )
        assert summary.degraded is not None and summary.failed == 0
        err = capsys.readouterr().err
        assert "crash-loop breaker tripped" in err
        if timeout_s is None:
            assert "timeout" not in err
        else:
            assert "the 30s cell timeout is no longer enforced" in err

    def test_worker_killed_mid_message_does_not_stall_the_others(
            self, tmp_path):
        # Every pipe write takes 30 ms and the poison cell's self-SIGKILL
        # lands 10 ms after it is asked for, so the crashing worker dies
        # while still writing its "claim" message.  A write lock shared
        # by all workers would stay held by the dead one and stall the
        # run for good.
        script = (
            "import os, sys, time\n"
            "from multiprocessing import connection\n"
            "send = connection.Connection._send_bytes\n"
            "def slow_send(self, buf):\n"
            "    time.sleep(0.03)\n"
            "    return send(self, buf)\n"
            "connection.Connection._send_bytes = slow_send\n"
            "kill = os.kill\n"
            "def late_kill(pid, sig):\n"
            "    time.sleep(0.01)\n"
            "    kill(pid, sig)\n"
            "os.kill = late_kill\n"
            "from repro.campaign import (\n"
            "    FaultPlan, FaultSpec, calibration_campaign, run_campaign)\n"
            "from repro.campaign.fabric import faults\n"
            "tmp = sys.argv[1]\n"
            "spec = calibration_campaign(cells=4, spin_ms=5.0, name='mid')\n"
            "target = sorted(c.cell_id for c in spec.expand())[0]\n"
            "faults.activate(FaultPlan(chaos_seed=0, specs=(FaultSpec(\n"
            "    'cell.crash', cell_id=target, times=99),),\n"
            "    state_dir=os.path.join(tmp, 'state')),\n"
            "    os.path.join(tmp, 'plan.json'))\n"
            "summary = run_campaign(spec, os.path.join(tmp, 'store.jsonl'),\n"
            "    workers=2)\n"
            "print(summary.executed, summary.quarantined)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=_subprocess_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["4", "1"]
        assert len(_ok_content(str(tmp_path / "store.jsonl"))) == 3


# --------------------------------------------------------------------- #
# The failure policy at the CLI defaults (max_attempts=2)
# --------------------------------------------------------------------- #

def _arm(tmp_path, *specs):
    plan = FaultPlan(chaos_seed=0, specs=specs,
                     state_dir=str(tmp_path / "state"))
    faults.activate(plan, str(tmp_path / "plan.json"))
    return plan


class TestFailurePolicyAtDefaults:
    """Worker deaths charge only the cell the worker died under, poison
    follows from ``max_attempts``, and a crash loop charges nothing."""

    @pytest.mark.parametrize("cells,workers", [(6, 2), (24, 2), (6, 4)])
    def test_crash_loop_fails_and_quarantines_nothing(self, tmp_path,
                                                      cells, workers):
        spec = calibration_campaign(cells=cells, spin_ms=5.0,
                                    name="crashloop-defaults")
        _arm(tmp_path, FaultSpec("executor.crashloop", times=500))
        summary = run_campaign(spec, str(tmp_path / "store.jsonl"),
                               workers=workers)
        assert summary.degraded is not None
        assert summary.failed == 0
        assert summary.quarantined == 0
        # The breaker checks after each poll, and a poll reports at most
        # one death per worker: at most 2 * workers cells are charged.
        assert summary.retried <= 2 * workers
        assert len(_ok_content(str(tmp_path / "store.jsonl"))) == cells

    def test_breaker_trip_refunds_the_streak(self, tmp_path, monkeypatch):
        from repro.campaign.fabric.scheduler import (
            CHECKPOINT_NAME,
            CampaignScheduler,
        )

        spec = calibration_campaign(cells=6, spin_ms=5.0, name="refund")
        _arm(tmp_path, FaultSpec("executor.crashloop", times=500))
        saved = []
        save = CampaignScheduler._save_checkpoint

        def recording_save(scheduler, store):
            save(scheduler, store)
            path = store.sidecar_path(CHECKPOINT_NAME)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    saved.append(json.load(handle))

        monkeypatch.setattr(CampaignScheduler, "_save_checkpoint",
                            recording_save)
        summary = run_campaign(spec, str(tmp_path / "store.jsonl"),
                               workers=2)
        assert summary.degraded is not None
        tripped = [state for state in saved if state["degraded"]]
        assert tripped, "the trip never reached the sidecar"
        # Every cell charged before the trip died in the streak (no cell
        # completes under a crash loop), so nothing is left charged.
        assert tripped[0]["attempts"] == {}

    def test_poison_quarantined_after_two_deaths(self, tmp_path):
        spec = calibration_campaign(cells=4, spin_ms=5.0,
                                    name="poison-defaults")
        target = _target_cell(spec)
        store_path = str(tmp_path / "store.jsonl")
        plan = _arm(tmp_path,
                    FaultSpec("cell.crash", cell_id=target, times=99))
        summary = run_campaign(spec, store_path, workers=2)
        faults.deactivate()
        assert plan.fired("cell.crash") == 2
        assert summary.quarantined == 1 and summary.degraded is None
        (verdict,) = [r for r in open_store(store_path).cell_records()
                      if r.cell_id == target]
        assert verdict.error.startswith("fabric:poison")
        # The verdict stands on resume: nothing runs again, even with
        # the fault plan gone.
        resumed = run_campaign(spec, store_path, workers=2, resume=True)
        assert resumed.executed == 0

    def test_one_crash_charges_one_cell(self, tmp_path):
        spec = calibration_campaign(cells=24, spin_ms=5.0, name="one-crash")
        plan = _arm(tmp_path,
                    FaultSpec("cell.crash", cell_id=_target_cell(spec)))
        summary = run_campaign(spec, str(tmp_path / "store.jsonl"),
                               workers=2)
        assert plan.fired("cell.crash") == 1
        assert summary.retried == 1
        assert summary.failed == 0
        assert len(_ok_content(str(tmp_path / "store.jsonl"))) == 24

    def test_single_attempt_crash_is_a_plain_error_resume_reruns(
            self, tmp_path):
        spec = calibration_campaign(cells=24, spin_ms=5.0,
                                    name="one-attempt")
        target = _target_cell(spec)
        store_path = str(tmp_path / "store.jsonl")
        _arm(tmp_path, FaultSpec("cell.crash", cell_id=target))
        summary = run_campaign(spec, store_path, workers=2, max_attempts=1)
        faults.deactivate()
        assert summary.quarantined == 0
        (error,) = [r for r in summary.records if not r.ok]
        assert error.cell_id == target
        assert error.error == "fabric: worker process died (attempt 1/1)"
        resumed = run_campaign(spec, store_path, workers=2, resume=True)
        assert resumed.executed == 1 and resumed.failed == 0


class TestQuarantineSurvivesKillResume:
    def _poison_run(self, tmp_path, spec, store_path):
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("cell.crash", cell_id=_target_cell(spec),
                             times=99),),
            state_dir=str(tmp_path / "state"),
        )
        faults.activate(plan, str(tmp_path / "plan.json"))
        try:
            return run_campaign(spec, store_path, workers=2)
        finally:
            faults.deactivate()

    def test_verdict_is_checkpointed_before_its_record(self, tmp_path,
                                                       monkeypatch):
        """A SIGKILL right after the poison record lands must not lose
        the verdict: the checkpoint already holds it."""
        from repro.campaign.fabric.scheduler import CHECKPOINT_NAME
        from repro.campaign.store import CampaignStore

        spec = calibration_campaign(cells=4, spin_ms=5.0, name="verdict")
        seen = []
        append = CampaignStore.append_cell

        def checked_append(store, record):
            if record.error and "fabric:poison" in record.error:
                with open(store.sidecar_path(CHECKPOINT_NAME)) as handle:
                    seen.append(json.load(handle)["quarantined"])
            append(store, record)

        monkeypatch.setattr(CampaignStore, "append_cell", checked_append)
        self._poison_run(tmp_path, spec, str(tmp_path / "store.jsonl"))
        assert seen == [[_target_cell(spec)]]

    def test_verdict_without_record_is_resettled_on_resume(self, tmp_path):
        """A kill between the checkpoint and the record leaves a verdict
        with no record; the resume records it without running the cell."""
        spec = calibration_campaign(cells=4, spin_ms=5.0, name="resettle")
        target = _target_cell(spec)
        store_path = str(tmp_path / "store.jsonl")
        self._poison_run(tmp_path, spec, store_path)
        with open(store_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(store_path, "w", encoding="utf-8") as handle:
            handle.writelines(
                line for line in lines if "fabric:poison" not in line
            )
        # No fault plan now: running the cell would store an ok record.
        summary = run_campaign(spec, store_path, workers=1, resume=True)
        assert summary.executed == 1 and summary.failed == 1
        verdicts = [r for r in open_store(store_path).cell_records()
                    if r.cell_id == target]
        assert len(verdicts) == 1
        assert "fabric:poison" in verdicts[0].error

    def test_quarantine_state_survives_sigkill_and_resume(self, tmp_path):
        """SIGKILL after the poison verdict; resume must remember it.

        The checkpoint sidecar carries the quarantine set across the
        kill, so the resumed run neither burns fresh workers on the
        poison cell nor duplicates its ``fabric:poison`` record.
        """
        spec = calibration_campaign(
            cells=8, spin_ms=60.0, name="quarantine-resume"
        )
        target = _target_cell(spec)
        plan = FaultPlan(
            chaos_seed=0,
            specs=(FaultSpec("cell.crash", cell_id=target, times=99),),
            state_dir=str(tmp_path / "state"),
        )
        plan_path = str(tmp_path / "plan.json")
        plan.save(plan_path)
        spec_path = str(tmp_path / "spec.json")
        spec.save(spec_path)
        store_path = str(tmp_path / "store.jsonl")
        env = _subprocess_env()
        env[faults.PLAN_ENV] = plan_path

        def launch(resume):
            command = [
                sys.executable, "-m", "repro", "campaign", "run",
                "--spec-json", spec_path, "--store", store_path,
                "--workers", "2",
            ]
            if resume:
                command.append("--resume")
            return subprocess.Popen(
                command, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
            )

        def poison_records():
            try:
                store = open_store(store_path)
                if not store.exists():
                    return []
            except CampaignError:
                return []
            return [
                r for r in store.cell_records()
                if r.error and "fabric:poison" in r.error
            ]

        child = launch(resume=False)
        deadline = time.monotonic() + 90.0
        killed = False
        while child.poll() is None:
            if poison_records():
                os.kill(child.pid, signal.SIGKILL)
                killed = True
                break
            if time.monotonic() > deadline:
                child.kill()
                child.wait()
                pytest.fail("poison record never appeared")
            time.sleep(0.05)
        child.wait()
        if not killed:
            # The run finished before we saw the record land; the
            # quarantine still must round-trip through the resume.
            assert poison_records(), child.stdout.read()

        resumed = launch(resume=True)
        output, _ = resumed.communicate(timeout=90.0)
        # The poison record predates the resume, so the resumed run
        # itself appends no failures.
        assert resumed.returncode == 0, output
        records = poison_records()
        assert len(records) == 1, (
            "resume forgot the quarantine and re-judged the poison cell"
        )
        content = _ok_content(store_path)
        assert target not in content
        assert len(content) == spec.cell_count() - 1
