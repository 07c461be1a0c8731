"""Campaign resilience: checkpoint/resume, watchdogs, crash isolation.

These tests deliberately inject hangs, crashes, and corrupted store
entries (repro.experiments.faults) to prove the recovery paths behave as
specified — resume skips finished runs, a hang is timed out and retried
on the worker pool, exhausted retries degrade to FAILED cells, and
corruption is quarantined.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.common.errors import RunFailedError
from repro.experiments import fig8
from repro.experiments.campaign import CampaignRunner, RunSpec, _worker_env
from repro.experiments.faults import FaultPlan, FaultRule, corrupt_store
from repro.experiments.runner import Runner
from repro.experiments.store import RunStore, record_key
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.scor.apps.matmul import MatMulApp
from repro.scor.apps.reduction import ReductionApp

_COMPARED_FIELDS = (
    "app", "detector", "memory", "races_enabled", "cycles", "dram_data",
    "dram_metadata", "unique_races", "race_types", "race_keys", "verified",
)


def same_simulation(a, b) -> bool:
    """Equality on everything deterministic (wall_seconds varies)."""
    return all(getattr(a, f) == getattr(b, f) for f in _COMPARED_FIELDS)


# ----------------------------------------------------------------------
# Checkpoint / resume (in-process)
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_fresh_runs_are_checkpointed_and_resumed(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        first = Runner(verbose=False, store=store)
        record = first.run(ReductionApp, detector="scord")
        assert first.fresh_runs == 1

        resumed = Runner(verbose=False, store=RunStore(store.path))
        assert resumed.resumed_runs == 1
        again = resumed.run(ReductionApp, detector="scord")
        assert resumed.fresh_runs == 0  # no re-simulation
        assert same_simulation(record, again)

    def test_resume_can_be_disabled(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        Runner(verbose=False, store=store).run(ReductionApp)
        cold = Runner(verbose=False, store=RunStore(store.path),
                      preload=False)
        assert cold.resumed_runs == 0
        cold.run(ReductionApp)
        assert cold.fresh_runs == 1

    def test_corrupt_entry_quarantined_on_resume(self, tmp_path):
        """Resume must survive a corrupt line and re-simulate only it."""
        store = RunStore(tmp_path / "store.jsonl")
        first = Runner(verbose=False, store=store)
        kept = first.run(ReductionApp, detector="none")
        first.run(ReductionApp, detector="scord")
        corrupt_store(store.path, line=1, mode="truncate")

        fresh_store = RunStore(store.path)
        resumed = Runner(verbose=False, store=fresh_store)
        assert fresh_store.quarantined == 1
        assert resumed.resumed_runs == 1  # the intact record survived
        assert same_simulation(
            resumed.run(ReductionApp, detector="none"), kept
        )
        assert resumed.fresh_runs == 0
        resumed.run(ReductionApp, detector="scord")  # re-simulates the lost one
        assert resumed.fresh_runs == 1


# ----------------------------------------------------------------------
# SIGKILL mid-campaign, then resume
# ----------------------------------------------------------------------
_DRIVER = """
import sys, time
from repro.experiments.runner import Runner
from repro.experiments.store import RunStore
from repro.scor.apps.matmul import MatMulApp

runner = Runner(verbose=False, store=RunStore(sys.argv[1]))
for detector in ("none", "base", "scord"):
    runner.run(MatMulApp, detector=detector)
    time.sleep(0.5)  # widen the kill window between checkpoints
"""


class TestKilledCampaign:
    def test_sigkill_then_resume_skips_finished_runs(self, tmp_path):
        store_path = str(tmp_path / "store.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-c", _DRIVER, store_path],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Wait for at least one durable checkpoint, then kill -9.
        deadline = time.time() + 60
        while time.time() < deadline:
            if os.path.exists(store_path):
                with open(store_path) as handle:
                    if handle.read().count("\n") >= 1:
                        break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        proc.kill()
        proc.wait()

        completed = len(RunStore(store_path).load())
        assert completed >= 1  # the campaign was genuinely interrupted

        resumed = Runner(verbose=False, store=RunStore(store_path))
        assert resumed.resumed_runs == completed
        for detector in ("none", "base", "scord"):
            resumed.run(MatMulApp, detector=detector)
        # Finished runs were not re-simulated...
        assert resumed.fresh_runs == 3 - completed
        # ...and the combined results match an uninterrupted campaign.
        uninterrupted = Runner(verbose=False)
        for detector in ("none", "base", "scord"):
            assert same_simulation(
                resumed.run(MatMulApp, detector=detector),
                uninterrupted.run(MatMulApp, detector=detector),
            )


# ----------------------------------------------------------------------
# Fault injection through a pool of one
# ----------------------------------------------------------------------
def pool_of_one(fault_plan=None, **config) -> PoolSupervisor:
    """What ``--isolate``/``--timeout``/``--max-retries`` build."""
    config.setdefault("backoff_seconds", 0.01)
    return PoolSupervisor(
        PoolConfig(workers=1, **config), fault_plan=fault_plan
    )


class TestFaultInjection:
    def test_injected_hang_is_timed_out_and_retried(self):
        """Hang on attempt 1, behave on attempt 2: the run succeeds."""
        with pool_of_one(
            FaultPlan.once("pool-hang", app="RED"),
            unit_timeout=5.0, max_retries=1,
        ) as pool:
            started = time.time()
            record = pool.execute(RunSpec("RED"))
            elapsed = time.time() - started
            stats = pool.stats()
        assert record.app == "RED"
        assert elapsed >= 5.0  # the first attempt really hit the timeout
        # The unit's deadline, not the 10 s silence window, expired.
        assert stats["lost_workers"] == {"run-timeout": 1}
        assert stats["units_retried"] == 1

    def test_unit_that_keeps_hanging_fails_as_run_timeout(self):
        """Every attempt outruns the deadline: run-timeout, not poison.

        The respawns after a deadline overrun spend no restart budget,
        so even a zero budget neither degrades the pool nor lets a
        later attempt slip through in-process.
        """
        with pool_of_one(
            FaultPlan.always("pool-hang"),
            unit_timeout=1.0, max_retries=2, max_worker_restarts=0,
        ) as pool:
            with pytest.raises(RunFailedError) as excinfo:
                pool.execute(RunSpec("RED"))
            stats = pool.stats()
        assert excinfo.value.failure.category == "run-timeout"
        assert excinfo.value.failure.attempts == 3
        assert stats["lost_workers"] == {"run-timeout": 3}
        assert stats["restarts"] == 0
        assert not stats["degraded"]
        assert stats["poisoned_units"] == {}

    def test_exhausted_retries_raise_structured_failure(self):
        # A poison threshold above the attempt count, so the retries run
        # out before the quarantine kicks in.
        with pool_of_one(
            FaultPlan.always("pool-kill"),
            unit_timeout=10.0, max_retries=1, poison_threshold=3,
        ) as pool:
            with pytest.raises(RunFailedError) as excinfo:
                pool.execute(RunSpec("RED"))
        failure = excinfo.value.failure
        assert failure.category == "worker-crash"
        assert failure.attempts == 2
        assert failure.spec.app == "RED"
        assert excinfo.value.code == "worker-crash"

    def test_injected_simulation_error_is_classified(self):
        with pool_of_one(
            FaultPlan.always("error"), unit_timeout=10.0, max_retries=0,
        ) as pool:
            with pytest.raises(RunFailedError) as excinfo:
                pool.execute(RunSpec("RED"))
        assert excinfo.value.failure.category == "simulation"
        assert "injected fault" in excinfo.value.failure.message

    def test_fault_plan_matching(self):
        plan = FaultPlan(
            (FaultRule(("pool-hang", None), app="RED", detector="scord"),)
        )
        assert plan.action_for("RED", "scord", "default", 1) == "pool-hang"
        assert plan.action_for("RED", "scord", "default", 2) is None
        assert plan.action_for("RED", "base", "default", 1) is None
        assert plan.action_for("MM", "scord", "default", 1) is None


# ----------------------------------------------------------------------
# Graceful degradation in the exhibits
# ----------------------------------------------------------------------
class TestDegradation:
    def test_failed_run_renders_failed_cell_others_survive(
        self, monkeypatch
    ):
        """RED hangs every attempt; MM's cells still render."""
        monkeypatch.setattr(fig8, "ALL_APPS", [MatMulApp, ReductionApp])
        with pool_of_one(
            FaultPlan.always("pool-hang", app="RED"),
            unit_timeout=2.0, max_retries=0,
        ) as pool:
            runner = CampaignRunner(pool, verbose=False)
            result = fig8.run_fig8(runner)
        rendered = result.render()
        assert "FAILED(run-timeout)" in rendered
        # The healthy app's row and the average still render numerically.
        mm_row = next(r for r in result.rows if r[0] == "MM")
        assert isinstance(mm_row[1], float)
        assert result.scord_average > 0
        # The chart silently skips the failed rows.
        assert "MM" in result.chart()
        # The failure is recorded for the CLI's manifest.
        assert [f.spec.app for f in runner.failures] == ["RED"]
        assert runner.failures[0].category == "run-timeout"

    def test_campaign_runner_memoizes_and_persists_once(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        with pool_of_one(unit_timeout=30.0) as pool:
            runner = CampaignRunner(pool, verbose=False, store=store)
            first = runner.run(ReductionApp, detector="none")
            second = runner.run(ReductionApp, detector="none")
            stats = pool.stats()
        assert first is second
        assert runner.fresh_runs == 1
        assert stats["units_ok"] == 1  # the pool saw the unit once
        assert record_key(first) in store.load()
        # Exactly one line: the parent persisted the fresh record once;
        # the memoized second call did not re-append (and the worker
        # never touches the store at all).
        with open(store.path) as handle:
            assert handle.read().count("\n") == 1
