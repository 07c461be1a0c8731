"""Fault-tolerant campaign execution: crash isolation, timeout, retry.

The in-process :class:`~repro.experiments.runner.Runner` is fast but
fragile — one hung kernel wedges the whole ``scord-experiments all``
campaign and one crash loses it.  This module supplies the resilient
campaign layer on top of the supervised worker pool
(:class:`~repro.experiments.supervisor.PoolSupervisor`):

* :class:`RunSpec` is one simulation request, serializable across the
  worker boundary; :class:`RunFailure` is a run that failed permanently;
* :class:`CampaignRunner` is a drop-in :class:`Runner` whose cache misses
  execute on the pool — each unit in a warm worker process, bounded by
  a wall-clock timeout (the worker additionally arms an in-process
  :class:`~repro.common.guard.Watchdog` at ~80% of it, so
  simulator-level hangs die with a structured hang report), retried
  with exponential backoff, then surfaced as a
  :class:`~repro.common.errors.RunFailedError` that exhibits render as
  ``FAILED(reason)`` cells and the CLI collects into a failure manifest;
* completed records are durably appended to the
  :class:`~repro.experiments.store.RunStore` **by the parent, never the
  worker**: a worker that is SIGKILLed, OOM-killed, or desyncs mid-unit
  can therefore never tear a line in the shared JSONL store — the blast
  radius of a worker fault is exactly one in-flight unit;
* :class:`InProcessExecutor` is the floor the pool degrades to when
  workers cannot be sustained.

Fault injection (``repro.experiments.faults``) plugs in as a per-attempt
plan the pool serializes into each run frame — recovery paths are
proven by tests, not assumed.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import TYPE_CHECKING, List, Optional, Tuple, Type

from repro.common.errors import (
    ConfigError,
    ReproError,
    RunFailedError,
    error_code,
)
from repro.common.guard import GuardConfig, Watchdog
from repro.experiments.runner import Runner, RunRecord
from repro.experiments.store import RunStore
from repro.scor.apps.base import ScorApp

if TYPE_CHECKING:
    from repro.experiments.supervisor import PoolSupervisor

SPEC_SCHEMA = 1


# ----------------------------------------------------------------------
# Specs and failures
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One simulation request, serializable across the worker boundary."""

    app: str
    detector: str = "scord"
    memory: str = "default"
    races: Tuple[str, ...] = ()
    seed: int = 1

    def describe(self) -> str:
        flags = f" races={sorted(self.races)}" if self.races else ""
        tag = f" seed={self.seed}" if self.seed != 1 else ""
        return f"{self.app}/{self.detector}/{self.memory}{flags}{tag}"

    def key(self):
        """The runner-cache identity of this spec."""
        from repro.experiments.store import run_key

        return run_key(
            self.app, self.detector, self.memory, self.races, self.seed
        )

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "app": self.app,
            "detector": self.detector,
            "memory": self.memory,
            "races": sorted(self.races),
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RunSpec":
        if payload.get("schema") != SPEC_SCHEMA:
            raise ConfigError(
                f"unsupported spec schema {payload.get('schema')!r}"
            )
        return RunSpec(
            app=payload["app"],
            detector=payload.get("detector", "scord"),
            memory=payload.get("memory", "default"),
            races=tuple(payload.get("races", ())),
            seed=int(payload.get("seed", 1)),
        )


@dataclasses.dataclass
class RunFailure:
    """A run that failed permanently (all retries exhausted)."""

    spec: RunSpec
    category: str  # e.g. run-timeout, worker-crash, simulation
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "app": self.spec.app,
            "detector": self.spec.detector,
            "memory": self.spec.memory,
            "seed": self.spec.seed,
            "races": sorted(self.spec.races),
            "category": self.category,
            "message": self.message,
            "attempts": self.attempts,
        }


def _worker_env() -> dict:
    """The parent's environment with this package importable."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    return env


# ----------------------------------------------------------------------
# The resilient Runner
# ----------------------------------------------------------------------
class CampaignRunner(Runner):
    """A :class:`Runner` whose cache misses execute on a worker pool.

    Drop-in for the exhibits: same ``run()`` signature, same memoizing
    cache, but a hung or crashed simulation costs one run (retried, then
    marked failed) instead of the campaign.  Permanent failures are
    collected in :attr:`failures` for the CLI's manifest.  Persistence
    stays parent-side (the inherited ``_persist``): workers never touch
    the store.

    Flight capture happens worker-side, so the runner takes its flight
    config and forensics directory from *pool* and asks the pool for the
    per-unit summaries the workers report back.
    """

    def __init__(
        self,
        pool: PoolSupervisor,
        verbose: bool = True,
        store: Optional[RunStore] = None,
        preload: bool = True,
        telemetry=None,
        result_cache=None,
    ):
        # Telemetry note: kernel-level spans only exist for in-process
        # simulation; pool workers run in their own interpreter, so this
        # runner's traces stop at the unit span (which still times the
        # worker round-trip).
        super().__init__(
            verbose=verbose, store=store, preload=preload,
            result_cache=result_cache, telemetry=telemetry,
            flight=pool.flight, forensics_dir=pool.forensics_dir,
        )
        self.pool = pool
        self.failures: List[RunFailure] = []
        #: units a parallel prefetch already failed permanently; keyed by
        #: run_key, consulted so exhibits do not pay the retries twice
        self.prefailed: dict = {}

    def _all_forensics_units(self) -> List[dict]:
        return self.pool.all_forensics_units()

    def _simulate(
        self,
        app_cls: Type[ScorApp],
        detector: str,
        memory: str,
        races: Tuple[str, ...],
        seed: int = 1,
    ) -> RunRecord:
        spec = RunSpec(app_cls.name, detector, memory, tuple(races), seed)
        prior = self.prefailed.get(spec.key())
        if prior is not None:
            raise RunFailedError(
                f"{spec.describe()} already failed during the parallel "
                f"prefetch: {prior.category}: {prior.message}",
                failure=prior,
            )
        try:
            return self.pool.execute(spec)
        except RunFailedError as err:
            if err.failure is not None:
                self.failures.append(err.failure)
            raise


# ----------------------------------------------------------------------
# The in-process fallback executor
# ----------------------------------------------------------------------
class InProcessExecutor:
    """Serial in-process executor: the floor of the degradation ladder.

    Same ``execute(spec) -> RunRecord`` contract as the pool
    supervisor, but no subprocess at all — the simulation runs in the
    calling interpreter under a watchdog.  The pool supervisor falls
    back to this when workers cannot be sustained, so "the environment
    cannot keep a worker process alive" degrades a campaign to
    slow-but-done rather than dead.  Calls are serialized by a lock:
    degraded throughput is serial by design (there is no isolation left
    to exploit), and the deterministic merge upstream is unaffected.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        flight=None,
        forensics_dir=None,
    ):
        self.timeout = timeout
        self.flight = flight
        self.forensics_dir = forensics_dir
        self.forensics_units: List[dict] = []
        self._lock = threading.Lock()

    def execute(self, spec: RunSpec) -> RunRecord:
        from repro.scor.apps.registry import app_by_name

        guard_factory = None
        if self.timeout:
            deadline = self.timeout * 0.8
            guard_factory = lambda: Watchdog(
                GuardConfig(deadline_seconds=deadline)
            )
        with self._lock:
            try:
                runner = Runner(
                    verbose=False,
                    guard_factory=guard_factory,
                    flight=self.flight,
                    forensics_dir=self.forensics_dir,
                )
                record = runner.run(
                    app_by_name(spec.app),
                    detector=spec.detector,
                    memory=spec.memory,
                    races=spec.races,
                    seed=spec.seed,
                )
                self.forensics_units.extend(runner.forensics_units)
                return record
            except ReproError as err:
                failure = RunFailure(
                    spec, error_code(err), str(err), attempts=1
                )
                raise RunFailedError(
                    f"{spec.describe()} failed in-process: "
                    f"{failure.category}: {failure.message}",
                    failure=failure,
                ) from err
            except KeyError as err:
                failure = RunFailure(spec, "config", str(err), attempts=1)
                raise RunFailedError(
                    f"{spec.describe()} failed in-process: config: {err}",
                    failure=failure,
                ) from err
