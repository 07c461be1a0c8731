"""Parallel sharded campaigns and the content-addressed result cache.

Every isolated simulation already runs in a pool worker process
(:class:`~repro.experiments.supervisor.PoolSupervisor`), so
inter-simulation parallelism only needs the *parent* to keep several
workers busy at once.  :class:`ParallelCampaignExecutor` shards a
campaign's (app, detector, memory, races, seed) units across dispatcher
threads fed work-stealing style from one shared queue — an idle shard
steals the next unit the moment it finishes, so one slow unit (UTS)
never serializes a shard's backlog behind it.

Two properties are load-bearing:

* **Deterministic merge** — results are returned in unit *submission*
  order regardless of completion order, and failures occupy their unit's
  slot.  A campaign at ``--jobs 4`` is record-for-record identical to
  ``--jobs 1`` (wall-clock aside); tests assert this.
* **Content addressing** — a :class:`ResultCache` keyed by
  :func:`repro.experiments.store.unit_digest` (a stable hash of the
  resolved GPU config, resolved detector config, kernel identity, seed,
  and schema version) lets re-runs and overlapping exhibits (Fig. 8 and
  Table VI share every baseline run) hit disk instead of re-simulating.
  Keys exclude anything volatile — wall-clock, timestamps, host — so a
  cache written on one machine hits on another.

:func:`prefetch_exhibits` bridges the exhibit layer: exhibits request
runs one at a time, so it first *plans* the campaign by dry-running each
exhibit against a :class:`PlanningRunner` (which records the request
stream and answers with synthetic records), then executes the collected
units in parallel and injects the results into the real runner's cache.
Planning is best-effort: a unit the planner misses is simply run by the
exhibit itself on the same pool, so parallelism is an optimization,
never a correctness dependency.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.errors import ConfigError, RunFailedError, StoreError
from repro.experiments.campaign import CampaignRunner, RunFailure, RunSpec
from repro.experiments.runner import RunRecord, Runner
from repro.experiments.store import (
    SCHEMA_VERSION,
    atomic_write_json,
    record_from_dict,
    record_to_dict,
    unit_digest,
)

CACHE_SCHEMA = SCHEMA_VERSION


# ----------------------------------------------------------------------
# The content-addressed result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Directory of completed run records, one file per unit digest.

    Layout: ``<root>/<digest[:2]>/<digest>.json`` (two-level fan-out so
    large sweeps do not produce million-entry directories).  Each file
    carries the schema version, the digest it was stored under, and the
    full record; reads re-derive the digest from the request and treat
    any mismatch, parse error, or schema drift as a miss — a corrupt
    cache can cost time, never correctness.  Writes are atomic (temp
    file + rename), so concurrent shards may race to fill the same entry
    and the loser simply overwrites it with identical bytes.

    Invalidation is by construction: the digest hashes the record schema
    version and the resolved configurations, so a schema bump or any
    config change produces fresh digests and the stale entries are
    never consulted again (``prune()`` removes them).
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".json")

    @staticmethod
    def digest_of(app, detector, memory, races, seed=1) -> str:
        return unit_digest(app, detector, memory, races, seed)

    # ------------------------------------------------------------------
    def get(
        self, app: str, detector: str, memory: str,
        races: Iterable[str], seed: int = 1,
    ) -> Optional[RunRecord]:
        """Return the cached record for a unit, or ``None`` on a miss."""
        digest = self.digest_of(app, detector, memory, tuple(races), seed)
        path = self.path_for(digest)
        try:
            with open(path, "r") as handle:
                payload = json.load(handle)
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"schema {payload.get('schema')!r}")
            if payload.get("digest") != digest:
                raise ValueError("digest mismatch (renamed entry?)")
            record = record_from_dict(payload["record"])
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception:
            # A torn, stale, or hand-edited entry is a miss, not a crash.
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return record

    def get_spec(self, spec: RunSpec) -> Optional[RunRecord]:
        return self.get(
            spec.app, spec.detector, spec.memory, spec.races, spec.seed
        )

    # ------------------------------------------------------------------
    def put(self, record: RunRecord) -> None:
        """Store one completed record under its unit digest."""
        digest = self.digest_of(
            record.app, record.detector, record.memory,
            record.races_enabled, record.seed,
        )
        path = self.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(
            path,
            {
                "schema": CACHE_SCHEMA,
                "digest": digest,
                "record": record_to_dict(record),
            },
        )
        with self._lock:
            self.writes += 1

    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Delete entries no current-schema request can ever hit."""
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                try:
                    with open(path, "r") as handle:
                        payload = json.load(handle)
                    stale = payload.get("schema") != CACHE_SCHEMA
                except Exception:
                    stale = True
                if stale:
                    try:
                        os.unlink(path)
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corrupt": self.corrupt,
            }


# ----------------------------------------------------------------------
# Work units and outcomes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class UnitOutcome:
    """What happened to one work unit."""

    spec: RunSpec
    record: Optional[RunRecord] = None
    failure: Optional[RunFailure] = None
    source: str = "run"  # "run" | "cache"
    shard: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclasses.dataclass
class CampaignOutcome:
    """Deterministically merged results of one parallel campaign."""

    outcomes: List[UnitOutcome]
    jobs: int
    elapsed_seconds: float

    @property
    def records(self) -> List[RunRecord]:
        return [o.record for o in self.outcomes if o.record is not None]

    @property
    def failures(self) -> List[RunFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "cache")

    @property
    def executed(self) -> int:
        return sum(
            1 for o in self.outcomes if o.source == "run" and o.ok
        )

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "units": len(self.outcomes),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failed": len(self.failures),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def dedupe_specs(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Drop duplicate units, preserving first-seen order."""
    seen = set()
    unique: List[RunSpec] = []
    for spec in specs:
        key = spec.key()
        if key in seen:
            continue
        seen.add(key)
        unique.append(spec)
    return unique


# ----------------------------------------------------------------------
# The parallel executor
# ----------------------------------------------------------------------
class ParallelCampaignExecutor:
    """Shards work units across concurrent isolated workers.

    Each shard is a parent-side dispatcher thread that steals the next
    unit from a shared queue and runs it through *executor* (any object
    with ``execute(spec) -> RunRecord`` raising :class:`RunFailedError`;
    normally a :class:`~repro.experiments.supervisor.PoolSupervisor`,
    which brings worker isolation, watchdogs, timeout, and retry/backoff
    per unit).  The GIL is irrelevant: the simulations burn CPU in
    separate worker *processes* while the dispatcher threads block on
    the pipes.

    The optional *cache* is consulted before executing and filled after;
    the optional *store* is appended to by the parent (serialized by a
    lock, so concurrent shards can never interleave torn JSONL lines)
    the moment each unit completes — durability does not wait for the
    merge.
    """

    def __init__(
        self,
        executor,
        jobs: int = 0,
        cache: Optional[ResultCache] = None,
        store=None,
        verbose: bool = False,
        progress_stream=None,
        telemetry=None,
    ):
        if jobs < 0:
            raise ConfigError("jobs must be >= 0 (0 = one per CPU)")
        self.executor = executor
        self.jobs = jobs or (os.cpu_count() or 1)
        self.cache = cache
        self.store = store
        self.verbose = verbose
        self.progress_stream = progress_stream or sys.stderr
        #: optional :class:`repro.telemetry.Telemetry` — unit spans land
        #: on each dispatcher thread's own trace track
        self.telemetry = telemetry
        self._store_lock = threading.Lock()
        self._progress_lock = threading.Lock()
        self._done = 0
        self._total = 0

    # ------------------------------------------------------------------
    def run_units(self, specs: Sequence[RunSpec]) -> CampaignOutcome:
        """Run every unit; return outcomes in submission order."""
        unique = dedupe_specs(specs)
        started = time.time()
        slots: List[Optional[UnitOutcome]] = [None] * len(unique)
        queue = deque(enumerate(unique))
        queue_lock = threading.Lock()
        self._done = 0
        self._total = len(unique)
        jobs = max(1, min(self.jobs, len(unique) or 1))

        def shard(shard_id: int) -> None:
            while True:
                with queue_lock:
                    if not queue:
                        return
                    index, spec = queue.popleft()
                slots[index] = self._run_one(shard_id, spec)

        threads = [
            threading.Thread(
                target=shard, args=(i,), name=f"campaign-shard-{i}",
                daemon=True,
            )
            for i in range(jobs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every slot is filled: the queue drained and each popped unit
        # wrote exactly its own index.
        outcomes = [slot for slot in slots if slot is not None]
        return CampaignOutcome(
            outcomes=outcomes,
            jobs=jobs,
            elapsed_seconds=time.time() - started,
        )

    # ------------------------------------------------------------------
    def _run_one(self, shard_id: int, spec: RunSpec) -> UnitOutcome:
        if self.telemetry is None:
            return self._run_one_inner(shard_id, spec)
        with self.telemetry.tracer.span(
            f"unit:{spec.describe()}", cat="exp", shard=shard_id,
        ):
            outcome = self._run_one_inner(shard_id, spec)
        metrics = self.telemetry.metrics
        source = "failed" if outcome.failure is not None else outcome.source
        metrics.counter("exp.shard.units", shard=str(shard_id)).inc()
        metrics.counter(
            "exp.shard.busy_seconds", shard=str(shard_id)
        ).inc(outcome.seconds)
        metrics.histogram(
            "exp.unit.seconds", source=source
        ).observe(outcome.seconds)
        return outcome

    def _run_one_inner(self, shard_id: int, spec: RunSpec) -> UnitOutcome:
        started = time.time()
        if self.cache is not None:
            record = self.cache.get_spec(spec)
            if record is not None:
                outcome = UnitOutcome(
                    spec, record=record, source="cache", shard=shard_id,
                    seconds=time.time() - started,
                )
                self._progress(outcome)
                return outcome
        try:
            record = self.executor.execute(spec)
        except RunFailedError as err:
            failure = err.failure or RunFailure(
                spec, "unknown", str(err), attempts=1
            )
            outcome = UnitOutcome(
                spec, failure=failure, shard=shard_id,
                seconds=time.time() - started,
            )
            self._progress(outcome)
            return outcome
        if self.cache is not None:
            try:
                self.cache.put(record)
            except (StoreError, OSError):
                pass  # a read-only cache must not fail the unit
        if self.store is not None:
            with self._store_lock:
                self.store.append(record)
        outcome = UnitOutcome(
            spec, record=record, shard=shard_id,
            seconds=time.time() - started,
        )
        self._progress(outcome)
        return outcome

    def _progress(self, outcome: UnitOutcome) -> None:
        with self._progress_lock:
            self._done += 1
            done, total = self._done, self._total
        if not self.verbose:
            return
        if outcome.failure is not None:
            status = f"FAILED({outcome.failure.category})"
        elif outcome.source == "cache":
            status = "cache"
        else:
            status = "ok"
        print(
            f"  [shard {outcome.shard + 1}] {done}/{total} "
            f"{outcome.spec.describe()} {status} {outcome.seconds:.1f}s",
            file=self.progress_stream,
            flush=True,
        )


# ----------------------------------------------------------------------
# Campaign planning: turn exhibits into a unit list
# ----------------------------------------------------------------------
def _planning_record(
    app: str, detector: str, memory: str, races, seed: int
) -> RunRecord:
    """A plausible synthetic record for dry-running exhibit code."""
    return RunRecord(
        app=app,
        detector=detector,
        memory=memory,
        races_enabled=frozenset(races),
        cycles=1000,
        dram_data=100,
        dram_metadata=10,
        unique_races=0,
        race_types=frozenset(),
        race_keys=frozenset(),
        verified=True,
        wall_seconds=0.0,
        seed=seed,
    )


class PlanningRunner(Runner):
    """Dry-run runner: records the request stream, simulates nothing.

    Exhibit request streams are value-independent (they iterate fixed
    app/detector/memory grids), so answering every request with a
    synthetic record reproduces exactly the unit list the real render
    pass will ask for.
    """

    def __init__(self):
        super().__init__(verbose=False)
        self.requests: List[RunSpec] = []

    def _simulate(self, app_cls, detector, memory, races, seed=1):
        spec = RunSpec(
            app_cls.name, detector, memory, tuple(sorted(races)), seed
        )
        self.requests.append(spec)
        return _planning_record(app_cls.name, detector, memory, races, seed)

    def _persist(self, record):  # planning must never touch disk
        pass


def plan_exhibits(exhibits: Dict[str, object],
                  names: Sequence[str]) -> List[RunSpec]:
    """Collect the deduplicated unit list the named exhibits will request.

    Best-effort: an exhibit that errors mid-plan still contributes the
    units it requested before failing.
    """
    planner = PlanningRunner()
    for name in names:
        render = exhibits.get(name)
        if render is None:
            continue
        try:
            render(planner)
        except Exception:
            # The real pass will surface this error (or succeed where
            # planning could not); planning only needs the request log.
            pass
    return dedupe_specs(planner.requests)


# ----------------------------------------------------------------------
# Wiring: prefetch a campaign into a runner
# ----------------------------------------------------------------------
def prefetch_exhibits(
    runner: CampaignRunner,
    exhibits: Dict[str, object],
    names: Sequence[str],
    jobs: int,
    cache: Optional[ResultCache] = None,
    verbose: bool = False,
) -> Optional[CampaignOutcome]:
    """Plan the campaign, execute it in parallel, warm *runner*'s cache.

    The units are served by *runner*'s own pool, the same one that later
    runs any unit the planner missed.  After this returns, the exhibits'
    own ``runner.run`` calls are memory-cache hits (or immediate,
    non-retried failures for units the prefetch exhausted retries on).
    Returns the merged outcome, or ``None`` if nothing needed running.
    """
    units = plan_exhibits(exhibits, names)
    # Units already resumed from the store need no work.
    pending = [u for u in units if u.key() not in runner._cache]
    if not pending:
        return None
    if verbose:
        print(
            f"  [parallel] {len(pending)} unit(s) across {jobs} shard(s)"
            f"{' (cache: ' + cache.root + ')' if cache else ''}",
            file=sys.stderr,
            flush=True,
        )
    # Store writes are strictly parent-side: the shards append under a
    # lock and workers never see the store path at all, so no worker
    # fault — SIGKILL mid-unit included — can tear a JSONL line.
    store = runner._store
    parallel = ParallelCampaignExecutor(
        runner.pool,
        jobs=jobs,
        cache=cache,
        store=store,
        verbose=verbose,
        telemetry=runner.telemetry,
    )
    outcome = parallel.run_units(pending)
    # The manifest's profile section reports per-shard utilization and
    # cache hit/miss latency from the most recent parallel phase.
    runner.last_parallel_outcome = outcome
    for unit in outcome.outcomes:
        if unit.record is not None:
            runner._cache[unit.spec.key()] = unit.record
            if unit.source == "cache":
                runner.cached_runs += 1
                if store is not None:
                    store.append(unit.record)
            else:
                runner.fresh_runs += 1
        elif unit.failure is not None:
            runner.prefailed[unit.spec.key()] = unit.failure
            runner.failures.append(unit.failure)
    return outcome
