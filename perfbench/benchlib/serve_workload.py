"""``serve-mixed``: a closed loop of HTTP clients against ``ServiceDaemon``.

The daemon runs in this process on ``127.0.0.1:0`` with a worker pool of
at most ``nproc`` (2 here) and as many dispatchers, so no more than
``nproc`` simulations ever run at once.  Two client threads share one
seeded request stream; each sends its next request only after reading
the previous job's NDJSON report to the end (a closed loop).

The stream is six blocks of nine requests, shuffled per block.  A block
holds four campaign jobs of two fresh small-app units (one RED or R110
unit and one MM or 1DC unit, the same configurations in every block at
app seeds the seed draws, run by the ``PoolSupervisor``), one race-free
``fuzz-program/v1`` job (scolint preflight, then in-process
``dynamic_verdict``), one statically racy program (answered 422
``static-race``), two repeats of an earlier request that has usually
finished (result-cache hits) and one repeat of the request just sent
(often coalescing with it).

A job is *cold* when it executed at least one unit and *cached* when it
executed none.  Latency runs from the submit to the report's last line.
"""

from __future__ import annotations

import collections
import dataclasses
import http.client
import json
import os
import random
import shutil
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from benchlib import core, goldens
from benchlib.core import PassResult

#: the four campaign jobs of a block, as (app, race flags) pairs: a light
#: RED or R110 unit with a heavier MM or 1DC unit, so that every block
#: costs the same whatever the seed; the seed picks each unit's app seed
CAMPAIGN_JOBS = (
    (("RED", ()), ("MM", ())),
    (("R110", ()), ("1DC", ())),
    (("RED", ("block_fence",)), ("MM", ("block_fences",))),
    (("R110", ("block_fence_border",)), ("1DC", ("block_scope_out",))),
)
APP_SEEDS = tuple(range(1, 9))
#: sizes of the program pools (each pool keeps only generated programs
#: whose constructed ground truth scolint and ScoRD both agree with)
RACE_FREE_PROGRAMS = 48
RACY_PROGRAMS = 24
#: blocks per pass; the smoke-test size
BLOCKS = {"normal": 6, "tiny": 1}
#: one block of the stream, shuffled per block.  "repeat" re-sends one of
#: the 3rd-10th most recent requests, which has usually finished (a cache
#: hit); "recent" re-sends the last one, often still running (coalescing)
BLOCK = (("campaign",) * 4 + ("program", "racy") + ("repeat",) * 2
         + ("recent",))
UNITS_PER_CAMPAIGN_JOB = 2
CLIENTS = 2
#: repeats of the daemon start + first-worker-spawn measurement
SETUP_TRIALS = 3
WARMUP_UNITS = (("RED", 99), ("RED", 98))
#: written to standard error when a pass's first job completes, so that
#: a test can interrupt the run inside its request stream
STREAM_MARKER = "serve-mixed: request stream under way"


# ----------------------------------------------------------------------
# Seeded programs
# ----------------------------------------------------------------------
def make_program(racy: bool, index: int):
    """The *index*-th generated program of the racy / race-free pool.

    Mirrors the fuzzer's strategies (grid <= 3, 2-3 warps, 1-5 phases)
    with a seeded ``random.Random`` in place of hypothesis.
    """
    from repro.fuzz.program import (
        BUGS_FOR, COMMUNICATION_KINDS, NOISE_KINDS, Actor, Bug, FuzzProgram,
        Phase, PhaseKind,
    )
    from repro.isa.scopes import Scope

    rng = random.Random(f"program:{'racy' if racy else 'clean'}:{index}")
    grid = rng.randint(1, 3)
    warps = rng.randint(2, 3)

    def spans(kind, buggy):
        out = [Scope.BLOCK]
        if grid > 1 and kind is not PhaseKind.BARRIER:
            out.append(Scope.DEVICE)
        return [s for s in out if BUGS_FOR[(kind, s)]] if buggy else out

    def actors(span):
        if span is Scope.BLOCK:
            block = rng.randrange(grid)
            w, r = rng.sample(range(warps), 2)
            return Actor(block, w), Actor(block, r)
        wb, rb = rng.sample(range(grid), 2)
        return Actor(wb, rng.randrange(warps)), Actor(rb, rng.randrange(warps))

    def clean():
        kind = rng.choice(NOISE_KINDS + COMMUNICATION_KINDS)
        if kind in NOISE_KINDS:
            return Phase(kind)
        span = rng.choice(spans(kind, False))
        writer, reader = actors(span)
        wide = span is Scope.BLOCK and rng.random() < 0.5
        return Phase(kind, writer, reader, Bug.NONE, wide_sync=wide)

    def buggy():
        kind = rng.choice([k for k in COMMUNICATION_KINDS if spans(k, True)])
        span = rng.choice(spans(kind, True))
        writer, reader = actors(span)
        return Phase(kind, writer, reader, rng.choice(BUGS_FOR[(kind, span)]))

    phases = [clean() for _ in range(rng.randint(1, 5))]
    if racy:
        forced = rng.randrange(len(phases))
        for i in range(len(phases)):
            if i == forced or rng.random() < 0.5:
                phases[i] = buggy()
    return FuzzProgram(grid=grid, warps_per_block=warps, phases=tuple(phases))


def unit_label(app: str, races: Tuple[str, ...], seed: int) -> str:
    return f"{app}|scord|{'+'.join(races) or '-'}|s{seed}"


# ----------------------------------------------------------------------
# The request stream
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Request:
    kind: str  # "campaign" | "program" | "racy"
    payload: dict
    expect: dict


def build_stream(seed: int, size: str, golden: dict) -> List[Request]:
    """The seeded request stream of one pass."""
    blocks = BLOCKS[size]
    rng = random.Random(f"serve-mixed:{seed}")
    seeds = {
        unit: rng.sample(APP_SEEDS, blocks)
        for job in CAMPAIGN_JOBS for unit in job
    }
    clean = sorted(k for k in golden if k.startswith("program:clean:"))
    racy = sorted(k for k in golden if k.startswith("program:racy:"))
    rng.shuffle(clean)
    rng.shuffle(racy)
    stream: List[Request] = []
    for _ in range(blocks):
        block = list(BLOCK)
        rng.shuffle(block)
        # Repeats with no earlier request to repeat yet (the first block)
        # move to the end of their block.
        block.sort(key=lambda kind: kind in ("repeat", "recent")
                   and len(stream) < 3)
        jobs = list(CAMPAIGN_JOBS)
        for kind in block:
            if kind == "recent":
                stream.append(stream[-1])
            elif kind == "repeat":
                original = rng.choice(stream[-10:-2])
                stream.append(original)
            elif kind in ("program", "racy"):
                label = (clean if kind == "program" else racy).pop()
                stream.append(Request(
                    kind,
                    {"schema": "service-job/v1",
                     "program": golden[label]["program"], "seeds": [0]},
                    {"label": label},
                ))
            else:
                picked = [(*unit, seeds[unit].pop()) for unit in jobs.pop()]
                stream.append(Request(
                    "campaign",
                    {"schema": "service-job/v1", "units": [
                        {"app": app, "races": list(races), "seed": s}
                        for app, races, s in picked
                    ]},
                    {"units": [unit_label(*u) for u in picked]},
                ))
    return stream


# ----------------------------------------------------------------------
# HTTP client side
# ----------------------------------------------------------------------
def _post(port: int, client: str, payload: dict) -> Tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            "POST", "/v1/jobs", body=json.dumps(payload),
            headers={"Content-Type": "application/json",
                     "X-Scord-Client": client},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _stream_report(port: int, job_id: str) -> List[dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/report?stream=1")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"report stream answered {response.status}")
        lines = []
        while True:
            raw = response.readline()
            if not raw:
                break
            lines.append(json.loads(raw))
            if lines[-1].get("done"):
                break
        return lines
    finally:
        conn.close()


@dataclasses.dataclass
class JobOutcome:
    kind: str  # "cold" | "cached" | "rejected" | "error"
    start: float
    end: float
    client: str
    job_id: Optional[str] = None
    units: int = 0
    cache_hits: int = 0
    executed: int = 0
    cycles: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.end - self.start


def check_unit(golden: dict, request: Request, index: int, unit: dict) -> List[str]:
    if unit.get("failure"):
        return [f"unit {unit.get('unit')}: failed {unit['failure']}"]
    if request.kind == "campaign":
        label = request.expect["units"][index]
        record = dict(unit["record"])
        record.pop("wall_seconds", None)
        return goldens.compare(golden, label, record)
    label = request.expect["label"]
    expected = golden[label]["dynamic"]
    verdict = {"racy": unit["verdict"]["racy"],
               "types": unit["verdict"]["types"]}
    if verdict != expected:
        return [f"{label}: dynamic verdict {verdict} != golden {expected}"]
    return []


def perform(port: int, client: str, request: Request, golden: dict) -> JobOutcome:
    """Submit one request, read its report stream, check it."""
    started = time.perf_counter()
    status, body = _post(port, client, request.payload)
    if request.kind == "racy":
        outcome = JobOutcome("rejected", started, time.perf_counter(), client)
        code = body.get("error", {}).get("code")
        if status != 422 or code != "static-race":
            outcome.errors.append(f"{request.expect['label']}: expected 422 "
                                  f"static-race, got {status} {code}")
        return outcome
    if status != 202:
        return JobOutcome("error", started, time.perf_counter(), client,
                          errors=[f"submit answered {status}: {body}"])
    job_id = body["id"]
    lines = _stream_report(port, job_id)
    end = time.perf_counter()
    if not lines or not lines[-1].get("done"):
        return JobOutcome("error", started, end, client, job_id,
                          errors=[f"job {job_id}: stream ended early"])
    done, units = lines[-1], lines[1:-1]
    errors = []
    for index, unit in enumerate(units):
        errors += check_unit(golden, request, index, unit)
    if len(units) != done["units_total"]:
        errors.append(f"job {job_id}: {len(units)} of {done['units_total']} "
                      "units reported")
    executed = [u for u in units if u.get("source") == "executed"]
    return JobOutcome(
        "cold" if done["executed"] else "cached", started, end, client,
        job_id, units=len(units), cache_hits=done["cache_hits"],
        executed=len(executed),
        cycles=sum(u["record"]["cycles"] for u in executed if "record" in u),
        errors=errors,
    )


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
def service_config(cache_dir: str):
    from repro.service.jobs import ServiceConfig

    parallel = min(2, core.nproc())
    return ServiceConfig(
        host="127.0.0.1", port=0, workers=parallel, dispatchers=parallel,
        cache_dir=cache_dir, quota_units=1e12, quota_refill_per_s=1e12,
    )


def start_daemon(cache_dir: str):
    """A started daemon whose pool has spawned its workers (warm-up)."""
    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(service_config(cache_dir)).start()
    failures: List[str] = []

    def warm_up(app: str, seed: int) -> None:
        status, body = _post(daemon.port, "warm-up", {
            "schema": "service-job/v1", "units": [{"app": app, "seed": seed}],
        })
        if status != 202 or not _stream_report(daemon.port, body["id"]):
            failures.append(f"warm-up job answered {status}: {body}")

    try:
        # One concurrent job per worker, so every worker is spawned.
        threads = [
            threading.Thread(target=warm_up, args=unit, daemon=True)
            for unit in WARMUP_UNITS[:daemon.config.workers]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if failures or any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"daemon warm-up failed: {failures}")
    except BaseException:
        daemon.close()
        raise
    return daemon


class ServeWorkload:
    name = "serve-mixed"
    import_modules = (
        "repro.service.daemon", "repro.service.jobs",
        "repro.experiments.supervisor", "repro.fuzz.oracles",
        "repro.scolint",
    )

    def __init__(self, seed: int, size: str):
        self.golden = goldens.load(self.name)
        self.stream = build_stream(seed, size, self.golden)
        self._work = core.work_dir("work", f"{os.getpid()}-serve")
        self._cache_seq = 0
        self.daemon = None
        #: test hook: called with each completed outcome (may raise)
        self.on_outcome = None

    def _fresh_cache_dir(self) -> str:
        self._cache_seq += 1
        return os.path.join(self._work, f"cache-{self._cache_seq}")

    def setup(self, trials: int) -> List[float]:
        imports = core.import_seconds(self.import_modules, trials)
        starts = []
        for _ in range(SETUP_TRIALS):
            self._close_daemon()
            t0 = time.perf_counter()
            self.daemon = start_daemon(self._fresh_cache_dir())
            starts.append(time.perf_counter() - t0)
        base = core.median(starts)
        return [sample + base for sample in imports]

    def _close_daemon(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            daemon.close()

    def run_pass(self, tracer=None) -> PassResult:
        if self.daemon is None:
            self.daemon = start_daemon(self._fresh_cache_dir())
        port = self.daemon.port
        lock = threading.Lock()
        outcomes: List[Tuple[Request, JobOutcome]] = []
        failures: List[BaseException] = []

        def client_loop(name: str, pending) -> None:
            try:
                while True:
                    with lock:
                        if failures or not pending:
                            return
                        request = pending.popleft()
                    outcome = perform(port, name, request, self.golden)
                    with lock:
                        outcomes.append((request, outcome))
                        if len(outcomes) == 1:
                            print(STREAM_MARKER, file=sys.stderr, flush=True)
                    if self.on_outcome is not None:
                        self.on_outcome(outcome)
            except BaseException as err:  # handed to the main thread
                with lock:
                    failures.append(err)

        if tracer is not None:
            tracer.start()
        started = time.perf_counter()
        pending = collections.deque(self.stream)
        threads = [
            threading.Thread(target=client_loop,
                             args=(f"client-{i}", pending),
                             name=f"bench-client-{i}", daemon=True)
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(timeout=0.2)
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.stop()
        if failures:
            raise failures[0]
        pool = self.daemon.manager.supervisor.stats()
        self._close_daemon()

        errors: List[str] = []
        failed = 0
        by_kind: Dict[str, List[float]] = collections.defaultdict(list)
        units = hits = 0
        for request, outcome in outcomes:
            by_kind[outcome.kind].append(outcome.latency)
            failed += bool(outcome.errors) or outcome.kind == "error"
            errors += outcome.errors
            units += outcome.units
            hits += outcome.cache_hits
        executed = sum(o.executed for _, o in outcomes)
        cycles = sum(o.cycles for _, o in outcomes)
        return PassResult(
            wall_s=wall,
            cold=by_kind["cold"],
            cached=by_kind["cached"],
            rejected=by_kind["rejected"] + by_kind["error"],
            schedules=executed,
            cycles=cycles,
            attempted=len(outcomes),
            failed=failed,
            errors=errors,
            layer_info={
                "outcomes": [o for _, o in outcomes],
                "clients": CLIENTS,
                "cache_lookups": units,
                "cache_hits": hits,
                "pool": {k: pool.get(k) for k in ("spawned", "restarts")},
            },
            job_log=[(o.job_id or "-", o.kind, o.latency)
                     for _, o in outcomes],
        )

    def close(self) -> None:
        try:
            self._close_daemon()
        finally:
            shutil.rmtree(self._work, ignore_errors=True)


def record_goldens(log) -> dict:
    from repro.experiments.runner import Runner
    from repro.fuzz.oracles import dynamic_verdict, static_verdict
    from repro.scor.apps.registry import app_by_name

    table = {}
    for app, races in sorted({unit for job in CAMPAIGN_JOBS for unit in job}):
        for seed in APP_SEEDS:
            record = Runner(verbose=False).run(
                app_by_name(app), detector="scord", races=races, seed=seed
            )
            table[unit_label(app, races, seed)] = goldens.record_form(record)
    log(f"  {len(table)} campaign units")
    for racy, count in ((False, RACE_FREE_PROGRAMS), (True, RACY_PROGRAMS)):
        kept = 0
        index = 0
        while kept < count:
            program = make_program(racy, index)
            index += 1
            static = static_verdict(program)
            if static["racy"] != racy or program.racy != racy:
                continue
            entry = {"program": program.to_dict(),
                     "static": {"racy": static["racy"],
                                "types": static["types"]}}
            if not racy:
                dynamic = dynamic_verdict(program, seeds=(0,))
                if dynamic["racy"]:
                    continue
                entry["dynamic"] = {"racy": dynamic["racy"],
                                    "types": dynamic["types"]}
            table[f"program:{'racy' if racy else 'clean'}:{index - 1}"] = entry
            kept += 1
        log(f"  {count} {'racy' if racy else 'race-free'} programs "
            f"(from {index} generated)")
    return table
