"""Timing spans installed from outside the program, and their arithmetic.

The traced run wraps public entry points of each layer at class or
module level (:data:`SPAN_POINTS`).  Wrappers are installed before any
``GPU`` is built: ``MemoryPipeline`` binds ``detector.on_access`` once at
construction, so a wrapper installed later would never be called.

Every wrapped call is a span.  Spans nest per thread; a span's *self
time* is its duration minus the durations of its direct children.  Hot
spans (per-access detector hooks, memory ops) are aggregated per name as
calls / total / self so memory stays bounded; coarse spans (units, jobs,
launches, explorations) are also kept one by one with name, start, end,
parent, thread and unit/job id, and are written out at exit.
"""

from __future__ import annotations

import collections
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: layer of each span name prefix (longest prefix wins)
LAYER_OF_PREFIX = {
    "scord.": "scord",
    "engine.memops.": "engine.memops",
    "engine.launch": "engine.sched",
    "telemetry.flight.": "telemetry.flight",
    "mc.": "mc",
    "experiments.": "experiments",
    "service.": "service",
    "scolint.": "scolint",
    "fuzz.": "fuzz",
}

#: every layer, in report order
LAYERS = (
    "scord", "engine.memops", "engine.sched", "telemetry.flight", "mc",
    "experiments", "service", "scolint", "fuzz",
)


def layer_of(name: str) -> Optional[str]:
    best = None
    for prefix, layer in LAYER_OF_PREFIX.items():
        if name.startswith(prefix) and (best is None or len(prefix) > best[0]):
            best = (len(prefix), layer)
    return best[1] if best else None


# ----------------------------------------------------------------------
# Offline arithmetic (also the reference the tests hold the tracer to)
# ----------------------------------------------------------------------
def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """``{span id: duration - sum of direct children's durations}``.

    Each span is a dict with ``id``, ``parent`` (an id or None),
    ``start`` and ``end``.
    """
    child = collections.defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: (span["end"] - span["start"]) - child[span["id"]]
        for span in spans
    }


def layer_self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time summed per layer over a list of spans."""
    selfs = self_times(spans)
    out: Dict[str, float] = collections.defaultdict(float)
    for span in spans:
        layer = layer_of(span["name"])
        if layer is not None:
            out[layer] += selfs[span["id"]]
    return dict(out)


# ----------------------------------------------------------------------
# The live tracer
# ----------------------------------------------------------------------
class _ThreadState:
    __slots__ = ("stack", "aggs", "extra", "stats", "thread")

    def __init__(self, thread: str):
        #: open frames: [start, child_duration, span_id]
        self.stack: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.aggs: Dict[str, list] = {}
        #: free-form exact counters (e.g. atomic lanes)
        self.extra: Dict[str, int] = collections.defaultdict(int)
        #: summed per-launch simulated statistics (gpu.stats deltas)
        self.stats: Dict[str, int] = collections.defaultdict(int)
        self.thread = thread


class Tracer:
    """Per-thread span stacks, aggregated hot spans, recorded coarse spans.

    Only active between :meth:`start` and :meth:`stop`; outside that
    window a wrapper calls straight through.
    """

    def __init__(self):
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = 0
        self.spans: List[dict] = []
        self.active = False
        self._patched: List[Tuple[object, str, object]] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def state(self) -> _ThreadState:
        try:
            return self._local.s
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.s = state
            with self._lock:
                self._states.append(state)
            return state

    def set_context(self, ctx: Optional[str]) -> None:
        """Label spans this thread opens from now on (unit / job id)."""
        self._local.ctx = ctx

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    # -- the wrapper -----------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        record: bool,
        ctx_of: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around *fn*.

        *record* keeps each span individually; *ctx_of(args, result)*
        labels a recorded span with a unit/job id; *on_result(state,
        args, result)* folds exact counts into the thread's counters.
        """
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer.state()
            stack = state.stack
            span_id = tracer._next_id() if record else 0
            frame = [perf(), 0.0, span_id]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(state, args, result)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                agg = state.aggs.get(name)
                if agg is None:
                    agg = state.aggs[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += own
                if record:
                    parent = stack[-1][2] if stack else None
                    ctx = getattr(tracer._local, "ctx", None)
                    if ctx_of is not None:
                        ctx = ctx_of(args, result) or ctx
                    span = {
                        "id": span_id,
                        "parent": parent or None,
                        "name": name,
                        "start": frame[0],
                        "end": end,
                        "self": own,
                        "thread": state.thread,
                        "ctx": ctx,
                    }
                    with tracer._lock:
                        tracer.spans.append(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------
    def patch(self, owner, attr: str, name: str, record: bool,
              ctx_of=None, on_result=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, record, ctx_of,
                                       on_result))

    def install(self) -> None:
        """Wrap every span point; call before any GPU is built."""
        for module_name, owner_name, attr, name, record, hooks in SPAN_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self.patch(owner, attr, name, record, **hooks)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def aggregates(self) -> Dict[str, List[float]]:
        out: Dict[str, list] = {}
        for state in self._states:
            for name, (calls, total, own) in state.aggs.items():
                agg = out.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        return out

    def counters(self) -> Dict[str, int]:
        out: Dict[str, int] = collections.defaultdict(int)
        for state in self._states:
            for key, value in state.extra.items():
                out[key] += value
        return dict(out)

    def sim_stats(self) -> Dict[str, int]:
        out: Dict[str, int] = collections.defaultdict(int)
        for state in self._states:
            for key, value in state.stats.items():
                out[key] += value
        return dict(out)

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer, from the aggregated spans."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, own) in self.aggregates().items():
            layer = layer_of(name)
            if layer is not None:
                out[layer] += own
        return out

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {
            "schema": "perfbench-spans/v1",
            "spans": sorted(self.spans, key=lambda s: s["start"]),
            "aggregates": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(
                    self.aggregates().items()
                )
            },
            "counters": self.counters(),
            "sim_stats": self.sim_stats(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Span points: (module, class or "", attribute, span name, record, hooks)
# ----------------------------------------------------------------------
def _fold_launch(state, args, result) -> None:
    for key, value in result.stats.as_dict().items():
        state.stats[key] += value


def _count_lanes(state, args, result) -> None:
    state.extra["engine.memops.exec_atomics.lanes"] += len(args[3])


def _count_preflight(state, args, result) -> None:
    if result.get("racy"):
        state.extra["scolint.preflight.racy"] += 1


def _client_of_submit(args, result):
    # A rejected submission has no job id; each client has one request in
    # flight, so (client, time window) identifies the job.
    return args[1]


def _job_of_unit(args, result):
    return args[1].id


SPAN_POINTS = (
    ("repro.engine.gpu", "GPU", "launch", "engine.launch", True,
     {"on_result": _fold_launch}),
    ("repro.engine.memops", "MemoryPipeline", "exec_loads",
     "engine.memops.exec_loads", False, {}),
    ("repro.engine.memops", "MemoryPipeline", "exec_stores",
     "engine.memops.exec_stores", False, {}),
    ("repro.engine.memops", "MemoryPipeline", "exec_atomics",
     "engine.memops.exec_atomics", False, {"on_result": _count_lanes}),
    ("repro.engine.memops", "MemoryPipeline", "exec_fences",
     "engine.memops.exec_fences", False, {}),
    ("repro.engine.memops", "MemoryPipeline", "exec_sync_accesses",
     "engine.memops.exec_sync_accesses", False, {}),
    ("repro.scord.detector", "ScoRDDetector", "on_access",
     "scord.on_access", False, {}),
    ("repro.scord.detector", "ScoRDDetector", "on_fence",
     "scord.on_fence", False, {}),
    ("repro.scord.detector", "ScoRDDetector", "on_barrier",
     "scord.on_barrier", False, {}),
    ("repro.scord.detector", "ScoRDDetector", "on_kernel_boundary",
     "scord.on_kernel_boundary", False, {}),
    ("repro.scord.capture", "FlightCapture", "on_access",
     "telemetry.flight.capture", False, {}),
    ("repro.telemetry.flight", "FlightRecorder", "record_access",
     "telemetry.flight.record_access", False, {}),
    ("repro.mc.explorer", "", "explore", "mc.explore", True, {}),
    ("repro.mc.explorer", "", "analyze", "mc.dpor.analyze", True, {}),
    ("repro.experiments.runner", "Runner", "run",
     "experiments.runner.run", True, {}),
    ("repro.experiments.supervisor", "PoolSupervisor", "execute",
     "experiments.pool.execute", True, {}),
    ("repro.experiments.parallel", "ResultCache", "get",
     "experiments.cache.get", True, {}),
    ("repro.experiments.parallel", "ResultCache", "put",
     "experiments.cache.put", True, {}),
    ("repro.service.jobs", "JobManager", "submit", "service.submit", True,
     {"ctx_of": _client_of_submit}),
    ("repro.service.jobs", "JobManager", "_run_unit", "service.unit", True,
     {"ctx_of": _job_of_unit}),
    ("repro.fuzz.oracles", "", "static_verdict", "scolint.preflight", True,
     {"on_result": _count_preflight}),
    ("repro.fuzz.oracles", "", "dynamic_verdict", "fuzz.dynamic_verdict",
     True, {}),
)
