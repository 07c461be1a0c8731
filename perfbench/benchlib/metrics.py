"""Metric catalogue and the arithmetic that turns passes into metrics.

The catalogue (name, unit, better) is read from ``BENCHMARK.json``, the
list later changes are judged by.  ``perfbench/layer_map.json`` says
which end-to-end metric, on which workload, each layer metric is
expected to move.
"""

from __future__ import annotations

import json
import os
import resource
from typing import Dict, Sequence, Tuple

from benchlib import core, tracer as tracing

MEMOPS = ("exec_loads", "exec_stores", "exec_atomics", "exec_fences",
          "exec_sync_accesses")


def _catalogue(section: str) -> Tuple[Tuple[str, str, str], ...]:
    with open(os.path.join(core.ROOT, "BENCHMARK.json")) as handle:
        entries = json.load(handle)[section]
    return tuple((m["name"], m["unit"], m["better"]) for m in entries)


#: (name, unit, better)
END_TO_END = _catalogue("end_to_end")
PER_LAYER = _catalogue("per_layer")
UNIT_OF = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped.

    Taken after the workload's teardown, so on ``serve-mixed`` the pool
    workers, which run the campaign units, are counted.
    """
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------
def cached_p50(passes: Sequence) -> dict:
    """Median latency of the jobs that executed no simulation (0 when a
    workload has none)."""
    cached = [x for p in passes for x in p.cached]
    return {"value": core.median(cached) if cached else 0.0,
            "n": len(cached), "unit": UNIT_OF["cached_job_p50_s"]}


def end_to_end(passes: Sequence, setup: Sequence[float]) -> Dict[str, dict]:
    """Every end-to-end metric: {name: {value, unit, n, ...}}."""
    wall = sum(p.wall_s for p in passes)
    cold = [x for p in passes for x in p.cold]
    jobs = [p.cold + p.cached + p.rejected for p in passes]
    # The tail is taken within each pass, where the job count (and so the
    # percentile) is fixed by the workload, then the median over passes.
    tails = [core.tail(pass_jobs) for pass_jobs in jobs]
    _, tail_p, tail_n = tails[0]
    n_jobs = sum(len(pass_jobs) for pass_jobs in jobs)
    out = {
        "setup_s": {"value": core.median(setup), "n": len(setup)},
        "wall_s": {"value": core.median([p.wall_s for p in passes]),
                   "n": len(passes)},
        "sim_cycles_per_s": {"value": sum(p.cycles for p in passes) / wall,
                             "n": len(passes)},
        "schedules_per_s": {"value": sum(p.schedules for p in passes) / wall,
                            "n": sum(p.schedules for p in passes)},
        "jobs_per_s": {"value": n_jobs / wall, "n": n_jobs},
        "cold_job_p50_s": {"value": core.median(cold), "n": len(cold)},
        "job_tail_s": {"value": core.median([t[0] for t in tails]),
                       "n": tail_n, "percentile": tail_p,
                       "passes": len(tails)},
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
    }
    for name, body in out.items():
        body["unit"] = UNIT_OF[name]
    return out


# ----------------------------------------------------------------------
# Per layer (traced run)
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def service_path(outcomes, spans) -> Tuple[float, float]:
    """(queue wait, HTTP overhead) summed over jobs, from recorded spans.

    A job's latency splits into its ``service.submit`` span, the wait
    until its first unit starts (plus gaps between its units), its
    ``service.unit`` spans, and the rest: HTTP and stream delivery.
    """
    submits: Dict[str, list] = {}
    units: Dict[str, list] = {}
    for span in spans:
        if span["name"] == "service.submit":
            submits.setdefault(span["ctx"], []).append(span)
        elif span["name"] == "service.unit":
            units.setdefault(span["ctx"], []).append(span)
    queue = http = 0.0
    for job in outcomes:
        subs = [s for s in submits.get(job.client, ())
                if s["start"] >= job.start and s["end"] <= job.end]
        submit = sum(s["end"] - s["start"] for s in subs)
        mine = sorted(units.get(job.job_id, ()), key=lambda s: s["start"])
        busy = sum(s["end"] - s["start"] for s in mine)
        wait = 0.0
        if mine:
            ready = max((s["end"] for s in subs), default=job.start)
            window = max(s["end"] for s in mine) - mine[0]["start"]
            wait = max(0.0, mine[0]["start"] - ready) + max(0.0, window - busy)
        queue += wait
        http += max(0.0, job.latency - submit - wait - busy)
    return queue, http


def per_layer(tr, traced, untraced) -> Dict[str, dict]:
    """Every per-layer metric from a tracer, its traced pass and the
    untraced pass run before it."""
    agg = tr.aggregates()
    counters = tr.counters()
    stats = tr.sim_stats()
    info = traced.layer_info

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    values: Dict[str, float] = {
        "scord.on_access.calls": calls("scord.on_access"),
        "scord.on_access.self_s": own("scord.on_access"),
        "scord.on_fence.calls": calls("scord.on_fence"),
        "scord.on_barrier.calls": calls("scord.on_barrier"),
        "scord.checks": stats.get("detector.checks", 0),
        "scord.md_accesses": stats.get("detector.md_accesses", 0),
        "scord.md_cache_skip_ratio": _ratio(
            stats.get("detector.md_cache_skips", 0),
            stats.get("detector.checks", 0)),
    }
    for op in MEMOPS:
        values[f"engine.memops.{op}.calls"] = calls(f"engine.memops.{op}")
        values[f"engine.memops.{op}.self_s"] = own(f"engine.memops.{op}")
    values["engine.memops.exec_atomics.lanes_per_call"] = _ratio(
        counters.get("engine.memops.exec_atomics.lanes", 0),
        calls("engine.memops.exec_atomics"))
    l1_hits = stats.get("l1.hit.data", 0)
    l2_hits = stats.get("l2.hit.data", 0) + stats.get("l2.hit.metadata", 0)
    l2_all = l2_hits + stats.get("l2.miss.data", 0) + stats.get(
        "l2.miss.metadata", 0)
    pool = info.get("pool", {})
    values.update({
        "engine.launch.calls": calls("engine.launch"),
        "engine.sched.self_s": own("engine.launch"),
        "engine.sched.warp_issues": stats.get("sched.warp_issues", 0),
        "engine.sched.stall_cycles": stats.get("sched.stall_cycles", 0),
        "mem.l1.hit_ratio": _ratio(
            l1_hits, l1_hits + stats.get("l1.miss.data", 0)),
        "mem.l2.hit_ratio": _ratio(l2_hits, l2_all),
        "timing.noc.packets": stats.get("noc.packets", 0),
        "timing.dram.accesses": stats.get("dram.access.data", 0)
        + stats.get("dram.access.metadata", 0),
        "experiments.runner.self_s": own("experiments.runner.run"),
        "experiments.pool.execute.calls": calls("experiments.pool.execute"),
        "experiments.pool.execute.s": total("experiments.pool.execute"),
        "experiments.pool.spawned": pool.get("spawned") or 0,
        "experiments.pool.restarts": pool.get("restarts") or 0,
        "experiments.cache.hit_ratio": _ratio(
            info.get("cache_hits", 0), info.get("cache_lookups", 0)),
        "service.submit.s": total("service.submit"),
        "scolint.preflight.calls": calls("scolint.preflight"),
        "scolint.preflight.s": total("scolint.preflight"),
        "scolint.preflight.reject_ratio": _ratio(
            counters.get("scolint.preflight.racy", 0),
            calls("scolint.preflight")),
        "fuzz.dynamic_verdict.calls": calls("fuzz.dynamic_verdict"),
        "fuzz.dynamic_verdict.s": total("fuzz.dynamic_verdict"),
        "mc.explore.s": total("mc.explore"),
        "mc.dpor.analyze.calls": calls("mc.dpor.analyze"),
        "mc.dpor.analyze.self_s": own("mc.dpor.analyze"),
        "mc.schedules_explored": info.get("schedules_explored", 0),
        "mc.schedules_pruned": info.get("schedules_pruned", 0),
        "telemetry.flight.record_access.calls": calls(
            "telemetry.flight.record_access"),
        "telemetry.flight.record_access.self_s": own(
            "telemetry.flight.record_access"),
    })
    queue, http = service_path(info.get("outcomes", ()), tr.spans)
    values["service.queue_wait_s"] = queue
    values["service.http_overhead_s"] = http
    layers = tr.layer_self()
    layers["service"] += queue + http
    for layer in tracing.LAYERS:
        values[f"layer.{layer}.self_s"] = layers[layer]
    paths = info.get("clients", 1)
    values["traced.wall_s"] = traced.wall_s
    values["traced.paths"] = paths
    values["unattributed_s"] = traced.wall_s * paths - sum(layers.values())
    values["tracing_overhead"] = _ratio(traced.wall_s, untraced.wall_s)
    values["cached_job_p50_s"] = cached_p50([untraced])["value"]
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in PER_LAYER
    }
