"""Self-time arithmetic on a synthetic span tree, offline and live."""

import threading
import time

import pytest

from benchlib import core, metrics, tracer as tracing


def _span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name,
            "start": start, "end": end}


SYNTHETIC = [
    # experiments.runner.run [0, 10]
    #   engine.launch [1, 9]
    #     engine.memops.exec_loads [2, 5]
    #       scord.on_access [3, 4]
    #     engine.memops.exec_atomics [6, 8.5]
    #       scord.on_access [7, 7.25]
    #       telemetry.flight.record_access [7.5, 8]
    _span(1, None, "experiments.runner.run", 0.0, 10.0),
    _span(2, 1, "engine.launch", 1.0, 9.0),
    _span(3, 2, "engine.memops.exec_loads", 2.0, 5.0),
    _span(4, 3, "scord.on_access", 3.0, 4.0),
    _span(5, 2, "engine.memops.exec_atomics", 6.0, 8.5),
    _span(6, 5, "scord.on_access", 7.0, 7.25),
    _span(7, 5, "telemetry.flight.record_access", 7.5, 8.0),
]


def test_self_time_is_duration_minus_children():
    selfs = tracing.self_times(SYNTHETIC)
    assert selfs == {1: 2.0, 2: 2.5, 3: 2.0, 4: 1.0, 5: 1.75, 6: 0.25,
                     7: 0.5}


def test_layer_self_times_partition_the_root():
    layers = tracing.layer_self_times(SYNTHETIC)
    assert layers == {
        "experiments": 2.0, "engine.sched": 2.5, "engine.memops": 3.75,
        "scord": 1.25, "telemetry.flight": 0.5,
    }
    assert sum(layers.values()) == pytest.approx(10.0)


def test_every_span_name_maps_to_a_layer():
    for _, _, _, name, _, _ in tracing.SPAN_POINTS:
        assert tracing.layer_of(name) in tracing.LAYERS, name


class _Layer:
    """Stand-ins whose methods nest like the engine's layers."""

    def __init__(self, pause):
        self.pause = pause

    def outer(self):
        time.sleep(self.pause)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(self.pause)


def test_live_tracer_matches_offline_arithmetic():
    tr = tracing.Tracer()
    tr.patch(_Layer, "outer", "experiments.runner.run", record=True)
    tr.patch(_Layer, "inner", "engine.launch", record=True)
    try:
        tr.start()
        _Layer(0.01).outer()
        tr.stop()
    finally:
        tr.uninstall()
    assert _Layer.outer.__name__ == "outer"
    assert not hasattr(_Layer.outer, "__wrapped__")
    offline = tracing.self_times(tr.spans)
    agg = tr.aggregates()
    by_name = {}
    for span in tr.spans:
        by_name.setdefault(span["name"], 0.0)
        by_name[span["name"]] += offline[span["id"]]
    for name, (calls, total, own) in agg.items():
        assert own == pytest.approx(by_name[name], abs=1e-9)
    assert agg["engine.launch"][0] == 2
    root = [s for s in tr.spans if s["parent"] is None]
    assert len(root) == 1
    layers = tr.layer_self()
    assert sum(layers.values()) == pytest.approx(
        root[0]["end"] - root[0]["start"], abs=1e-9)


def test_inactive_tracer_records_nothing():
    tr = tracing.Tracer()
    tr.patch(_Layer, "inner", "engine.launch", record=True)
    try:
        _Layer(0).inner()
    finally:
        tr.uninstall()
    assert tr.spans == [] and tr.aggregates() == {}


def test_threads_keep_separate_stacks():
    tr = tracing.Tracer()
    tr.patch(_Layer, "outer", "service.unit", record=True)
    tr.patch(_Layer, "inner", "fuzz.dynamic_verdict", record=True)
    try:
        tr.start()
        threads = [threading.Thread(target=_Layer(0.005).outer)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        tr.stop()
    finally:
        tr.uninstall()
    agg = tr.aggregates()
    assert agg["service.unit"][0] == 4
    assert agg["fuzz.dynamic_verdict"][0] == 8
    parents = {s["id"]: s for s in tr.spans}
    for span in tr.spans:
        if span["name"] == "fuzz.dynamic_verdict":
            parent = parents[span["parent"]]
            assert parent["name"] == "service.unit"
            assert parent["thread"] == span["thread"]


def test_service_path_splits_job_latency():
    class Job:
        client, job_id = "client-0", "j1"
        start, end, latency = 0.0, 10.0, 10.0

    spans = [
        {"name": "service.submit", "ctx": "client-0", "start": 0.5, "end": 1.5},
        {"name": "service.unit", "ctx": "j1", "start": 3.0, "end": 5.0},
        {"name": "service.unit", "ctx": "j1", "start": 5.5, "end": 8.0},
    ]
    queue, http = metrics.service_path([Job()], spans)
    # waits 1.5 -> 3.0 for a dispatcher, 0.5 between its units
    assert queue == pytest.approx(2.0)
    assert http == pytest.approx(10.0 - 1.0 - 2.0 - 4.5)


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert core.tail(values) == (90.0, 90.0, 100)
    value, percentile, n = core.tail(values[:25])
    assert (value, n) == (15.0, 25) and percentile == 60.0
    # too few samples for a percentile at or above the median
    assert core.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def test_job_tail_does_not_depend_on_the_pass_count():
    def one_pass():
        return core.PassResult(
            wall_s=1.0, cold=[float(i) for i in range(1, 55)], cached=[],
            rejected=[], schedules=1, cycles=1, attempted=54, failed=0,
            errors=[], layer_info={},
        )

    once = metrics.end_to_end([one_pass()], [0.1])["job_tail_s"]
    twice = metrics.end_to_end([one_pass(), one_pass()], [0.1])["job_tail_s"]
    assert once["value"] == twice["value"] == 44.0
    assert once["percentile"] == twice["percentile"] == 81.5
