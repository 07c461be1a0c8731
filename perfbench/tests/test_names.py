"""Metric names, BENCHMARK.json and the layer map are well formed."""

import json
import os
import re

from benchlib import core, metrics

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: the limits BENCHMARK.json must keep to
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = os.path.join(core.ROOT, "BENCHMARK.json")
LAYER_MAP = os.path.join(core.ROOT, "perfbench", "layer_map.json")


def _benchmark():
    with open(BENCHMARK) as handle:
        return json.load(handle)


def test_every_metric_name_is_well_formed():
    names = [n for n, _, _ in metrics.END_TO_END + metrics.PER_LAYER]
    for name in names:
        assert NAME.fullmatch(name), name
        assert NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))
    for _, unit, better in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT_RE.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_is_well_formed():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == [
        "uts-spin", "graph-loads", "serve-mixed", "mc-dpor"]
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.fullmatch(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_layer_map_cites_only_known_metrics():
    known = {n for n, _, _ in metrics.END_TO_END + metrics.PER_LAYER}
    workloads = {w["name"] for w in _benchmark()["workloads"]}
    with open(LAYER_MAP) as handle:
        entries = json.load(handle)["map"]
    cited = set()
    for entry in entries:
        for name in entry["metrics"]:
            assert name in known, name
            cited.add(name)
        for move in entry["moves"]:
            assert move["metric"] in known
            assert move["workload"] in workloads
    assert cited == {n for n, _, _ in metrics.PER_LAYER}
