"""A tiny-size run of every workload through the command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchlib import core, metrics

RUN = os.path.join(core.ROOT, "perfbench", "run.py")


def _run(*args, cwd=core.ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", ["uts-spin", "graph-loads",
                                      "serve-mixed", "mc-dpor"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalogue = metrics.END_TO_END if trace == "0" else metrics.PER_LAYER
    assert list(result["metrics"]) == [name for name, _, _ in catalogue]
    for name, unit, _ in catalogue:
        assert result["metrics"][name]["unit"] == unit
    if trace == "0":
        for name, body in result["metrics"].items():
            assert body["value"] > 0, name
    else:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(values[f"layer.{layer}.self_s"]
                     for layer in ("scord", "engine.memops", "engine.sched",
                                   "telemetry.flight", "mc", "experiments",
                                   "service", "scolint", "fuzz"))
        assert layers + values["unattributed_s"] == pytest.approx(
            values["traced.wall_s"] * values["traced.paths"])
        assert values["unattributed_s"] >= 0
        assert values["tracing_overhead"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(core.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(core.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uts-spin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
