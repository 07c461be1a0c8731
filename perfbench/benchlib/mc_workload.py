"""``mc-dpor``: DPOR exploration of every micro plus two small apps.

Every target of the pass is explored with the same fixed budget through
the public ``repro.mc.explorer.explore``.  The engine runs under
schedule control with full flight capture, as many short runs.  The
target set is the fixed suite, each micro three times; the seed sets the
order of the micros.

A *job* is one exploration; ``wall_s`` is the sum of their times.
"""

from __future__ import annotations

import random
import time
from typing import List

from benchlib import core, goldens
from benchlib.core import PassResult

#: schedules per target (app traces exhaust their truncated frontier
#: well below it; micros settle in 1-3 schedules)
BUDGET = 16
APP_TARGETS = ("app:RED", "app:1DC")
#: each micro is explored this many times per pass (mc keeps no result
#: cache, so a repeated request re-derives its proof)
MICRO_REPEATS = 3
TINY_TARGETS = 4


def all_targets() -> List[str]:
    from repro.scor.micro.registry import ALL_MICROS

    return [f"micro:{m.name}" for m in ALL_MICROS] + list(APP_TARGETS)


def report_form(report: dict) -> dict:
    """The deterministic part of an mc-report/v1 document."""
    return {
        "verdict": report["verdict"],
        "racy": report["racy"],
        "expected_racy": report["expected_racy"],
        "race_types": list(report["race_types"]),
        "schedules_explored": report["schedules_explored"],
        "schedules_pruned": report["schedules_pruned"],
        "errors": report["errors"],
    }


def agrees_with_ground_truth(report: dict) -> bool:
    """A proof never contradicts the target's registered ground truth."""
    expected = report["expected_racy"]
    if expected is None or report["verdict"] == "budget_exhausted":
        return True
    return report["racy"] == expected


class _CycleCounter:
    """Wraps a target's ``execute`` to sum simulated cycles per schedule."""

    def __init__(self, target):
        self.cycles = 0
        self._execute = target.execute
        target.execute = self

    def __call__(self, control):
        gpu = self._execute(control)
        self.cycles += gpu.total_cycles
        return gpu


class McWorkload:
    name = "mc-dpor"
    import_modules = (
        "repro.mc.explorer", "repro.mc.targets", "repro.scor.micro.registry",
    )

    def __init__(self, seed: int, size: str):
        rng = random.Random(f"mc-dpor:{seed}")
        micros = [t for t in all_targets() if t.startswith("micro:")]
        targets = micros[:TINY_TARGETS] if size == "tiny" else (
            micros * MICRO_REPEATS
        )
        rng.shuffle(targets)
        # The apps go last in a fixed order so the peak resident set does
        # not depend on where the seed puts them.
        self.targets = targets + ([] if size == "tiny" else list(APP_TARGETS))
        self.golden = goldens.load(self.name)

    def setup(self, trials: int) -> List[float]:
        return core.import_seconds(self.import_modules, trials)

    def _check(self, label: str, report: dict) -> List[str]:
        errors = goldens.compare(self.golden, label, report_form(report))
        if not agrees_with_ground_truth(report):
            errors.append(f"{label}: verdict {report['verdict']} contradicts "
                          f"ground truth racy={report['expected_racy']}")
        return errors

    def run_pass(self, tracer=None) -> PassResult:
        from repro.mc import explorer
        from repro.mc.targets import resolve_target

        cold, log, errors = [], [], []
        failed = cycles = explored = pruned = 0
        for label in self.targets:
            target = resolve_target(label)
            counter = _CycleCounter(target)
            if tracer is not None:
                tracer.set_context(label)
                tracer.start()
            t0 = time.perf_counter()
            report = explorer.explore(target, budget=BUDGET)
            cold.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.stop()
            log.append((label, "cold", cold[-1]))
            cycles += counter.cycles
            explored += report["schedules_explored"]
            pruned += report["schedules_pruned"]
            found = self._check(label, report)
            failed += bool(found)
            errors.extend(found)
        return PassResult(
            wall_s=sum(cold),
            cold=cold,
            cached=[],
            rejected=[],
            schedules=explored,
            cycles=cycles,
            attempted=len(cold),
            failed=failed,
            errors=errors,
            layer_info={"schedules_explored": explored,
                        "schedules_pruned": pruned},
            job_log=log,
        )

    def close(self) -> None:
        """Nothing outlives a pass: ``explore`` keeps no state."""


def record_goldens(log) -> dict:
    from repro.mc import explorer
    from repro.mc.targets import resolve_target

    table = {}
    for label in all_targets():
        report = explorer.explore(resolve_target(label), budget=BUDGET)
        if not agrees_with_ground_truth(report):
            raise core.GoldenMismatch(
                f"{label}: verdict contradicts ground truth; not recorded"
            )
        table[label] = report_form(report)
        log(f"  {label}: {report['verdict']} "
            f"explored={report['schedules_explored']}")
    return table
