"""``uts-spin`` and ``graph-loads``: campaign units through ``Runner.run``.

Both workloads are a fixed list of unit configurations (app, race flags,
detector).  The seed picks each unit's app seed from a per-configuration
pool and shuffles the order.  Each pool holds 4 to 8 app seeds, out of
the first 40 (UTS) or 16 (graphs), whose simulated cycle counts lie
within about 4% of each other near the configuration's median; for the
racy UTS units only seeds whose global-stack lock gets stuck (over 300k
cycles) qualify, which is the spin-lock behaviour this workload is for.
So every seed runs the same kind of work at nearly the same cost.

A *job* is one ``Runner.run`` call of a fresh unit; ``wall_s`` is the
sum of the units' times.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import time
from typing import Dict, List, Tuple

from benchlib import core, goldens
from benchlib.core import PassResult

#: the UTS input of this workload: 2 blocks, 8 trees (the suite's default
#: is 6 blocks, 24 trees, where one stuck-lock unit takes ~15 s here)
UTS_GRID = 2
UTS_TREES = 8
#: app and app seed of the in-process warm-up unit (not a workload input)
WARMUP = ("RED", 99)


@dataclasses.dataclass(frozen=True)
class UnitConfig:
    app: str
    races: Tuple[str, ...]
    detector: str
    pool: Tuple[int, ...]

    def label(self, seed: int) -> str:
        flags = "+".join(self.races) or "-"
        variant = f"|g{UTS_GRID}t{UTS_TREES}" if self.app == "UTS" else ""
        return f"{self.app}|{self.detector}|{flags}|s{seed}{variant}"


UNIT_CONFIGS: Dict[str, Tuple[UnitConfig, ...]] = {
    "uts-spin": (
        UnitConfig("UTS", ("block_cas_global",), "scord", (15, 20, 33, 39)),
        UnitConfig("UTS", ("block_cas_global",), "base", (16, 18, 19, 36)),
        UnitConfig("UTS", ("block_exch_global",), "scord", (6, 8, 24, 26)),
        UnitConfig("UTS", ("block_exch_global",), "base", (7, 22, 26, 28)),
        UnitConfig("UTS", (), "scord", (1, 7, 13, 22, 33)),
        UnitConfig("UTS", (), "base", (7, 20, 33, 36, 38)),
    ),
    "graph-loads": (
        UnitConfig("GCOL", (), "scord", (5, 8, 9, 10, 11, 12, 14, 15)),
        UnitConfig("GCOL", (), "none", (5, 8, 9, 10, 11, 12, 14, 15)),
        UnitConfig("GCOL", ("block_steal",), "scord", (5, 10, 14, 15)),
        UnitConfig("GCOL", ("block_steal",), "none", (5, 9, 10, 15)),
        UnitConfig("GCOL", ("block_count",), "scord",
                   (5, 8, 9, 10, 11, 12, 14, 15)),
        UnitConfig("GCOL", ("block_count",), "none",
                   (5, 7, 8, 9, 10, 11, 12, 15)),
        UnitConfig("GCON", (), "scord", (1, 3, 7, 8, 9, 13, 15, 16)),
        UnitConfig("GCON", (), "none", (1, 3, 6, 7, 8, 9, 13, 16)),
        UnitConfig("GCON", ("block_next_head",), "scord",
                   (2, 3, 8, 9, 12, 13, 15, 16)),
        UnitConfig("GCON", ("block_next_head",), "none",
                   (2, 3, 7, 8, 9, 12, 13, 16)),
        UnitConfig("GCON", ("plain_label_push",), "scord",
                   (1, 5, 6, 7, 8, 9, 14, 15)),
        UnitConfig("GCON", ("plain_label_push",), "none",
                   (1, 2, 5, 6, 7, 8, 9, 14)),
    ),
}

#: the smoke-test subset: the cheapest configuration of each workload
TINY_CONFIGS = {"uts-spin": (4,), "graph-loads": (7,)}


@functools.lru_cache(maxsize=None)
def _spin_uts():
    from repro.scor.apps.uts import UnbalancedTreeSearchApp

    class SpinUTS(UnbalancedTreeSearchApp):
        def __init__(self, races=(), seed: int = 10):
            super().__init__(races, seed, num_trees=UTS_TREES, grid=UTS_GRID)

    return SpinUTS


def app_class(name: str):
    """The registered app, except UTS: the same kernel on this input."""
    from repro.scor.apps.registry import app_by_name

    return _spin_uts() if name == "UTS" else app_by_name(name)


def work_list(workload: str, seed: int, size: str) -> List[Tuple[UnitConfig, int]]:
    """(config, app seed) for every unit, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    configs = UNIT_CONFIGS[workload]
    if size == "tiny":
        configs = tuple(configs[i] for i in TINY_CONFIGS[workload])
    units = [(config, rng.choice(config.pool)) for config in configs]
    rng.shuffle(units)
    return units


def all_units(workload: str) -> List[Tuple[UnitConfig, int]]:
    return [(c, s) for c in UNIT_CONFIGS[workload] for s in c.pool]


def simulate(config: UnitConfig, app_seed: int, runner):
    return runner.run(
        app_class(config.app), detector=config.detector,
        races=config.races, seed=app_seed,
    )


class EngineWorkload:
    """One of the two ``Runner.run`` workloads."""

    import_modules = ("repro.experiments.runner", "repro.scor.apps.registry")

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.units = work_list(name, seed, size)
        self.golden = goldens.load(name)

    def setup(self, trials: int) -> List[float]:
        samples = core.import_seconds(self.import_modules, trials)
        # Untimed warm-up: lazy imports and first-call costs of the engine
        # are paid before the first timed unit.
        from repro.experiments.runner import Runner
        from repro.scor.apps.registry import app_by_name

        Runner(verbose=False).run(app_by_name(WARMUP[0]), seed=WARMUP[1])
        return samples

    def run_pass(self, tracer=None) -> PassResult:
        from repro.experiments.runner import Runner

        runner = Runner(verbose=False)
        cold, log, errors = [], [], []
        failed = cycles = 0
        for config, app_seed in self.units:
            label = config.label(app_seed)
            if tracer is not None:
                tracer.set_context(label)
                tracer.start()
            t0 = time.perf_counter()
            record = simulate(config, app_seed, runner)
            cold.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.stop()
            log.append((label, "cold", cold[-1]))
            cycles += record.cycles
            found = goldens.check(self.golden, label, record)
            failed += bool(found)
            errors.extend(found)
        return PassResult(
            wall_s=sum(cold),
            cold=cold,
            cached=[],
            rejected=[],
            schedules=len(cold),
            cycles=cycles,
            attempted=len(cold),
            failed=failed,
            errors=errors,
            layer_info={},
            job_log=log,
        )

    def close(self) -> None:
        """Nothing outlives a pass: each pass makes its own ``Runner``."""


def record_goldens(workload: str, log) -> dict:
    """Simulate every pool entry and return its golden table."""
    from repro.experiments.runner import Runner

    table = {}
    for config, app_seed in all_units(workload):
        record = simulate(config, app_seed, Runner(verbose=False))
        label = config.label(app_seed)
        table[label] = goldens.record_form(record)
        log(f"  {label}: cycles={record.cycles} races={record.unique_races}")
    return table
