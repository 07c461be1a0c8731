"""Recorded simulated outputs, one JSON table per workload.

A golden is the program's *semantic* output for one input: the
``RunRecord`` minus its wall-clock field (cycles, DRAM data and
metadata counts, race keys, ``verified``), an ``mc`` report's verdict
and schedule counts, or a program's expected service answer.  They are
deterministic, so a mismatch is a wrong answer, never noise.

Regenerate with ``python3 perfbench/run.py --record-goldens``.
"""

from __future__ import annotations

import json
import os
from typing import List

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "goldens"
)


def path_for(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load(workload: str) -> dict:
    with open(path_for(workload)) as handle:
        return json.load(handle)["entries"]


def save(workload: str, entries: dict) -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(path_for(workload), "w") as handle:
        json.dump(
            {"schema": "perfbench-goldens/v1", "workload": workload,
             "entries": entries},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")


def record_form(record) -> dict:
    """A RunRecord's semantic fields, as JSON would return them."""
    from repro.experiments.store import canonical_json, semantic_record_dict

    return json.loads(canonical_json(semantic_record_dict(record)))


def compare(golden: dict, label: str, actual: dict) -> List[str]:
    expected = golden.get(label)
    if expected is None:
        return [f"{label}: no golden recorded"]
    if expected == actual:
        return []
    fields = sorted(
        key for key in set(expected) | set(actual)
        if expected.get(key) != actual.get(key)
    )
    return [
        f"{label}: {key} expected {expected.get(key)!r} got {actual.get(key)!r}"
        for key in fields
    ]


def check(golden: dict, label: str, record) -> List[str]:
    """Mismatches between a RunRecord and its golden (empty = correct)."""
    return compare(golden, label, record_form(record))
