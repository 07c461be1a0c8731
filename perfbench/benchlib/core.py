"""Shared plumbing: paths, host record, statistics, process hygiene."""

from __future__ import annotations

import dataclasses
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: the checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__
))))
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes lives under here (git-ignored)
WORK_ROOT = os.path.join(ROOT, ".perfbench")


class BenchInterrupted(BaseException):
    """SIGTERM / SIGINT / the run's own deadline.

    A ``BaseException`` so that ``except Exception`` handlers in the
    program under test cannot swallow it on its way to the teardown.
    """


class GoldenMismatch(Exception):
    """A simulated output differs from its recorded golden."""


@dataclasses.dataclass
class PassResult:
    """What one pass of a workload measured and checked."""

    wall_s: float
    #: job latencies in seconds, by kind
    cold: List[float]
    cached: List[float]
    rejected: List[float]
    #: engine executions and simulated cycles behind the cold jobs
    schedules: int
    cycles: int
    #: operations checked, and how many of them were wrong or failed
    attempted: int
    failed: int
    errors: List[str]
    #: workload-specific inputs to the per-layer metrics
    layer_info: dict
    #: (label, kind, seconds) per job, for the result file
    job_log: List[tuple] = dataclasses.field(default_factory=list)


def program_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Pool workers follow: the pool puts the imported package's directory
    on their ``PYTHONPATH``.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK_ROOT, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def calibrate(iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop (host speed yardstick).

    Interpreter-bound like the simulator's hot path and independent of
    it, so results from two hosts can be compared after normalizing.
    """
    started = time.perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        acc += i & 0xFFFF
        if i & 1023 == 0:
            table[i & 8191] = acc
    if acc < 0:  # keep the loop from being optimized away
        print(acc)
    return time.perf_counter() - started


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_record() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "calibration_s": round(calibrate(), 6),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least
    *beyond* samples above it, i.e. the sample with exactly *beyond*
    larger ones.  With fewer than ``2 * beyond`` samples that percentile
    falls below the median, which is no tail; the median is reported
    (as percentile 50) instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * beyond:
        return median(ordered), 50.0, n
    return ordered[n - beyond - 1], round(100.0 * (n - beyond) / n, 1), n


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def _proc_table() -> Dict[int, Tuple[int, str]]:
    """pid -> (ppid, state) for every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # comm may contain spaces and parentheses; fields follow the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(pid: Optional[int] = None) -> List[int]:
    """Live (non-zombie) descendants of *pid* (default: this process)."""
    root = os.getpid() if pid is None else pid
    table = _proc_table()
    children: Dict[int, List[int]] = {}
    for child, (parent, _) in table.items():
        children.setdefault(parent, []).append(child)
    out, frontier = [], [root]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            out.append(child)
            frontier.append(child)
    return [p for p in out if table.get(p, (0, "Z"))[1] != "Z"]


def reap_children() -> None:
    """Collect exit statuses of any of our children that already ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_survivors() -> List[int]:
    """SIGKILL every live descendant, wait for them, return their pids."""
    survivors = descendants()
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        reap_children()
        if not descendants():
            break
        time.sleep(0.05)
    return survivors


def install_signal_handlers(deadline_s: Optional[float]) -> None:
    """Turn SIGTERM/SIGINT/the deadline into :class:`BenchInterrupted`."""

    def handler(signum, frame):
        raise BenchInterrupted(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    if deadline_s:
        signal.signal(signal.SIGALRM, handler)
        signal.alarm(max(1, int(deadline_s)))


# ----------------------------------------------------------------------
# Set-up timing in fresh interpreters
# ----------------------------------------------------------------------
def import_seconds(modules: Sequence[str], trials: int) -> List[float]:
    """Seconds to import *modules* in each of *trials* fresh interpreters."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(repr(time.perf_counter() - t))\n"
    )
    samples = []
    for _ in range(trials):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples
