"""No process of the benchmark outlives it: on error and on SIGTERM."""

import signal
import subprocess
import sys
import threading
import time

import pytest

import run
from benchlib import core
from benchlib.serve_workload import STREAM_MARKER, ServeWorkload


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return True
    return stat[stat.rfind(")") + 2] == "Z"


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def test_raise_mid_serve_mixed(monkeypatch):
    found = []
    real = core.kill_survivors

    def recording():
        found.extend(real())
        return found

    monkeypatch.setattr(core, "kill_survivors", recording)
    workload = ServeWorkload(seed=5, size="tiny")
    workers = []

    def boom(outcome):
        workers.extend(core.descendants())
        raise RuntimeError("injected mid-run failure")

    workload.on_outcome = boom
    with pytest.raises(RuntimeError, match="injected"):
        run.run_workload("serve-mixed", 5, 1, 0, "tiny", workload=workload)
    assert workers, "the pool had no worker process to tear down"
    assert found == [], "teardown left processes for the safety net"
    assert core.descendants() == []
    assert all(_gone(pid) for pid in workers)


def test_sigterm_mid_serve_mixed():
    """SIGTERM inside the request stream: the main thread waits on the
    clients, the clients hold HTTP connections, and the dispatchers are
    inside the pool."""
    proc = subprocess.Popen(
        [sys.executable, run.__file__, "--workload", "serve-mixed",
         "--seed", "2", "--seconds", "60", "--trace", "0"],
        cwd=core.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    marked = threading.Event()
    out_lines, err_lines = [], []

    def read(stream, lines):
        for line in stream:
            lines.append(line)
            if line.strip() == STREAM_MARKER:
                marked.set()

    readers = [
        threading.Thread(target=read, args=(proc.stdout, out_lines),
                         daemon=True),
        threading.Thread(target=read, args=(proc.stderr, err_lines),
                         daemon=True),
    ]
    for reader in readers:
        reader.start()
    try:
        assert marked.wait(timeout=120), "".join(err_lines)
        assert proc.poll() is None, "the run ended before the signal"
        seen = core.descendants(proc.pid)
        workers = [pid for pid in seen
                   if "repro.experiments.pool" in _cmdline(pid)]
        assert workers, "no pool worker was running at the signal"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=90)
        for reader in readers:
            reader.join(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = "".join(err_lines)
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert "interrupted (SIGTERM)" in err
    assert not any(line.startswith('{"correct"') for line in out_lines)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and not all(_gone(p) for p in seen):
        time.sleep(0.1)
    assert all(_gone(pid) for pid in seen), [
        (pid, _cmdline(pid)) for pid in seen if not _gone(pid)]
