"""Persistent warm worker pool: fork once, serve many simulation units.

Every isolated simulation runs in a worker process, so a crash or hang
costs one unit, never the campaign.  A worker is started once and then
serves many units, so interpreter start + engine import are paid **once
per worker** instead of once per unit:

* a **worker** (``python -m repro.experiments.pool``) boots, pre-imports
  the engine, announces ``ready``, then serves ``run`` requests over a
  length-prefixed JSON frame protocol on stdin/stdout until told to shut
  down (or until its TTL recycles it);
* while a unit simulates, the worker streams **heartbeat frames** from
  inside the event loop (via the :class:`~repro.common.guard.Watchdog`
  hook), so the parent can tell "still crunching" from "hung"
  without killing anything;
* the parent-side :class:`WorkerHandle` owns exactly one worker and maps
  every way the stream can go wrong onto the structured error taxonomy:
  silence → :class:`~repro.common.errors.WorkerHang`, the unit's own
  deadline running out → :class:`~repro.common.errors.RunTimeout`,
  EOF/death → :class:`~repro.common.errors.WorkerCrash`, truncated or
  corrupt frames → :class:`~repro.common.errors.ProtocolDesync`, a
  partial frame that trickles without completing →
  :class:`~repro.common.errors.SlowLorisWorker`.

Scheduling policy — which worker runs what, recycling after faults,
retry/backoff, poison-unit quarantine, and degradation — lives one layer
up in :class:`repro.experiments.supervisor.PoolSupervisor`.  This module
is only the mechanism: one process, one pipe, one unit at a time.

Determinism is preserved by construction: a worker builds a **fresh**
:class:`~repro.experiments.runner.Runner` per unit, so a warm worker's
Nth unit sees exactly the state a cold process would — the
jobs=N ≡ jobs=1 record-identity the equivalence tests pin.
"""

from __future__ import annotations

import json
import os
import select
import struct
import subprocess
import sys
import time
from typing import Optional

from repro.common.errors import (
    ProtocolDesync,
    ReproError,
    RunTimeout,
    SlowLorisWorker,
    WorkerCrash,
    WorkerHang,
)
from repro.common.guard import GuardConfig, Watchdog
from repro.experiments.campaign import RunSpec, _worker_env
from repro.experiments.runner import RunRecord
from repro.experiments.store import record_from_dict, record_to_dict

#: frame wire format: 4-byte big-endian length + UTF-8 JSON object
_LEN = struct.Struct(">I")

#: a frame longer than this is a desynced stream, not a real payload
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: protocol version spoken on the pipe (checked in the ready frame)
POOL_PROTOCOL = 1

#: how often a busy worker proves liveness (overridable per run frame)
DEFAULT_HEARTBEAT_SECONDS = 0.5


# ----------------------------------------------------------------------
# Frame encode / decode
# ----------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """One wire frame: length prefix + canonical JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolDesync(
            f"refusing to send a {len(body)}-byte frame "
            f"(cap {MAX_FRAME_BYTES})"
        )
    return _LEN.pack(len(body)) + body


def write_frame(stream, payload: dict) -> None:
    stream.write(encode_frame(payload))
    stream.flush()


def read_frame(stream) -> Optional[dict]:
    """Blocking frame read from a buffered stream (worker side).

    Returns ``None`` on clean EOF at a frame boundary (the parent closed
    the pipe — treat as shutdown).  Raises :class:`ProtocolDesync` on a
    torn prefix, torn body, oversized length, or non-JSON body.
    """
    prefix = stream.read(_LEN.size)
    if not prefix:
        return None
    if len(prefix) < _LEN.size:
        raise ProtocolDesync(f"torn length prefix ({len(prefix)} bytes)")
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolDesync(f"absurd frame length {length}")
    body = stream.read(length)
    if len(body) < length:
        raise ProtocolDesync(
            f"torn frame body ({len(body)}/{length} bytes)"
        )
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolDesync(f"frame body is not JSON: {err}") from err


class FrameTimeout(ReproError):
    """Internal to the parent-side reader: no bytes arrived in time.

    Never escapes :class:`WorkerHandle` — it is translated into
    :class:`WorkerHang` (total silence) or :class:`RunTimeout` (the
    unit's deadline ran out) with the context only the handle knows.
    """

    code = "frame-timeout"


class _FrameReader:
    """Deadline-aware frame reader over a worker's stdout fd.

    Buffered readers lie to ``select`` (bytes can sit in the Python
    buffer while the fd is quiet), so this reads the raw fd with
    ``os.read`` into its own buffer and uses ``select`` for timeouts.
    """

    def __init__(self, fd: int):
        self._fd = fd
        self._buf = bytearray()

    @property
    def partial_bytes(self) -> int:
        """Bytes of an incomplete frame currently buffered."""
        return len(self._buf)

    def read(self, timeout: float):
        """One frame within *timeout* seconds.

        Raises :class:`FrameTimeout` if *no* new byte arrives in time,
        :class:`SlowLorisWorker` if bytes trickled but the frame never
        completed within the window, :class:`WorkerCrash` on EOF.
        """
        deadline = time.monotonic() + timeout
        made_progress = False
        while True:
            frame = self._try_decode()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if made_progress or self._buf:
                    raise SlowLorisWorker(
                        f"frame trickled to {len(self._buf)} byte(s) "
                        f"without completing within {timeout:g}s"
                    )
                raise FrameTimeout(
                    f"no frame bytes within {timeout:g}s"
                )
            ready, _, _ = select.select([self._fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self._fd, 65536)
            if not chunk:
                raise WorkerCrash(
                    "worker closed its pipe mid-conversation"
                    + (f" ({len(self._buf)} buffered byte(s) torn)"
                       if self._buf else "")
                )
            self._buf += chunk
            made_progress = True

    def _try_decode(self) -> Optional[dict]:
        if len(self._buf) < _LEN.size:
            return None
        (length,) = _LEN.unpack(bytes(self._buf[: _LEN.size]))
        if length > MAX_FRAME_BYTES:
            raise ProtocolDesync(f"absurd frame length {length}")
        end = _LEN.size + length
        if len(self._buf) < end:
            return None
        body = bytes(self._buf[_LEN.size:end])
        del self._buf[:end]
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ProtocolDesync(f"frame body is not JSON: {err}") from err


# ----------------------------------------------------------------------
# Parent side: one handle per live worker process
# ----------------------------------------------------------------------
class WorkerHandle:
    """Owns one warm worker process and its pipe conversation.

    Lifecycle: ``spawn()`` (boot + engine pre-import + ready frame) →
    any number of ``run_unit()`` calls → ``shutdown()`` (graceful) or
    ``kill()`` (after a fault).  A handle whose stream faulted must not
    be reused — the supervisor recycles it.
    """

    def __init__(self, worker_id: int, spawn_timeout: float = 60.0):
        self.worker_id = worker_id
        self.spawn_timeout = spawn_timeout
        self.proc: Optional[subprocess.Popen] = None
        self._reader: Optional[_FrameReader] = None
        self._next_id = 0
        #: units completed by this worker (drives TTL recycling)
        self.units_served = 0
        #: heartbeat frames observed by this handle (telemetry)
        self.heartbeats_seen = 0
        #: structured log frames observed by this handle
        self.logs_seen = 0
        #: callback(events: list[dict]) for worker ``log`` frames —
        #: the supervisor points this at its campaign event log
        self.on_log = None
        self.spawned_at: Optional[float] = None

    @property
    def lifetime_seconds(self) -> float:
        """Wall-clock seconds since this worker became ready."""
        if self.spawned_at is None:
            return 0.0
        return time.monotonic() - self.spawned_at

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def spawn(self) -> None:
        """Boot the worker and block until it pre-imported the engine."""
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.pool"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_worker_env(),
        )
        self._reader = _FrameReader(self.proc.stdout.fileno())
        try:
            ready = self._reader.read(self.spawn_timeout)
        except FrameTimeout:
            self.kill()
            raise WorkerHang(
                f"worker {self.worker_id} did not become ready within "
                f"{self.spawn_timeout:g}s"
            ) from None
        except ReproError:
            self.kill()
            raise
        if ready.get("type") != "ready" or \
                ready.get("protocol") != POOL_PROTOCOL:
            self.kill()
            raise ProtocolDesync(
                f"worker {self.worker_id} opened with {ready!r} instead "
                f"of a protocol-{POOL_PROTOCOL} ready frame"
            )
        self.spawned_at = time.monotonic()

    # ------------------------------------------------------------------
    def run_unit(
        self,
        spec: RunSpec,
        deadline: Optional[float] = None,
        fault: Optional[str] = None,
        heartbeat_timeout: float = 10.0,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
        flight: Optional[dict] = None,
        forensics_dir: Optional[str] = None,
        campaign: Optional[str] = None,
    ) -> RunRecord:
        """Drive one unit through the worker; return its record.

        *deadline* bounds the unit's wall clock (the worker arms an
        in-process watchdog at 80% of it, so simulator hangs die with a
        hang report before the parent gives up); running out of it
        raises :class:`RunTimeout`.  *heartbeat_timeout* bounds
        silence: if no frame (heartbeat or result) arrives within it,
        the worker is declared hung.

        Raises the taxonomy: :class:`RunTimeout`, :class:`WorkerHang`,
        :class:`WorkerCrash`, :class:`ProtocolDesync`,
        :class:`SlowLorisWorker`, or the re-hydrated simulation error
        the worker reported.  On any of the first five the caller must
        ``kill()`` and recycle — the stream is no longer trustworthy.
        """
        if not self.alive:
            raise WorkerCrash(
                f"worker {self.worker_id} is not running"
            )
        self._next_id += 1
        request_id = self._next_id
        payload = {
            "type": "run",
            "id": request_id,
            "spec": spec.to_dict(),
            "heartbeat": heartbeat_seconds,
        }
        if deadline:
            payload["deadline"] = deadline * 0.8
        if fault is not None:
            payload["fault"] = fault
        if flight is not None:
            payload["flight"] = flight
            if forensics_dir:
                payload["forensics_dir"] = forensics_dir
        if campaign is not None:
            payload["campaign"] = campaign
        try:
            write_frame(self.proc.stdin, payload)
        except (BrokenPipeError, OSError) as err:
            raise WorkerCrash(
                f"worker {self.worker_id} pipe is gone: {err}"
            ) from err
        started = time.monotonic()
        while True:
            budget = heartbeat_timeout
            if deadline is not None:
                remaining = deadline - (time.monotonic() - started)
                if remaining <= 0:
                    raise RunTimeout(
                        f"worker {self.worker_id} exceeded the "
                        f"{deadline:g}s unit timeout on {spec.describe()} "
                        f"({self.heartbeats_seen} heartbeat(s) seen) and "
                        "was killed"
                    )
                budget = min(budget, remaining)
            try:
                frame = self._reader.read(budget)
            except FrameTimeout:
                if budget < heartbeat_timeout:
                    # The unit's deadline ran out before the silence
                    # window did: the loop head raises RunTimeout.
                    continue
                raise WorkerHang(
                    f"worker {self.worker_id} went silent for "
                    f"{budget:g}s mid-unit ({spec.describe()}): no "
                    f"heartbeat, no result"
                ) from None
            except WorkerCrash as err:
                code = self.proc.poll()
                raise WorkerCrash(
                    f"worker {self.worker_id} died mid-unit "
                    f"({spec.describe()}), exit code {code}: {err}"
                ) from None
            kind = frame.get("type")
            if kind == "heartbeat":
                self.heartbeats_seen += 1
                continue
            if kind == "log":
                # Structured event-log forwarding (campaign/unit/worker
                # correlation IDs attached worker-side); never fatal.
                events = frame.get("events")
                self.logs_seen += 1
                if self.on_log is not None and isinstance(events, list):
                    self.on_log(events)
                continue
            if kind == "error":
                if frame.get("id") != request_id:
                    raise ProtocolDesync(
                        f"worker {self.worker_id} answered request "
                        f"{frame.get('id')!r}, expected {request_id}"
                    )
                err = ReproError(
                    str(frame.get("message", "(no message)")),
                    diagnostics=frame.get("diagnostics"),
                )
                err.code = str(frame.get("code", "worker-crash"))
                self.units_served += 1
                raise err
            if kind == "result":
                if frame.get("id") != request_id:
                    raise ProtocolDesync(
                        f"worker {self.worker_id} answered request "
                        f"{frame.get('id')!r}, expected {request_id}"
                    )
                try:
                    record = record_from_dict(frame["record"])
                except (KeyError, ReproError) as err:
                    raise ProtocolDesync(
                        f"worker {self.worker_id} returned an unreadable "
                        f"record for {spec.describe()}: {err}"
                    ) from err
                self.units_served += 1
                return record
            raise ProtocolDesync(
                f"worker {self.worker_id} sent unexpected frame type "
                f"{kind!r}"
            )

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: shutdown frame, wait, then escalate to kill."""
        if self.proc is None:
            return
        if self.alive:
            try:
                write_frame(self.proc.stdin, {"type": "shutdown"})
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
                return
        self._close_pipes()

    def kill(self) -> None:
        """Hard stop (SIGKILL); safe to call repeatedly."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.proc.kill()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self._close_pipes()

    def _close_pipes(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _serve_unit(out, frame: dict) -> None:
    """Simulate one run frame and answer with a result or error frame."""
    from repro.experiments.faults import apply_fault
    from repro.experiments.runner import Runner
    from repro.scor.apps.registry import app_by_name

    request_id = frame.get("id")
    try:
        spec = RunSpec.from_dict(frame["spec"])
    except (KeyError, ReproError) as err:
        write_frame(out, {
            "type": "error", "id": request_id,
            "code": "config", "message": f"bad spec: {err}",
        })
        return

    beat_every = float(frame.get("heartbeat", DEFAULT_HEARTBEAT_SECONDS))
    deadline = frame.get("deadline")
    campaign = frame.get("campaign")

    def log_event(event: str, **fields) -> None:
        """Forward one structured event with correlation IDs attached."""
        entry = {
            "event": event,
            "campaign": campaign,
            "unit": spec.describe(),
            "worker_pid": os.getpid(),
            "request_id": request_id,
        }
        entry.update(fields)
        write_frame(out, {
            "type": "log", "id": request_id, "events": [entry],
        })

    def on_heartbeat(beat):
        # Called from inside the event loop — same thread, so frame
        # writes never interleave with the result frame.
        write_frame(out, {
            "type": "heartbeat", "id": request_id,
            "elapsed": round(beat.elapsed_seconds, 3),
            "events": beat.events_processed,
            "cycle": beat.cycle,
        })

    def guard_factory():
        return Watchdog(
            GuardConfig(
                deadline_seconds=float(deadline) if deadline else None,
                heartbeat_seconds=beat_every,
            ),
            on_heartbeat=on_heartbeat,
        )

    flight = None
    if frame.get("flight"):
        from repro.telemetry.flight import FlightConfig

        flight = FlightConfig.from_dict(frame["flight"])

    try:
        # Injected faults strike after the unit is dispatched — exactly
        # where a real mid-unit SIGKILL / hang / desync would.
        apply_fault(frame.get("fault"), out, beat_every)
        log_event("unit-start", detector=spec.detector, seed=spec.seed)
        # A fresh Runner per unit: the warm worker's Nth unit sees the
        # same state a cold process would (determinism parity).
        runner = Runner(
            verbose=False,
            guard_factory=guard_factory,
            flight=flight,
            forensics_dir=frame.get("forensics_dir"),
        )
        record = runner.run(
            app_by_name(spec.app),
            detector=spec.detector,
            memory=spec.memory,
            races=spec.races,
            seed=spec.seed,
        )
    except ReproError as err:
        write_frame(out, {
            "type": "error", "id": request_id,
            "code": err.code, "message": str(err),
            "diagnostics": err.diagnostics,
        })
        return
    except KeyError as err:
        write_frame(out, {
            "type": "error", "id": request_id,
            "code": "config", "message": str(err),
        })
        return
    except Exception as err:  # noqa: BLE001 - isolation is the point
        write_frame(out, {
            "type": "error", "id": request_id,
            "code": "worker-crash",
            "message": f"{type(err).__name__}: {err}",
        })
        return
    for entry in runner.forensics_units:
        log_event("forensics-unit", forensics_unit=entry)
    log_event(
        "unit-complete",
        unique_races=record.unique_races,
        race_types=sorted(t.value for t in record.race_types),
        bundles=sum(e["bundles"] for e in runner.forensics_units),
    )
    write_frame(out, {
        "type": "result", "id": request_id,
        "record": record_to_dict(record),
    })


def worker_main(argv=None) -> int:
    """``python -m repro.experiments.pool``: serve units until shutdown.

    Boot sequence: claim the real stdout for frames (anything the
    engine might ``print`` is re-routed to stderr so it can never
    desync the pipe), pre-import the engine, announce ``ready``.  Then
    loop: read a frame, serve it, answer.  EOF or a ``shutdown`` frame
    ends the loop cleanly.
    """
    out = sys.stdout.buffer
    inp = sys.stdin.buffer
    # Stray prints must never corrupt the frame stream.
    sys.stdout = sys.stderr

    # Pre-import: this is the cost the pool pays once instead of
    # per-unit.  Everything a simulation touches is pulled in here.
    import repro.experiments.runner  # noqa: F401
    import repro.scor.apps.registry  # noqa: F401
    import repro.scor.micro.registry  # noqa: F401

    write_frame(out, {
        "type": "ready",
        "protocol": POOL_PROTOCOL,
        "pid": os.getpid(),
    })

    while True:
        try:
            frame = read_frame(inp)
        except ProtocolDesync as err:
            print(f"[pool-worker] desynced stdin: {err}", file=sys.stderr)
            return 1
        if frame is None or frame.get("type") == "shutdown":
            return 0
        if frame.get("type") != "run":
            write_frame(out, {
                "type": "error", "id": frame.get("id"),
                "code": "config",
                "message": f"unexpected frame type {frame.get('type')!r}",
            })
            continue
        _serve_unit(out, frame)


if __name__ == "__main__":
    sys.exit(worker_main())
