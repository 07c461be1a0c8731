"""Exception hierarchy for the ScoRD reproduction.

Every error carries a stable machine-readable :attr:`~ReproError.code`
(used by the campaign layer's failure manifests) and may carry
:attr:`~ReproError.diagnostics` — a rich, human-readable post-mortem
(e.g. the scheduler's hang report) kept out of the one-line message.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by this package."""

    #: stable machine-readable category, e.g. for failure manifests
    code: str = "repro"

    def __init__(self, message: str = "", diagnostics: Optional[str] = None):
        super().__init__(message)
        self.diagnostics = diagnostics

    def describe(self) -> str:
        """One-line structured rendering: ``code: message``."""
        return f"{self.code}: {self}"


class ConfigError(ReproError):
    """An architectural or detector configuration is inconsistent."""

    code = "config"


class DeviceMemoryError(ReproError):
    """Out-of-bounds access, double free, or allocator exhaustion."""

    code = "device-memory"


class KernelError(ReproError):
    """A kernel misused the device API (e.g. yielded a non-operation)."""

    code = "kernel"


class SimulationError(ReproError):
    """The simulator reached an impossible state (deadlock, livelock cap)."""

    code = "simulation"


class EventBudgetExceeded(SimulationError):
    """The event loop hit its budget — a livelock / runaway spin."""

    code = "event-budget"


class DeadlockError(SimulationError):
    """The event queue drained with blocks still incomplete."""

    code = "deadlock"


class WatchdogTimeout(SimulationError):
    """A watchdog wall-clock deadline expired mid-simulation."""

    code = "watchdog-timeout"


class StoreError(ReproError):
    """The run-record store could not be read or written."""

    code = "store"


class StoreCorruption(StoreError):
    """A store entry failed to parse or validate (quarantined on load)."""

    code = "store-corruption"


class RunTimeout(ReproError):
    """A unit outran its wall-clock deadline; its worker was killed."""

    code = "run-timeout"


class WorkerCrash(ReproError):
    """A campaign worker process died without producing a record."""

    code = "worker-crash"


class WorkerHang(ReproError):
    """A pool worker went silent: no heartbeat or result frame within
    the liveness window.  The supervisor kills and recycles it."""

    code = "worker-hang"


class ProtocolDesync(ReproError):
    """A pool worker's pipe stream stopped making sense — truncated or
    corrupt frame, absurd length prefix, or an out-of-sequence reply.
    The worker's stream cannot be trusted again; it is recycled."""

    code = "protocol-desync"


class SlowLorisWorker(ReproError):
    """A pool worker kept the pipe alive (partial frame bytes trickling)
    without ever completing a frame — the slow-loris failure shape."""

    code = "slow-loris"


class PoisonUnit(ReproError):
    """One work unit killed enough workers in a row that the supervisor
    quarantined it rather than let it wedge the pool."""

    code = "poison-unit"


class PoolExhausted(ReproError):
    """Work was submitted to a closed pool supervisor: no worker can be
    checked out or spawned.  (An exhausted restart budget does not raise
    this; the supervisor degrades to the in-process executor instead.)"""

    code = "pool-exhausted"


class RunFailedError(ReproError):
    """A campaign run failed permanently (every retry exhausted).

    Carries the :class:`repro.experiments.campaign.RunFailure` describing
    the run, the category of the final failure, and the attempt count, so
    exhibits can render ``FAILED(reason)`` cells and manifests can record
    structured entries.
    """

    code = "run-failed"

    def __init__(self, message: str, failure=None):
        super().__init__(message)
        self.failure = failure
        # Surface the final attempt's category (e.g. "run-timeout") in
        # FAILED(...) cells and manifests instead of the generic code.
        category = getattr(failure, "category", None)
        if category:
            self.code = category


def error_code(exc: BaseException) -> str:
    """Short stable category for *exc*, for manifests and FAILED cells."""
    if isinstance(exc, ReproError):
        return exc.code
    return type(exc).__name__
