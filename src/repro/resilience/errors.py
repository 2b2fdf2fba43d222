"""Typed exception taxonomy for the reproduction.

Every error the simulator raises deliberately derives from
:class:`ReproError`, so callers (the CLI, the benchmark harness, CI) can
distinguish *what class of thing went wrong* without parsing messages:

- :class:`ConfigError` — an invalid machine/policy/fault configuration,
  detected at construction time with the offending field named;
- :class:`TopologyInvariantError` — a proposed L2/L3 slice grouping violates
  a structural invariant (partition exactness, inclusion, connectivity);
- :class:`FaultInjectedError` — an injected fault made forward progress
  impossible (e.g. a fault plan that disables every slice of a level);
- :class:`CheckpointError` — a checkpoint file is missing, corrupt, or was
  written by a different run than the one resuming from it (sweep journals
  reuse this class: a journal is the sweep-level checkpoint);
- :class:`WorkerCrashError` — a sweep worker *process* died (segfault,
  SIGKILL, the OOM killer, an unpicklable crash) instead of raising;
- :class:`SweepInterrupted` — a supervised sweep received SIGINT/SIGTERM,
  drained its in-flight runs, flushed its journal and stopped early;
- :class:`ServiceError` — the simulation service (``repro serve``) refused
  or failed a request: saturation (:class:`ServiceSaturatedError`),
  per-tenant quota (:class:`QuotaExceededError`), drain
  (:class:`ServiceDrainingError`), an unknown job
  (:class:`JobNotFoundError`), or a job killed by the service watchdog
  (:class:`JobTimeoutError`);
- :class:`PoolError` — the shared worker pool (``repro worker``) failed:
  a worker's lease on a job was reclaimed by a peer while it still held
  state (:class:`LeaseLostError` — the fencing check that makes zombie
  writes safe), or the pool directory itself is unusable
  (:class:`PoolCorruptError`).

Each class that *declares* an ``exit_code`` carries a distinct process exit
code used by ``python -m repro`` so CI failures are diagnosable from the
status alone; the service subclasses deliberately share
:class:`ServiceError`'s code and differ in ``http_status`` instead — over
HTTP the response status is the discriminator, and the process exits with
one well-known "service" code.  The taxonomy is documented (and tested
against) the exit-code tables in README.md and DESIGN.md.

This module is deliberately import-free so any layer of the package can
raise these without creating dependency cycles.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all deliberate simulator errors."""

    exit_code = 2


class ConfigError(ReproError, ValueError):
    """An invalid configuration value, with the offending field named.

    Subclasses :class:`ValueError` so existing callers that guard
    construction with ``except ValueError`` keep working.
    """

    exit_code = 3

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


class TopologyInvariantError(ReproError):
    """A slice grouping violates a structural topology invariant."""

    exit_code = 4

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


class FaultInjectedError(ReproError):
    """An injected fault left the machine unable to make progress."""

    exit_code = 5


class CheckpointError(ReproError):
    """A checkpoint could not be loaded, verified, or resumed from."""

    exit_code = 6


class WorkerCrashError(ReproError):
    """A sweep worker process died without raising a Python exception.

    Covers a worker that died mid-run (EOF on its pipe), one killed for
    overrunning its timeout, and a worker ``MemoryError``, so a
    crashed/OOM-killed worker surfaces as a typed, retryable simulator
    error instead of a raw traceback.
    """

    exit_code = 7


class SweepInterrupted(ReproError):
    """A supervised sweep stopped early on SIGINT/SIGTERM.

    Raised only *after* the supervisor has drained in-flight runs and
    flushed the run journal, so everything completed before the signal is
    on disk and resumable.  ``report`` carries the partial
    :class:`~repro.sim.supervisor.SweepReport` when one exists.
    """

    exit_code = 8

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class ServiceError(ReproError):
    """The simulation service refused or failed a request.

    Every service-side failure mode is a subclass carrying the HTTP status
    the server answers with (``http_status``); all of them share this
    class's process exit code, because a *service process* that dies of one
    of these always dies for the same operational reason ("the service
    layer, not the simulator") — the HTTP status is the fine-grained
    discriminator for clients.
    """

    exit_code = 9
    http_status = 500


class ServiceSaturatedError(ServiceError):
    """Admission control shed the request: the global queue is full.

    Raised *before* anything is enqueued or persisted, so a saturated
    service holds queue memory constant no matter how fast submissions
    arrive — the explicit 429 is the whole backpressure mechanism.
    """

    http_status = 429


class QuotaExceededError(ServiceError):
    """One tenant hit its own queued-jobs bound (the rest are unaffected)."""

    http_status = 429


class ServiceDrainingError(ServiceError):
    """The service is starting up or draining and not admitting jobs."""

    http_status = 503


class JobNotFoundError(ServiceError):
    """The requested job id is not in the service's registry."""

    http_status = 404


class JobTimeoutError(ServiceError):
    """The service watchdog killed a job that exceeded its wall-clock cap.

    This is the *job*-level watchdog layered above the supervisor's
    per-run ``run_timeout``: even a sweep whose individual runs all beat
    their timeouts is bounded in total.
    """

    http_status = 504


class PoolError(ReproError):
    """The shared worker pool failed.

    Like :class:`ServiceError`, this is a *family* code: every pool-side
    failure shares exit code 10 ("the pool layer, not the simulator"),
    and the subclass is the fine-grained discriminator in logs and
    ``error.json``.
    """

    exit_code = 10


class LeaseLostError(PoolError):
    """This worker's lease on a job was reclaimed by a peer.

    Raised by the fencing check that guards every durable journal/status
    write: a zombie worker (paused, wedged, or partitioned past its lease
    TTL) discovers on its next write that a peer holds a higher fence and
    aborts instead of corrupting the adopted job's state.  The job itself
    is unharmed — the adopter resumed it bit-identically from the fsync'd
    journal — so the only safe move for the zombie is to die with this
    distinct code.
    """


class PoolCorruptError(PoolError):
    """The pool directory is structurally unusable (torn ``pool.json``,
    foreign layout, or an unwritable claim/heartbeat area)."""


__all__ = [
    "CheckpointError",
    "ConfigError",
    "FaultInjectedError",
    "JobNotFoundError",
    "JobTimeoutError",
    "LeaseLostError",
    "PoolCorruptError",
    "PoolError",
    "QuotaExceededError",
    "ReproError",
    "ServiceDrainingError",
    "ServiceError",
    "ServiceSaturatedError",
    "SweepInterrupted",
    "TopologyInvariantError",
    "WorkerCrashError",
]
