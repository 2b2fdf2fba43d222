"""The simulation service: a stdlib-only asyncio HTTP front end.

``repro serve`` turns the supervised-sweep machinery into a long-lived,
multi-tenant service with one state machine: **the service schedules and
the shared worker pool executes.**  The state dir is a
:class:`~repro.serve.pool.SharedPool`; every job runs in a pool worker,
``--workers N`` of which the service spawns at its first admission (fresh
interpreters: the asyncio process is never forked).  External ``repro
worker`` processes on the same dir add capacity.  The service survives
anything a job does, and a watchdog kill is a process-tree kill.

Robustness model (DESIGN.md §10 has the full state machine):

- **Admission control** — submissions are validated, then either admitted
  (spec fsync'd into the pool *after* the queue's caps pass, so shedding
  never touches disk) or shed with an explicit typed 429/503.  Memory is
  bounded by the queue caps, period.
- **Weighted-fair scheduling** — :class:`~repro.serve.queue.FairQueue`
  stride scheduling across tenants, with per-tenant running caps.
  *Launching* a job publishes the queue's pick into the pool's claimable
  index, one per live worker; *reaping* is seeing its fenced
  ``status.json`` land.  Each service-owned worker shares a socket with
  the service: a byte on publish wakes an idle worker, a byte after each
  terminal status wakes the scheduler (``poll_interval`` is the backstop).
- **Watchdog and restart cap** — an overdue job's worker tree is
  SIGKILLed and the job failed under a fence the service takes over; a
  job whose holders died more than ``max_job_restarts`` times is failed
  too, and until then a peer adopts it from its journal.
- **Crash recovery** — on startup the state dir is rescanned
  (:mod:`repro.serve.recovery`); interrupted jobs resume from their
  fsync'd journals bit-identically, queued jobs keep their positions.
- **Graceful drain** — SIGTERM/SIGINT stops admissions (503), forwards
  SIGTERM to the workers (their supervisors drain in-flight runs, flush
  journals and release leases), then exits: code 8 if
  interrupted-but-resumable work remains, else 0.
- **Observability** — ``/healthz``, ``/readyz``, ``/metrics`` (the
  existing :mod:`repro.obs` registry), and per-job SSE progress streams
  fed from a :class:`~repro.obs.trace.TraceRecorder` ring buffer that
  tails the job's trace/journal files.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import REGISTRY
from repro.obs.trace import TraceRecorder
from repro.resilience.errors import (
    CheckpointError,
    ConfigError,
    JobNotFoundError,
    JobTimeoutError,
    ReproError,
    ServiceDrainingError,
    ServiceError,
    ServiceSaturatedError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.serve.jobs import (
    JOURNAL_FILE,
    Job,
    JobSpec,
    STATUS_FILE,
    read_json_tolerant,
    write_json_durable,
)
from repro.serve.lease import (
    LeaseHandle,
    LeaseState,
    acquire as acquire_lease,
    lapsed_fences,
    read_lease,
)
from repro.serve.pool import SharedPool
from repro.serve.queue import FairQueue, TenantQuota
from repro.serve.recovery import recover_state
from repro.sim.supervisor import SweepJournal, result_from_json

#: Written next to the state dir's jobs/ once the socket is bound, so
#: clients (and tests) can discover the actual port of a ``--port 0`` bind.
SERVE_INFO_FILE = "serve.json"

#: How the service starts a worker: a fresh interpreter, its socket to the
#: service on fd 0 (``repro.serve.pool.service_worker_main``).
_WORKER_MAIN = ("import sys\n"
                "from repro.serve.pool import service_worker_main\n"
                "sys.exit(service_worker_main(*sys.argv[1:]))\n")

#: Lease owner of the fences the service itself takes over.
_SERVICE_OWNER = "service"

_REASONS = {200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` is allowed to be configured with."""

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    """0 = OS-assigned; the bound port lands in ``serve.json``."""

    max_queued: int = 64
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    job_timeout: Optional[float] = None
    """Default per-job watchdog (seconds); a submission's ``max_seconds``
    overrides it.  ``None`` = unlimited unless the job asks."""

    max_job_restarts: int = 2
    """Worker deaths one job survives (a peer adopts it each time) before
    it is failed for good."""

    poll_interval: float = 0.05
    """The backstop of the scheduler and of idle service-owned workers
    (passes run on admission, worker wake-ups, drains and deadlines).
    SSE progress streams poll their job's files every two intervals."""

    max_body_bytes: int = 1 << 20
    ring_size: int = 4096
    """Per-job SSE ring buffer capacity (oldest records drop first)."""

    drain_grace: float = 10.0
    """Seconds a draining service waits for SIGTERM'd workers to
    checkpoint and exit before escalating to SIGKILL (journals stay
    resumable)."""

    workers: int = 2
    """Pool workers spawned at the first admission, one job each; external
    ``repro worker`` processes add capacity (0 = only they run jobs)."""

    worker_heartbeat: float = 1.0
    """Pool lease heartbeat interval (only used when creating the pool)."""

    worker_misses: int = 3
    """Missed heartbeats before a pool lease is reclaimable."""

    worker_restarts: int = 3
    """Respawns granted to each worker slot before it is left down."""

    def __post_init__(self) -> None:
        if not self.state_dir:
            raise ConfigError("state_dir", "required")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ConfigError("job_timeout",
                              f"must be > 0, got {self.job_timeout}")
        if self.drain_grace <= 0:
            raise ConfigError("drain_grace",
                              f"must be > 0, got {self.drain_grace}")
        if self.max_job_restarts < 0:
            raise ConfigError("max_job_restarts",
                              f"must be >= 0, got {self.max_job_restarts}")
        if self.poll_interval <= 0:
            raise ConfigError("poll_interval",
                              f"must be > 0, got {self.poll_interval}")
        if self.workers < 0:
            raise ConfigError("workers",
                              f"must be >= 0, got {self.workers}")
        if self.worker_heartbeat <= 0:
            raise ConfigError("worker_heartbeat",
                              f"must be > 0, got {self.worker_heartbeat}")
        if self.worker_misses < 1:
            raise ConfigError("worker_misses",
                              f"must be >= 1, got {self.worker_misses}")
        if self.worker_restarts < 0:
            raise ConfigError("worker_restarts",
                              f"must be >= 0, got {self.worker_restarts}")


class _Request:
    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: Dict[str, str],
                 body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _kill_job_tree(process) -> None:
    """SIGKILL a process *and* every descendant it started.

    A worker runs a ``jobs > 1`` sweep through a pool of processes it
    forked, so killing only the worker would orphan them — and an idle pool
    process blocks in its call-queue read forever (it holds its own write
    end of that pipe, so EOF never comes).  The forked processes also carry a
    parent-death SIGKILL, but that covers only the worker's direct
    children.  Descendants are discovered via ``/proc``; the walk is racy
    by nature and every miss dies with its process group at service
    shutdown anyway.
    """
    children: Dict[int, List[int]] = {}
    try:
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
                # Fields resume after the parenthesised comm: state, ppid.
                ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    except OSError:
        children = {}
    doomed, frontier = [], [process.pid]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            doomed.append(child)
            frontier.append(child)
    for pid in doomed:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    try:
        process.kill()
    except (OSError, ValueError):
        pass


async def _read_request(reader: asyncio.StreamReader,
                        max_body: int) -> Optional[_Request]:
    """Parse one bounded HTTP/1.x request; ``None`` on a closed socket."""
    line = await asyncio.wait_for(reader.readline(), timeout=30.0)
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _HttpError(400, "malformed request line")
    headers: Dict[str, str] = {}
    while True:
        if len(headers) > 100:
            raise _HttpError(400, "too many headers")
        raw = await asyncio.wait_for(reader.readline(), timeout=30.0)
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(raw) > 8192:
            raise _HttpError(400, "header line too long")
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "bad Content-Length")
    if length < 0:
        raise _HttpError(400, "bad Content-Length")
    if length > max_body:
        raise _HttpError(413, f"body exceeds {max_body} bytes")
    body = await asyncio.wait_for(reader.readexactly(length),
                                  timeout=60.0) if length else b""
    path = target.split("?", 1)[0]
    return _Request(method.upper(), path, headers, body)


def _response_bytes(status: int, payload: bytes, content_type: str,
                    extra: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(payload)}",
             "Connection: close"]
    lines.extend(f"{name}: {value}" for name, value in extra)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def _json_response(status: int, payload: Any,
                   extra: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _response_bytes(status, body, "application/json", extra)


def _error_payload(exc: BaseException) -> Dict[str, Any]:
    out: Dict[str, Any] = {"error": {"type": type(exc).__name__,
                                     "message": str(exc)}}
    if isinstance(exc, ReproError):
        out["error"]["exit_code"] = exc.exit_code
    return out


class JobEventStream:
    """A job's live progress feed, fed from its trace/journal files.

    A tailer task polls the job directory's JSONL files (the per-run
    epoch traces and the sweep journal — both are appended durably by the
    *pool worker*, so this works across the process boundary and even
    across a service restart) and emits each new record into a
    :class:`~repro.obs.trace.TraceRecorder` ring buffer.  SSE handlers
    consume the ring through (:attr:`emitted`, :meth:`since`): a slow
    client skips ahead rather than growing memory.
    """

    def __init__(self, job: Job, ring_size: int,
                 poll_interval: float) -> None:
        self.job = job
        self.recorder = TraceRecorder(path=None, ring_size=ring_size)
        self.emitted = 0
        self.closed = False
        self.poll_interval = poll_interval
        self.wakeup = asyncio.Event()
        self._offsets: Dict[str, int] = {}
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._tail())

    def push(self, record: Dict[str, Any]) -> None:
        kind = record.pop("kind", "event")
        self.recorder.emit(kind, **record)
        self.emitted += 1
        self.wakeup.set()

    def since(self, cursor: int) -> Tuple[List[dict], int]:
        """Records after ``cursor``; skips any the ring already dropped."""
        available = list(self.recorder.ring)
        start = self.emitted - len(available)
        if cursor < start:
            cursor = start
        return available[cursor - start:], self.emitted

    def _scan_files(self) -> int:
        """Read newly appended complete lines; returns records pushed."""
        pushed = 0
        for path in sorted(self.job.job_dir.glob("*.jsonl")):
            offset = self._offsets.get(path.name, 0)
            try:
                size = path.stat().st_size
                if size <= offset:
                    continue
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue
            # Only consume whole lines; a torn tail is re-read next scan.
            complete, newline, _rest = chunk.rpartition(b"\n")
            if not newline:
                continue
            self._offsets[path.name] = offset + len(complete) + 1
            for line in complete.split(b"\n"):
                line = line.decode("utf-8", "replace").strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                record.setdefault("kind", "event")
                record["stream"] = path.stem
                # Full results are fetched via /jobs/<id>/result; the
                # progress stream only needs the run-finished envelope.
                record.pop("result", None)
                self.push(record)
                pushed += 1
        return pushed

    async def _tail(self) -> None:
        quiet_final_scans = 0
        while True:
            self._scan_files()
            if self.job.terminal or self.job.state == "interrupted":
                # One extra scan after the terminal transition so records
                # written during finalization are not lost.
                quiet_final_scans += 1
                if quiet_final_scans >= 2:
                    break
            await asyncio.sleep(self.poll_interval)
        self.push({"kind": "job-status", "state": self.job.state})
        self.closed = True
        self.wakeup.set()

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()


class _Worker:
    """One service-owned pool worker: its process and its wake socket."""

    def __init__(self, slot: int, proc: subprocess.Popen,
                 channel: socket.socket) -> None:
        self.slot = slot
        self.id = f"svc-{slot}"
        self.proc = proc
        self.channel = channel

    def alive(self) -> bool:
        return self.proc.poll() is None


class SimulationService:
    """The service core: registry, queue, scheduler, HTTP handlers."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state = "starting"  # -> ready -> draining -> stopped
        self.state_dir = pathlib.Path(config.state_dir)
        self.jobs: Dict[str, Job] = {}
        self._terminal_bodies: Dict[str, bytes] = {}
        self.queue = FairQueue(max_queued=config.max_queued,
                               default_quota=config.default_quota,
                               quotas=config.quotas)
        self._launched: Dict[str, Job] = {}  # published, not yet terminal
        self._streams: Dict[str, JobEventStream] = {}
        self._dispatch_counter = 0
        self._drained_interrupted = False
        self._drain_started: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._wake: Optional[asyncio.Event] = None
        self._pool: Optional[SharedPool] = None
        self._spawned = False
        # A slot is None before the first spawn and once it is left down.
        self._workers: List[Optional[_Worker]] = [None] * config.workers
        self._respawns = [0] * config.workers

    # -- metrics -------------------------------------------------------------

    def _metric_jobs(self):
        return REGISTRY.counter("repro_serve_jobs_total",
                                "Jobs reaching a final disposition, by status",
                                labels=("status",))

    def _metric_shed(self):
        return REGISTRY.counter("repro_serve_shed_total",
                                "Submissions shed by admission control",
                                labels=("reason",))

    def _update_gauges(self) -> None:
        REGISTRY.gauge("repro_serve_queue_depth",
                       "Jobs currently queued across all tenants"
                       ).set(self.queue.depth)
        REGISTRY.gauge("repro_serve_running_jobs",
                       "Jobs published to the pool and not yet terminal"
                       ).set(len(self._launched))
        REGISTRY.gauge("repro_serve_pool_workers",
                       "Service-owned pool worker processes currently alive"
                       ).set(len(self._alive_workers()))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._pool = SharedPool.ensure(
            self.state_dir, heartbeat=self.config.worker_heartbeat,
            misses=self.config.worker_misses)
        REGISTRY.enable()
        # Register the full metric set up front so /metrics exposes every
        # series name from the first scrape, not only after first use.
        self._metric_jobs()
        self._metric_shed()
        REGISTRY.counter("repro_serve_submissions_total",
                         "Jobs admitted into the queue")
        REGISTRY.histogram("repro_serve_job_seconds",
                           "Wall clock of finished jobs")
        self._update_gauges()
        self._stopped = asyncio.Event()
        self._wake = asyncio.Event()

        recovery = recover_state(self.state_dir)
        # Whatever an earlier run published, the fair queue decides anew.
        for job_id_str in self._pool.published():
            self._pool.withdraw(job_id_str)
        for entry in recovery.jobs:  # seq order: queue positions survive
            job = entry.job
            self.jobs[job.id] = job
            if entry.phase in ("queued", "interrupted"):
                self.queue.restore(job)
        REGISTRY.counter("repro_serve_recovered_jobs_total",
                         "Jobs recovered from the state dir at startup, "
                         "by phase", labels=("phase",))
        for entry in recovery.jobs:
            REGISTRY.get("repro_serve_recovered_jobs_total") \
                    .labels(phase=entry.phase).inc()

        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        write_json_durable(self.state_dir / SERVE_INFO_FILE,
                           {"host": self.host, "port": self.port,
                            "pid": os.getpid()})
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self._scheduler())
        self.state = "ready"

    async def serve_forever(self) -> int:
        """Run until a drain completes; returns the process exit code."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.begin_drain, signal.Signals(signum).name)
            except (NotImplementedError, RuntimeError):
                pass
        await self._stopped.wait()
        await self._shutdown()
        return SweepInterrupted.exit_code if self._drained_interrupted else 0

    def begin_drain(self, reason: str = "signal") -> None:
        """Stop admitting, SIGTERM the workers, exit when they are gone."""
        if self.state in ("draining", "stopped"):
            return
        self.state = "draining"
        alive = self._alive_workers()
        print(f"draining on {reason}: admissions stopped, "
              f"{len(alive)} pool worker(s) signalled",
              file=sys.stderr, flush=True)
        for worker in alive:
            try:
                worker.proc.terminate()
            except OSError:
                pass
        self._wake.set()

    async def _shutdown(self) -> None:
        for worker in self._workers:
            if worker is None:
                continue
            if worker.alive():
                _kill_job_tree(worker.proc)
            try:
                worker.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
            self._close_channel(worker)
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        for stream in self._streams.values():
            stream.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.state = "stopped"

    # -- the scheduler -------------------------------------------------------

    async def _scheduler(self) -> None:
        """Dispatch loop.

        A pass runs when :attr:`_wake` is set (admission, a worker's byte
        after a terminal status, a worker's exit, the start of a drain)
        or when the nearest watchdog deadline or drain escalation falls
        due, and at least every ``poll_interval`` as a backstop.  Each
        pass reaps before it publishes, so a freed slot is refilled in
        the same pass.
        """
        while True:
            self._wake.clear()
            try:
                self._reap_workers()
                self._observe()
                self._fire_watchdogs()
                if self.state == "ready":
                    self._publish_ready()
                self._update_gauges()
                if self.state == "draining" and self._drained():
                    self._stopped.set()
                    return
            except Exception as exc:  # keep the scheduler alive, always
                print(f"scheduler error: {type(exc).__name__}: {exc}",
                      file=sys.stderr, flush=True)
            try:
                await asyncio.wait_for(self._wake.wait(),
                                       timeout=self._until_due())
            except asyncio.TimeoutError:
                pass

    def _until_due(self) -> float:
        """Seconds until the nearest watchdog deadline or the pending
        drain escalation, capped at ``poll_interval``."""
        now = asyncio.get_running_loop().time()
        due = [job.deadline for job in self._launched.values()
               if job.deadline is not None]
        if self._drain_started is not None:
            escalate = self._drain_started + self.config.drain_grace
            if escalate > now:  # once escalated, worker exits wake a pass
                due.append(escalate)
        if not due:
            return self.config.poll_interval
        return min(self.config.poll_interval, max(min(due) - now, 0.0))

    def _publish_ready(self) -> None:
        """Publish the fair queue's picks, one per live worker.

        External workers are counted (from their pool heartbeats) only
        when the service's own slots are all taken.
        """
        if not self.queue.depth:
            return
        capacity = (self.config.workers if not self._spawned
                    else sum(1 for w in self._workers if w is not None))
        if len(self._launched) >= capacity:
            capacity += self._external_workers()
        published = False
        while len(self._launched) < capacity:
            job = self.queue.next_runnable()
            if job is None:
                break
            self._launch(job)
            published = True
        if published:
            self._wake_workers()

    def _launch(self, job: Job) -> None:
        if not self._spawned:
            self._spawned = True
            for slot in range(self.config.workers):
                self._spawn_worker(slot)
        self._dispatch_counter += 1
        job.state = "running"
        job.started_order = self._dispatch_counter
        cap = self._job_cap(job)
        job.deadline = (asyncio.get_running_loop().time() + cap
                        if cap is not None else None)
        self._pool.publish(job, job.started_order)
        self._launched[job.id] = job
        self._stream_for(job).start()

    def _job_cap(self, job: Job) -> Optional[float]:
        return (job.spec.max_seconds if job.spec.max_seconds is not None
                else self.config.job_timeout)

    def _external_workers(self) -> int:
        """Workers this service did not spawn, with a heartbeat inside the
        pool's lease TTL."""
        ttl = self._pool.config.ttl
        return sum(1 for beat in self._pool.worker_heartbeats()
                   if not str(beat.get("worker", "")).startswith("svc-")
                   and beat["age"] <= ttl)

    def _observe(self) -> None:
        """Reap terminal jobs and hand on the jobs of dead holders."""
        ttl = self._pool.config.ttl
        for job in list(self._launched.values()):
            status = read_json_tolerant(job.job_dir / STATUS_FILE)
            if status is not None:
                self._finish(job, status)
                continue
            lease = read_lease(job.job_dir)
            job.lease = lease.to_json() if lease is not None else None
            if (lease is not None and lease.expired(ttl)
                    and self.state == "ready"):
                self._holder_died(job, lease)

    def _finish(self, job: Job, status: Dict[str, Any],
                label: Optional[str] = None) -> None:
        """A fenced terminal status landed: free the job's slot."""
        del self._launched[job.id]
        self.queue.release(job.tenant)
        self._pool.withdraw(job.id)
        job.apply_status(status)
        self._metric_jobs().labels(status=label or job.state).inc()
        if job.state in ("done", "partial") and "total" in (job.latency
                                                             or {}):
            REGISTRY.histogram("repro_serve_job_seconds",
                               "Wall clock of finished jobs"
                               ).observe(job.latency["total"])

    def _take_over(self, job: Job,
                   steal: Optional[int] = None) -> Optional[LeaseHandle]:
        """Claim ``job``'s next fence for the service, over the live fence
        ``steal`` if given; ``None`` if a worker holds it or it already
        ended (the next pass sees which)."""
        handle = acquire_lease(job.job_dir, _SERVICE_OWNER,
                               self._pool.config.ttl, steal=steal)
        if (handle is not None
                and read_json_tolerant(job.job_dir / STATUS_FILE) is not None):
            handle.release()
            return None
        return handle

    def _fail(self, job: Job, handle: LeaseHandle, exc: ReproError,
              label: str) -> None:
        """Fail ``job`` with a status fenced by the service's own lease."""
        job.state = "failed"
        job.error = {"type": type(exc).__name__, "message": str(exc)}
        status = job.status_payload()
        status["lease"] = handle.token
        status["worker"] = _SERVICE_OWNER
        write_json_durable(job.job_dir / STATUS_FILE, status)
        handle.release()
        self._finish(job, status, label)

    def _holder_died(self, job: Job, lease: LeaseState) -> None:
        """The worker holding ``job`` died: past the restart cap the job
        fails, else its lease is released so a peer adopts it now."""
        handle = self._take_over(job, steal=lease.fence)
        if handle is None:
            return
        job.restarts = lapsed_fences(job.job_dir)
        cap = self.config.max_job_restarts
        if job.restarts > cap:
            self._fail(job, handle, WorkerCrashError(
                f"the worker holding job {job.id} died {job.restarts} "
                f"time(s), more than max_job_restarts={cap}; giving up"),
                "crashed")
            return
        handle.release()
        self._metric_jobs().labels(status="restarted").inc()
        self._wake_workers()

    def _fire_watchdogs(self) -> None:
        now = asyncio.get_running_loop().time()
        ttl = self._pool.config.ttl
        for job in list(self._launched.values()):
            if job.deadline is None or now < job.deadline:
                continue
            lease = read_lease(job.job_dir)
            live = (lease is not None and not lease.released
                    and not lease.expired(ttl))
            worker = next((w for w in self._alive_workers()
                           if live and w.id == lease.owner), None)
            if worker is not None:
                # Killed by the watchdog, not crashed: the slot's restart
                # budget is not charged.
                _kill_job_tree(worker.proc)
                worker.proc.wait(timeout=5.0)
                self._close_channel(worker)
                self._workers[worker.slot] = None
                if self.state == "ready":
                    self._spawn_worker(worker.slot)
            # An external holder is fenced out: its next write fails.
            handle = self._take_over(job, lease.fence if live else None)
            if handle is None:
                continue
            self._fail(job, handle, JobTimeoutError(
                f"job {job.id} exceeded its {self._job_cap(job):g}s "
                "wall-clock watchdog and was killed; its journal is kept "
                "for post-mortems"), "timeout")

    def _drained(self) -> bool:
        """Draining is done when every worker process has exited."""
        now = asyncio.get_running_loop().time()
        if self._drain_started is None:
            self._drain_started = now
        alive = self._alive_workers()
        if alive:
            if now >= self._drain_started + self.config.drain_grace:
                for worker in alive:  # SIGTERM went unanswered: escalate
                    _kill_job_tree(worker.proc)
            return False
        for job in self._launched.values():
            # Started-but-unfinished work is resumable (exit 8);
            # never-started jobs keep their queue positions.
            if (job.job_dir / JOURNAL_FILE).exists():
                job.state = "interrupted"
                self._drained_interrupted = True
                self._metric_jobs().labels(status="interrupted").inc()
        return True

    # -- the service's own workers -------------------------------------------

    def _spawn_worker(self, slot: int) -> None:
        """Start the slot's worker with a socket to the service on fd 0.

        Deliberately *not* a new session/process group: tests (and
        operators) that signal the service's group reach the workers too,
        and an orphaned worker dies with its parent's group.
        """
        ours, theirs = socket.socketpair()
        with theirs:
            proc = subprocess.Popen(
                [sys.executable, "-c", _WORKER_MAIN, str(self.state_dir),
                 f"svc-{slot}", repr(self.config.poll_interval)],
                stdin=theirs)
        ours.setblocking(False)
        worker = self._workers[slot] = _Worker(slot, proc, ours)
        asyncio.get_running_loop().add_reader(
            ours.fileno(), self._worker_signalled, worker)

    def _worker_signalled(self, worker: _Worker) -> None:
        """A byte (a terminal status landed) or EOF (the worker exited)."""
        try:
            data = worker.channel.recv(4096)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            asyncio.get_running_loop().remove_reader(worker.channel.fileno())
            # The kernel closes an exiting process's files before its exit
            # status can be collected: wait out that instant, or the pass
            # this wakes would still see the worker alive.
            try:
                worker.proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                pass
        self._wake.set()

    def _close_channel(self, worker: _Worker) -> None:
        if worker.channel.fileno() >= 0:
            asyncio.get_running_loop().remove_reader(worker.channel.fileno())
            worker.channel.close()

    def _wake_workers(self) -> None:
        for worker in self._workers:
            if worker is not None:
                try:
                    worker.channel.send(b"\0")
                except OSError:
                    pass  # a wake is already pending, or it exited

    def _alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers if w is not None and w.alive()]

    def _reap_workers(self) -> None:
        for slot, worker in enumerate(self._workers):
            if worker is None or worker.alive():
                continue
            self._close_channel(worker)
            self._workers[slot] = None
            if self.state != "ready":
                continue
            for job in list(self._launched.values()):
                lease = read_lease(job.job_dir)
                if (lease is not None and not lease.released
                        and lease.owner == worker.id):
                    self._holder_died(job, lease)
            if self._respawns[slot] >= self.config.worker_restarts:
                print(f"pool worker {worker.id} exited "
                      f"{worker.proc.returncode}; its restarts are spent, "
                      "leaving the slot down", file=sys.stderr, flush=True)
                continue
            self._respawns[slot] += 1
            print(f"pool worker {worker.id} exited "
                  f"{worker.proc.returncode}; respawning "
                  f"({self._respawns[slot]}/{self.config.worker_restarts})",
                  file=sys.stderr, flush=True)
            self._spawn_worker(slot)

    # -- job admission and lookup -------------------------------------------

    def submit(self, payload: Any) -> Job:
        if self.state != "ready":
            self._metric_shed().labels(reason="draining").inc()
            raise ServiceDrainingError(
                f"service is {self.state}; not admitting jobs")
        spec = JobSpec.from_payload(payload)
        try:
            self.queue.admission_check(spec.tenant)
        except ServiceSaturatedError:
            self._metric_shed().labels(reason="saturated").inc()
            raise
        except ServiceError:
            self._metric_shed().labels(reason="quota").inc()
            raise
        # Admitted: now (and only now) it becomes durable, unpublished
        # until the scheduler picks it.
        job = self._pool.admit(spec, publish=False)
        self.queue.restore(job)  # caps already checked
        self.jobs[job.id] = job
        REGISTRY.counter("repro_serve_submissions_total",
                         "Jobs admitted into the queue").inc()
        self._wake.set()
        return job

    def _get_job(self, job_id_str: str) -> Job:
        job = self.jobs.get(job_id_str)
        if job is None:
            raise JobNotFoundError(f"no job {job_id_str!r}")
        return job

    def _stream_for(self, job: Job) -> JobEventStream:
        stream = self._streams.get(job.id)
        if stream is None or stream.closed:
            stream = JobEventStream(job, self.config.ring_size,
                                    self.config.poll_interval * 2)
            self._streams[job.id] = stream
        return stream

    def _status_body(self, job: Job, position: Optional[int]) -> bytes:
        """A job's status as JSON, with its queue position when queued.

        ``GET /jobs`` lists every job ever admitted and clients poll it,
        so a terminal job's body, which can no longer change, is encoded
        once and reused.
        """
        body = self._terminal_bodies.get(job.id)
        if body is None:
            payload = job.status_payload()
            if position is not None:
                payload["position"] = position
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            if job.terminal:
                self._terminal_bodies[job.id] = body
        return body

    def _job_results(self, job: Job) -> Dict[str, Any]:
        runs: List[Dict[str, Any]] = []
        try:
            records = SweepJournal.load_completed(
                job.journal_path, job.spec.journal_keys(job.job_dir))
        except CheckpointError:
            records = {}
        for index in sorted(records):
            record = records[index]
            result = result_from_json(record["result"])
            runs.append({
                "index": index,
                "scheme": job.spec.schemes[index],
                "attempts": record.get("attempts"),
                "elapsed": record.get("elapsed"),
                "mean_throughput": result.mean_throughput,
                "result": record["result"],
            })
        return {"job": job.status_payload(), "runs": runs}

    # -- HTTP ----------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await _read_request(reader,
                                              self.config.max_body_bytes)
            except _HttpError as exc:
                writer.write(_json_response(
                    exc.status, {"error": {"type": "HttpError",
                                           "message": str(exc)}}))
                await writer.drain()
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return
            if request is None:
                return
            await self._dispatch(request, writer)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # no request may kill the server
            try:
                writer.write(_json_response(500, _error_payload(exc)))
                await writer.drain()
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request: _Request,
                        writer: asyncio.StreamWriter) -> None:
        parts = [p for p in request.path.split("/") if p]
        try:
            response = await self._route(request, parts, writer)
        except ReproError as exc:
            status = getattr(exc, "http_status", None)
            if status is None:
                status = 400 if isinstance(exc, ConfigError) else 500
            extra = ((("Retry-After", "1"),) if status == 429 else ())
            response = _json_response(status, _error_payload(exc), extra)
        if response is not None:
            writer.write(response)
            await writer.drain()

    async def _route(self, request: _Request, parts: List[str],
                     writer: asyncio.StreamWriter) -> Optional[bytes]:
        method = request.method
        if not parts:
            return _json_response(200, {"service": "repro.serve",
                                        "state": self.state})
        if parts == ["healthz"]:
            return _json_response(200, {"status": "ok", "state": self.state})
        if parts == ["readyz"]:
            ready = self.state == "ready"
            return _json_response(200 if ready else 503,
                                  {"ready": ready, "state": self.state})
        if parts == ["metrics"]:
            return _response_bytes(200, REGISTRY.expose_text().encode(),
                                   "text/plain; version=0.0.4")
        if parts == ["queue"]:
            return _json_response(200, self.queue.snapshot())
        if parts == ["jobs"] and method == "POST":
            try:
                payload = json.loads(request.body.decode("utf-8") or "null")
            except ValueError:
                raise ConfigError("body", "submission must be valid JSON")
            job = self.submit(payload)
            return _json_response(
                201, {"job": job.status_payload(),
                      "position": self.queue.position(job.id)})
        if parts == ["jobs"] and method == "GET":
            positions = self.queue.positions()
            bodies = [self._status_body(self.jobs[jid], positions.get(jid))
                      for jid in sorted(self.jobs)]
            return _response_bytes(
                200, b'{"jobs": [' + b", ".join(bodies) + b"]}",
                "application/json")
        if len(parts) == 2 and parts[0] == "jobs":
            job = self._get_job(parts[1])
            if method == "GET":
                return _response_bytes(
                    200, self._status_body(job, self.queue.position(job.id)),
                    "application/json")
            if method == "DELETE":
                return self._cancel(job)
        if len(parts) == 3 and parts[0] == "jobs" and method == "GET":
            job = self._get_job(parts[1])
            if parts[2] == "result":
                return _json_response(200, self._job_results(job))
            if parts[2] == "events":
                await self._serve_events(job, writer)
                return None
        return _json_response(404 if method in ("GET", "POST", "DELETE")
                              else 405,
                              {"error": {"type": "HttpError",
                                         "message": f"no route for {method} "
                                                    f"{request.path}"}})

    def _cancel(self, job: Job) -> bytes:
        # A queued job is unpublished, so no worker can claim it.
        if job.state == "queued" and self.queue.cancel(job.id) is not None:
            job.state = "cancelled"
            job.write_status()
            self._metric_jobs().labels(status="cancelled").inc()
            return _json_response(200, job.status_payload())
        if job.state == "running":
            return _json_response(
                409, {"error": {"type": "ServiceError",
                                "message": "job is running; wait for it or "
                                           "drain the service"}})
        return _json_response(200, job.status_payload())

    async def _serve_events(self, job: Job,
                            writer: asyncio.StreamWriter) -> None:
        """Stream a job's progress as Server-Sent Events until terminal."""
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1"))
        stream = self._stream_for(job)
        stream.start()
        writer.write(_sse_event("job-status", job.status_payload()))
        await writer.drain()
        cursor = max(0, stream.emitted - len(stream.recorder.ring))
        while True:
            records, cursor = stream.since(cursor)
            for record in records:
                kind = record.get("kind", "event")
                writer.write(_sse_event(kind, record))
            if records:
                await writer.drain()
            if stream.closed and cursor >= stream.emitted:
                writer.write(_sse_event("end",
                                        {"state": job.state}))
                await writer.drain()
                return
            stream.wakeup.clear()
            try:
                await asyncio.wait_for(stream.wakeup.wait(), timeout=15.0)
            except asyncio.TimeoutError:
                writer.write(b": keepalive\n\n")
                await writer.drain()


def _sse_event(event: str, payload: Any) -> bytes:
    data = json.dumps(payload, sort_keys=True)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


async def _amain(config: ServiceConfig) -> int:
    service = SimulationService(config)
    return await service.serve_forever()


def run_service(config: ServiceConfig) -> int:
    """Run the service until it drains; returns the process exit code."""
    return asyncio.run(_amain(config))


__all__ = [
    "SERVE_INFO_FILE",
    "ServiceConfig",
    "SimulationService",
    "JobEventStream",
    "run_service",
]
