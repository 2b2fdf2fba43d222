"""The simulation service: a stdlib-only asyncio HTTP front end.

``repro serve`` turns the supervised-sweep machinery into a long-lived,
multi-tenant service.  One process, one event loop, zero new runtime
dependencies: the HTTP layer is a small hand-rolled parser over
``asyncio.start_server`` (bounded request sizes, one request per
connection), and every simulation executes in a child process forked from
a preloaded *forkserver* so the service survives anything a job does — and
a watchdog SIGKILL of a job is just a process kill, never a wedged thread.
The forkserver is a fresh single-threaded interpreter that has imported
the simulator once (:data:`JOB_PRELOAD`); it starts at the first job
launch, and each job child forks from it warm instead of spawning and
re-importing.  The service itself is never forked: a fork of the asyncio
process would inherit its signal wakeup fd and listening socket.

Robustness model (DESIGN.md §10 has the full state machine):

- **Admission control** — submissions are validated, then either admitted
  (spec fsync'd to the state dir *after* the queue accepts, so shedding
  never touches disk) or shed with an explicit typed 429/503.  Memory is
  bounded by the queue caps, period.
- **Weighted-fair scheduling** — :class:`~repro.serve.queue.FairQueue`
  stride scheduling across tenants; no tenant can starve another.
- **Watchdog** — each job gets a wall-clock cap layered above the
  supervisor's per-run timeouts; overdue jobs are SIGKILLed and failed.
- **Crash recovery** — on startup the state dir is rescanned
  (:mod:`repro.serve.recovery`); interrupted jobs resume from their
  fsync'd journals bit-identically, queued jobs keep their positions.
- **Graceful drain** — SIGTERM/SIGINT stops admissions (503), forwards
  SIGTERM to running jobs (their supervisors drain in-flight runs and
  flush journals, the existing exit-8 semantics), then exits: code 8 if
  interrupted-but-resumable work remains, else 0.
- **Observability** — ``/healthz``, ``/readyz``, ``/metrics`` (the
  existing :mod:`repro.obs` registry), and per-job SSE progress streams
  fed from a :class:`~repro.obs.trace.TraceRecorder` ring buffer that
  tails the job's trace/journal files.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import pathlib
import signal
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
)
from repro.serve.jobs import (
    ERROR_FILE,
    JOURNAL_FILE,
    Job,
    JobSpec,
    SPEC_FILE,
    STATUS_FILE,
    job_id,
    job_process_main,
    read_json,
    read_json_tolerant,
    spec_record,
    write_json_durable,
)
from repro.serve.lease import acquire as acquire_lease, read_lease
from repro.serve.pool import SharedPool
from repro.serve.queue import FairQueue, TenantQuota
from repro.serve.recovery import recover_state
from repro.sim.parallel import SIMULATION_MODULES
from repro.sim.supervisor import SweepJournal, result_from_json

#: Modules the job forkserver imports once, so job children fork with
#: them loaded: ``job_process_main`` and everything ``_run_spec`` reaches.
#: The service process itself never imports the simulator: admission,
#: journal keys and result summaries use numpy-free modules only.
JOB_PRELOAD = ("repro.serve.jobs", "repro.sim.supervisor",
               *SIMULATION_MODULES)

#: Written next to the state dir's jobs/ once the socket is bound, so
#: clients (and tests) can discover the actual port of a ``--port 0`` bind.
SERVE_INFO_FILE = "serve.json"

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

    max_concurrent_jobs: int = 2
    max_queued: int = 64
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    job_timeout: Optional[float] = None
    """Default per-job watchdog (seconds); a submission's ``max_seconds``
    overrides it.  ``None`` = unlimited unless the job asks."""

    max_job_restarts: int = 2
    """Crash-restarts granted to one job before it is failed for good."""

    poll_interval: float = 0.05
    """Process mode: the scheduler's backstop (passes run on admission,
    job exits, drains and deadlines).  Pool mode: the observation tick.
    SSE progress streams poll their job's files every two intervals."""

    max_body_bytes: int = 1 << 20
    ring_size: int = 4096
    """Per-job SSE ring buffer capacity (oldest records drop first)."""

    drain_grace: float = 10.0
    """Seconds a draining service waits for SIGTERM'd jobs to checkpoint
    and exit before escalating to SIGKILL (journals stay resumable)."""

    workers: int = 0
    """Horizontal pool mode: spawn this many ``repro worker`` processes
    against the state dir instead of running jobs in service-owned
    children.  The state dir doubles as the shared pool, so external
    workers (other hosts on the same filesystem) can join the same pool
    and the service keeps serving HTTP/SSE for every job either way."""

    worker_heartbeat: float = 1.0
    """Pool lease heartbeat interval (only used when creating the pool)."""

    worker_misses: int = 3
    """Missed heartbeats before a pool lease is reclaimable."""

    worker_restarts: int = 3
    """Respawns granted to each worker slot before it is left down."""

    def __post_init__(self) -> None:
        if not self.state_dir:
            raise ConfigError("state_dir", "required")
        if self.max_concurrent_jobs < 1:
            raise ConfigError("max_concurrent_jobs",
                              f"must be >= 1, got {self.max_concurrent_jobs}")
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

    A job child runs its sweep through a pool of workers it forked, so
    killing only the child would orphan them — and an idle pool worker
    blocks in its call-queue read forever (it holds its own write end of
    that pipe, so EOF never comes).  The forked workers also carry a
    parent-death SIGKILL, but that covers only the child's direct
    children.  Descendants are discovered via ``/proc``; the walk is racy
    by nature and every miss dies with its process group at service
    shutdown anyway.  A job child is the forkserver's child, not the
    service's, so the walk starts from the job itself.
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
    *job process*, so this works across the process boundary and even
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
        self._running: Dict[str, Job] = {}
        self._streams: Dict[str, JobEventStream] = {}
        self._seq = 1
        self._dispatch_counter = 0
        self._drained_interrupted = False
        self._drain_started: Optional[float] = None
        # Job children fork from a preloaded forkserver (see the module
        # docstring); it starts lazily at the first Process.start().
        self._mp = multiprocessing.get_context("forkserver")
        self._mp.set_forkserver_preload(list(JOB_PRELOAD))
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._wake: Optional[asyncio.Event] = None
        self._pool: Optional[SharedPool] = None
        self._worker_procs: List[Optional[subprocess.Popen]] = []
        self._worker_respawns: List[int] = []

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
        running = (sum(1 for job in self.jobs.values()
                       if job.state == "running")
                   if self._pool is not None else len(self._running))
        REGISTRY.gauge("repro_serve_running_jobs",
                       "Job processes currently executing").set(running)
        if self._pool is not None:
            REGISTRY.gauge(
                "repro_serve_pool_workers",
                "Service-owned pool worker processes currently alive"
                ).set(sum(1 for proc in self._worker_procs
                          if proc is not None and proc.poll() is None))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self.config.workers > 0:
            self._pool = SharedPool.ensure(
                self.state_dir, heartbeat=self.config.worker_heartbeat,
                misses=self.config.worker_misses)
        else:
            (self.state_dir / "jobs").mkdir(parents=True, exist_ok=True)
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
        self._seq = recovery.next_seq
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
        if self._pool is not None:
            self._worker_procs = [None] * self.config.workers
            self._worker_respawns = [0] * self.config.workers
            for slot in range(self.config.workers):
                self._spawn_worker(slot)
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
        """Stop admitting, SIGTERM running jobs, exit when they land."""
        if self.state in ("draining", "stopped"):
            return
        self.state = "draining"
        if self._pool is not None:
            alive = [proc for proc in self._worker_procs
                     if proc is not None and proc.poll() is None]
            print(f"draining on {reason}: admissions stopped, "
                  f"{len(alive)} pool worker(s) signalled",
                  file=sys.stderr, flush=True)
            for proc in alive:
                try:
                    proc.terminate()
                except OSError:
                    pass
            return
        print(f"draining on {reason}: admissions stopped, "
              f"{len(self._running)} running job(s) signalled",
              file=sys.stderr, flush=True)
        for job in self._running.values():
            if job.process is not None and job.process.is_alive():
                job.process.terminate()
        self._wake.set()

    async def _shutdown(self) -> None:
        for proc in self._worker_procs:
            if proc is None:
                continue
            if proc.poll() is None:
                _kill_job_tree(proc)
            try:
                proc.wait(timeout=5.0)
            except Exception:
                pass
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

        Process mode is event-driven: a pass runs when :attr:`_wake` is
        set (admission, a job child's exit, the start of a drain) or when
        the nearest watchdog deadline or drain escalation falls due, and
        at least every ``poll_interval`` as a backstop.  Each pass reaps
        exited children before it launches, so a freed slot is refilled
        in the same pass.  Pool mode observes the shared pool on a tick.
        """
        while True:
            self._wake.clear()
            try:
                if self._pool is not None:
                    self._poll_pool()
                    self._update_gauges()
                    if (self.state == "draining"
                            and self._pool_drained()):
                        self._stopped.set()
                        return
                else:
                    self._poll_running()
                    if self.state == "ready":
                        self._launch_ready()
                    self._update_gauges()
                    if self.state == "draining" and not self._running:
                        self._stopped.set()
                        return
            except Exception as exc:  # keep the scheduler alive, always
                print(f"scheduler error: {type(exc).__name__}: {exc}",
                      file=sys.stderr, flush=True)
            if self._pool is not None:
                await asyncio.sleep(self.config.poll_interval)
                continue
            try:
                await asyncio.wait_for(self._wake.wait(),
                                       timeout=self._wake_timeout())
            except asyncio.TimeoutError:
                pass

    def _wake_timeout(self) -> float:
        """Seconds until the next timed action of a process-mode pass:
        the nearest unfired watchdog deadline or the pending drain
        escalation, capped at ``poll_interval``."""
        now = asyncio.get_running_loop().time()
        due = [job.deadline for job in self._running.values()
               if job.deadline is not None and not job.watchdog_fired]
        if self._drain_started is not None:
            escalate = self._drain_started + self.config.drain_grace
            if escalate > now:  # once escalated, child exits wake the pass
                due.append(escalate)
        if not due:
            return self.config.poll_interval
        return min(self.config.poll_interval, max(min(due) - now, 0.0))

    def _launch_ready(self) -> None:
        while len(self._running) < self.config.max_concurrent_jobs:
            job = self.queue.next_runnable()
            if job is None:
                return
            self._start_job(job)

    def _start_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.watchdog_fired = False
        self._dispatch_counter += 1
        job.started_order = self._dispatch_counter
        job.started_at = loop.time()
        cap = (job.spec.max_seconds if job.spec.max_seconds is not None
               else self.config.job_timeout)
        job.deadline = job.started_at + cap if cap is not None else None
        job.process = self._mp.Process(
            target=job_process_main,
            args=(job.spec.payload(), str(job.job_dir), job.resume))
        job.process.start()
        # The sentinel turns readable when the child exits: wake the
        # scheduler to reap it.  One-shot; _finalize removes it too.
        sentinel = job.process.sentinel
        loop.add_reader(sentinel, self._child_exited, sentinel)
        self._running[job.id] = job
        self._stream_for(job).start()

    def _child_exited(self, sentinel: int) -> None:
        asyncio.get_running_loop().remove_reader(sentinel)
        self._wake.set()

    def _poll_running(self) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        if self.state == "draining" and self._drain_started is None:
            self._drain_started = now
        for job in list(self._running.values()):
            process = job.process
            if process is not None and not process.is_alive():
                process.join()
                self._finalize(job, process.exitcode)
            elif (job.deadline is not None and now >= job.deadline
                  and not job.watchdog_fired):
                job.watchdog_fired = True
                _kill_job_tree(process)  # its exit wakes the reaping pass
            elif (self._drain_started is not None
                  and now >= self._drain_started + self.config.drain_grace):
                # The drain's SIGTERM went unanswered: escalate.  The
                # journal keeps every completed run, so the job is still
                # resumable — _finalize sees a killed child while
                # draining and records it as interrupted.
                _kill_job_tree(process)

    # -- pool mode: workers pull, the service observes -----------------------

    def _spawn_worker(self, slot: int) -> None:
        """Start the slot's ``repro worker`` subprocess.

        Deliberately *not* a new session/process group: tests (and
        operators) that signal the service's group reach the workers too,
        and an orphaned worker dies with its parent's group.
        """
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--pool", str(self.state_dir), "--worker-id", f"svc-{slot}"])
        self._worker_procs[slot] = proc

    def _respawn_workers(self) -> None:
        for slot, proc in enumerate(self._worker_procs):
            if proc is None or proc.poll() is None:
                continue
            if self._worker_respawns[slot] >= self.config.worker_restarts:
                continue  # slot exhausted; peers cover its jobs
            self._worker_respawns[slot] += 1
            print(f"pool worker svc-{slot} exited "
                  f"{proc.returncode}; respawning "
                  f"({self._worker_respawns[slot]}/"
                  f"{self.config.worker_restarts})",
                  file=sys.stderr, flush=True)
            self._spawn_worker(slot)

    def _poll_pool(self) -> None:
        """Reconcile the registry with the pool's durable truth.

        Workers own execution; the service's scheduler degenerates to an
        observer: a ``status.json`` appearing makes a job terminal, a live
        lease makes it ``running`` (and names the worker in its status
        body), a lapsed lease returns it to ``queued`` until a peer
        adopts.  The FairQueue keeps admission caps and queue positions
        meaningful, so jobs are removed from it exactly when a worker
        claims them.
        """
        for job in list(self.jobs.values()):
            if job.terminal:
                continue
            status = read_json_tolerant(job.job_dir / STATUS_FILE)
            if status is not None:
                self.queue.cancel(job.id)  # may still be in the fair queue
                job.state = str(status.get("state", "done"))
                job.exit_code = status.get("exit_code")
                job.error = status.get("error")
                job.latency = status.get("latency")
                if isinstance(status.get("completed_runs"), int):
                    job.completed_runs = status["completed_runs"]
                if isinstance(status.get("quarantined_runs"), int):
                    job.quarantined_runs = status["quarantined_runs"]
                lease_info: Dict[str, Any] = {}
                if "lease" in status:
                    lease_info["token"] = status["lease"]
                if "worker" in status:
                    lease_info["worker"] = status["worker"]
                job.lease = lease_info or None
                self._metric_jobs().labels(status=job.state).inc()
                continue
            state = read_lease(job.job_dir)
            live = (state is not None and not state.released
                    and not state.expired(self._pool.config.ttl))
            if live:
                if job.state != "running":
                    self.queue.cancel(job.id)
                    job.state = "running"
                    self._dispatch_counter += 1
                    job.started_order = self._dispatch_counter
                    self._stream_for(job).start()
                job.lease = state.to_json()
            elif job.state == "running":
                # The holder died mid-job; until a peer adopts, the job is
                # claimable again.  Its journal keeps everything done.
                job.state = "queued"
                job.lease = state.to_json() if state is not None else None
        if self.state == "ready":
            self._respawn_workers()

    def _pool_drained(self) -> bool:
        """Draining is done when every worker process has exited."""
        now = asyncio.get_running_loop().time()
        if self._drain_started is None:
            self._drain_started = now
        alive = [proc for proc in self._worker_procs
                 if proc is not None and proc.poll() is None]
        if alive and now >= self._drain_started + self.config.drain_grace:
            for proc in alive:  # SIGTERM went unanswered: escalate
                _kill_job_tree(proc)
            return False
        if alive:
            return False
        for job in self.jobs.values():
            # Started-but-unfinished work is resumable (exit 8), matching
            # the process-mode drain; never-started queued jobs keep their
            # positions and the service exits 0, also matching.
            if not job.terminal and (job.job_dir / JOURNAL_FILE).exists():
                job.state = "interrupted"
                self._drained_interrupted = True
        return True

    def _journal_resumable(self, job: Job) -> bool:
        try:
            from repro.sim.supervisor import inspect_journal
            inspect_journal(job.journal_path,
                            keys=job.spec.journal_keys(job.job_dir))
            return True
        except CheckpointError:
            return False

    def _finalize(self, job: Job, exitcode: Optional[int]) -> None:
        # Before the Process can be collected and its sentinel fd closed.
        asyncio.get_running_loop().remove_reader(job.process.sentinel)
        del self._running[job.id]
        self.queue.release(job.tenant)
        job.process = None
        job.exit_code = exitcode
        if job.watchdog_fired:
            cap = (job.spec.max_seconds if job.spec.max_seconds is not None
                   else self.config.job_timeout)
            exc = JobTimeoutError(
                f"job {job.id} exceeded its {cap:g}s wall-clock watchdog "
                "and was killed; its journal is kept for post-mortems")
            job.state = "failed"
            job.error = {"type": type(exc).__name__, "message": str(exc)}
            job.write_status()
            self._metric_jobs().labels(status="timeout").inc()
        elif exitcode in (0, 1):
            self._finalize_finished(job, exitcode)
        elif exitcode == SweepInterrupted.exit_code or (exitcode or 0) < 0:
            self._finalize_interrupted(job, exitcode)
        else:
            error_path = job.job_dir / ERROR_FILE
            if error_path.exists():
                try:
                    job.error = read_json(error_path)
                except ValueError:
                    pass
            if job.error is None:
                job.error = {"type": "ReproError",
                             "message": f"job process exited {exitcode}"}
            job.state = "failed"
            job.write_status()
            self._metric_jobs().labels(status="failed").inc()

    def _finalize_finished(self, job: Job, exitcode: int) -> None:
        from repro.sim.supervisor import inspect_journal
        try:
            summary = inspect_journal(job.journal_path,
                                      keys=job.spec.journal_keys(job.job_dir))
            job.completed_runs = len(summary.completed)
            job.quarantined_runs = len(summary.quarantined)
            latency: Dict[str, float] = dict(summary.latency or {})
            if summary.elapsed is not None:
                latency["total"] = summary.elapsed
            job.latency = latency or None
        except CheckpointError as exc:
            job.error = {"type": type(exc).__name__, "message": str(exc)}
        job.state = "done" if exitcode == 0 else "partial"
        job.write_status()
        self._metric_jobs().labels(status=job.state).inc()
        if job.latency and "total" in job.latency:
            REGISTRY.histogram("repro_serve_job_seconds",
                               "Wall clock of finished jobs"
                               ).observe(job.latency["total"])

    def _finalize_interrupted(self, job: Job,
                              exitcode: Optional[int]) -> None:
        job.resume = self._journal_resumable(job)
        if self.state == "draining":
            # Checkpointed by the drain: resumable at the next start.
            job.state = "interrupted"
            self._drained_interrupted = True
            self._metric_jobs().labels(status="interrupted").inc()
            return
        job.restarts += 1
        if job.restarts > self.config.max_job_restarts:
            job.state = "failed"
            job.error = {"type": "WorkerCrashError",
                         "message": f"job process died {job.restarts} times "
                                    f"(last exit {exitcode}); giving up"}
            job.write_status()
            self._metric_jobs().labels(status="crashed").inc()
            return
        job.state = "queued"
        self.queue.requeue_front(job)
        self._metric_jobs().labels(status="restarted").inc()

    # -- job admission and lookup -------------------------------------------

    def submit(self, payload: Any) -> Job:
        if self.state != "ready":
            self._metric_shed().labels(reason="draining").inc()
            raise ServiceDrainingError(
                f"service is {self.state}; not admitting jobs")
        spec = JobSpec.from_payload(payload)
        if self._pool is not None:
            return self._submit_pool(spec)
        seq = self._seq
        job = Job(id=job_id(seq, spec.tenant), seq=seq, spec=spec,
                  job_dir=self.state_dir / "jobs" / job_id(seq, spec.tenant))
        try:
            self.queue.submit(job)
        except ServiceSaturatedError:
            self._metric_shed().labels(reason="saturated").inc()
            raise
        except ServiceError:
            self._metric_shed().labels(reason="quota").inc()
            raise
        # Admitted: now (and only now) it becomes durable.
        self._seq = seq + 1
        try:
            job.job_dir.mkdir(parents=True, exist_ok=True)
            write_json_durable(job.job_dir / SPEC_FILE, spec_record(job))
        except OSError as exc:
            self.queue.cancel(job.id)
            raise ServiceError(
                f"cannot persist job {job.id}: {exc}") from exc
        self.jobs[job.id] = job
        REGISTRY.counter("repro_serve_submissions_total",
                         "Jobs admitted into the queue").inc()
        self._wake.set()
        return job

    def _submit_pool(self, spec: JobSpec) -> Job:
        """Pool-mode admission: same caps, durable publish via the pool.

        The admission caps are checked against this service's view first
        (so sheds stay cheap and typed), then the pool's atomic
        staging+rename publishes the job — a worker may legitimately claim
        it before this method returns.
        """
        try:
            self.queue.admission_check(spec.tenant)
        except ServiceSaturatedError:
            self._metric_shed().labels(reason="saturated").inc()
            raise
        except ServiceError:
            self._metric_shed().labels(reason="quota").inc()
            raise
        job = self._pool.admit(spec)
        self.queue.restore(job)  # caps already checked; keep its position
        self.jobs[job.id] = job
        self._seq = max(self._seq, job.seq + 1)
        REGISTRY.counter("repro_serve_submissions_total",
                         "Jobs admitted into the queue").inc()
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
        if self._pool is not None:
            return self._cancel_pool(job)
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

    def _cancel_pool(self, job: Job) -> bytes:
        """Cancel in pool mode: win the job's lease, then it cannot run.

        A cancelled pool job gets a fenced terminal ``status.json`` like
        any other outcome, so every worker's claim scan skips it for the
        same reason it skips completed jobs.  If the lease is held by a
        live worker the cancel is a 409, exactly like a running
        process-mode job.
        """
        if job.terminal:
            return _json_response(200, job.status_payload())
        handle = acquire_lease(job.job_dir, "service",
                               self._pool.config.ttl)
        if handle is None:
            return _json_response(
                409, {"error": {"type": "ServiceError",
                                "message": "job is leased by a worker; wait "
                                           "for it or drain the service"}})
        if read_json_tolerant(job.job_dir / STATUS_FILE) is not None:
            handle.release()  # finished in the claim window; report as-is
            return _json_response(200, job.status_payload())
        job.state = "cancelled"
        payload = job.status_payload()
        payload["lease"] = handle.token
        payload["worker"] = "service"
        write_json_durable(job.job_dir / STATUS_FILE, payload)
        handle.release()
        self.queue.cancel(job.id)
        self._metric_jobs().labels(status="cancelled").inc()
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
    "JOB_PRELOAD",
    "SERVE_INFO_FILE",
    "ServiceConfig",
    "SimulationService",
    "JobEventStream",
    "run_service",
]
