"""The shared worker pool: a filesystem-backed durable queue that any
number of ``repro worker`` processes drain cooperatively.

The pool is where every job executes.  The service
(:mod:`repro.serve.app`) is the only scheduler: it admits jobs into the
pool unpublished and *publishes* each one when its fair queue picks it;
workers — the service's own (``repro serve --workers N``), started by
hand, or on different machines sharing a filesystem — *pull* published
work by claiming leases (:mod:`repro.serve.lease`).  Without a service
(:meth:`SharedPool.admit` plus ``repro worker``) a job is published at
admission.  The layout::

    <pool_dir>/
        pool.json             # heartbeat cadence + allowed misses (the TTL)
        jobs/<job_id>/        # the standard job-dir contract (jobs.py)
            spec.json         #   ... plus lease/ (lease.py)
        pending/<job_id>      # the claimable index: one marker per
                              #   published job
        staging/              # admission scratch: jobs appear atomically
        workers/<id>.json     # per-worker liveness heartbeats

Four properties carry the design:

- **Atomic admission.**  A job is staged (``spec.json`` fsync'd in
  ``staging/``) and then ``os.rename``\\ d into ``jobs/`` — a scanning
  worker sees either no job or a complete one, never a half-admitted dir.
  Sequence numbers are reserved with ``O_EXCL`` markers so concurrent
  admitters cannot mint duplicate ``seq`` values.
- **A claimable index.**  Publishing renames a marker into ``pending/``;
  :meth:`SharedPool.claim_next` lists that directory only, so a claim
  costs O(published jobs), not O(jobs ever admitted).  The service
  withdraws a job's marker once its fenced ``status.json`` has landed.
- **Lease-fenced execution.**  A worker claims a job by winning the next
  fence (:func:`repro.serve.lease.acquire`), heartbeats it from a daemon
  thread, and stamps the fencing token into every journal record and the
  final ``status.json``.  After ``misses`` missed heartbeats any peer may
  claim the next fence and *adopt* the job.  A job whose sweep uses one
  process (the default ``jobs=1``) runs in the worker itself; only a
  ``jobs > 1`` job forks sweep processes.
- **Bit-identical adoption.**  The adopter resumes from the fsync'd
  journal exactly like a service restart would
  (:func:`~repro.serve.recovery.recover_job_dir` classifies, the
  supervisor reruns only the missing runs), so a job that bounced between
  workers produces byte-identical per-epoch results to one that never
  crashed.  DESIGN.md §11 carries the full argument.

Every read of foreign state (status files, worker heartbeats, claim
records) is tolerant — a torn file is treated as absent, never a crash —
because the whole point of the pool is that peers die at arbitrary
instants.
"""

from __future__ import annotations

import json
import os
import pathlib
import select
import shutil
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import REGISTRY
from repro.resilience.errors import (
    LeaseLostError,
    PoolCorruptError,
    PoolError,
    ReproError,
    SweepInterrupted,
)
from repro.serve.jobs import (
    ERROR_FILE,
    JOURNAL_FILE,
    Job,
    JobSpec,
    SPEC_FILE,
    STATUS_FILE,
    fsync_dir,
    job_id,
    read_json_tolerant,
    spec_record,
    write_json_durable,
)
from repro.serve.lease import LeaseHandle, acquire, lapsed_fences, read_lease
from repro.serve.recovery import recover_job_dir

#: The pool's durable configuration file (written once at creation).
POOL_FILE = "pool.json"
POOL_VERSION = 1

JOBS_DIR = "jobs"
PENDING_DIR = "pending"
STAGING_DIR = "staging"
WORKERS_DIR = "workers"

_SEQ_PREFIX = ".seq-"


@dataclass(frozen=True)
class PoolConfig:
    """The pool's shared timing contract — identical for every worker,
    because lease expiry must mean the same thing to all of them."""

    heartbeat: float = 1.0
    """Seconds between lease renewals by a live holder."""

    misses: int = 3
    """Missed heartbeats before a lease is reclaimable."""

    @property
    def ttl(self) -> float:
        """Heartbeat age past which a lease is dead (``heartbeat×misses``)."""
        return self.heartbeat * self.misses

    def __post_init__(self) -> None:
        if not (self.heartbeat > 0):
            raise PoolCorruptError(
                f"pool heartbeat must be > 0, got {self.heartbeat!r}")
        if self.misses < 1:
            raise PoolCorruptError(
                f"pool misses must be >= 1, got {self.misses!r}")


class SharedPool:
    """One pool directory: admission, claiming, and status introspection."""

    def __init__(self, root, config: PoolConfig) -> None:
        self.root = pathlib.Path(root)
        self.config = config

    @property
    def jobs_root(self) -> pathlib.Path:
        return self.root / JOBS_DIR

    # -- creation ------------------------------------------------------------

    @classmethod
    def ensure(cls, root, heartbeat: float = 1.0,
               misses: int = 3) -> "SharedPool":
        """Open the pool at ``root``, creating it if needed.

        An existing ``pool.json`` always wins — the timing contract is set
        once, by whoever created the pool, and later workers inherit it no
        matter what flags they were started with (mixed TTLs would make
        "expired" worker-dependent, which is exactly the split-brain the
        lease protocol exists to prevent).
        """
        root = pathlib.Path(root)
        try:
            root.mkdir(parents=True, exist_ok=True)
            for sub in (JOBS_DIR, PENDING_DIR, STAGING_DIR, WORKERS_DIR):
                (root / sub).mkdir(exist_ok=True)
        except OSError as exc:
            raise PoolCorruptError(
                f"cannot create pool directory {root}: {exc}") from exc
        pool_file = root / POOL_FILE
        if pool_file.exists():
            return cls(root, _load_config(pool_file))
        config = PoolConfig(heartbeat=float(heartbeat), misses=int(misses))
        write_json_durable(pool_file, {
            "version": POOL_VERSION, "heartbeat": config.heartbeat,
            "misses": config.misses})
        # A racing ensure() may have replaced the file between our exists()
        # check and the write; re-read so every opener agrees.
        return cls(root, _load_config(pool_file))

    @classmethod
    def open(cls, root) -> "SharedPool":
        """Open an existing pool; :class:`PoolCorruptError` if absent."""
        root = pathlib.Path(root)
        pool_file = root / POOL_FILE
        if not pool_file.exists():
            raise PoolCorruptError(
                f"{root} is not a pool directory (no {POOL_FILE}); "
                "create one with 'repro serve' or SharedPool.ensure")
        return cls(root, _load_config(pool_file))

    # -- admission -----------------------------------------------------------

    def _scan_seq(self) -> int:
        best = 0
        for parent, prefix in ((self.jobs_root, ""),
                               (self.root / STAGING_DIR, _SEQ_PREFIX)):
            try:
                names = os.listdir(parent)
            except OSError:
                continue
            for name in names:
                if prefix and not name.startswith(prefix):
                    continue
                head = name[len(prefix):].split("-", 1)[0]
                try:
                    best = max(best, int(head))
                except ValueError:
                    continue
        return best

    def admit(self, spec: JobSpec, publish: bool = True) -> Job:
        """Durably admit a job; published, it is claimable the instant
        this returns.

        The sequence number is reserved with an ``O_EXCL`` marker in
        ``staging/`` (so concurrent admitters — the service plus a CLI
        submit, say — never mint the same ``seq``), the job dir is staged
        with its fsync'd ``spec.json``, and one ``os.rename`` publishes
        it.  A crash mid-admission leaves either a stale staging entry
        (burning one seq number, harmless) or the complete job.  The
        service admits with ``publish=False`` and publishes when its
        scheduler picks the job.
        """
        staging = self.root / STAGING_DIR
        while True:
            seq = self._scan_seq() + 1
            marker = staging / f"{_SEQ_PREFIX}{seq:06d}"
            try:
                os.close(os.open(str(marker),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # a peer reserved this seq; rescan
            except OSError as exc:
                raise PoolCorruptError(
                    f"cannot reserve admission seq in {staging}: {exc}"
                    ) from exc
            jid = job_id(seq, spec.tenant)
            job = Job(id=jid, seq=seq, spec=spec,
                      job_dir=self.jobs_root / jid)
            stage = staging / f"{jid}.stage-{os.getpid()}"
            try:
                stage.mkdir()
                write_json_durable(stage / SPEC_FILE, spec_record(job))
                os.rename(stage, job.job_dir)
            except OSError as exc:
                shutil.rmtree(stage, ignore_errors=True)
                raise PoolCorruptError(
                    f"cannot admit job {jid} into {self.jobs_root}: {exc}"
                    ) from exc
            finally:
                try:
                    os.unlink(marker)
                except OSError:
                    pass
            fsync_dir(self.jobs_root)
            if REGISTRY.enabled:
                REGISTRY.counter(
                    "repro_pool_admissions_total",
                    "Jobs admitted into the shared pool",
                    labels=("tenant",)).labels(tenant=spec.tenant).inc()
            if publish:
                self.publish(job)
            return job

    # -- the claimable index -------------------------------------------------

    def publish(self, job: Job, started_order: Optional[int] = None) -> None:
        """Make ``job`` claimable: rename its marker into ``pending/``.

        The marker carries the dispatch ordinal that the claiming worker
        stamps into the job's status.
        """
        stage = self.root / STAGING_DIR / f"{job.id}.pub-{os.getpid()}"
        with open(stage, "w", encoding="utf-8") as fh:
            json.dump({"started_order": started_order}, fh)
        os.rename(stage, self.root / PENDING_DIR / job.id)
        fsync_dir(self.root / PENDING_DIR)

    def withdraw(self, job_id_str: str) -> None:
        """Take a job out of the claimable index (a no-op if it is out)."""
        try:
            os.unlink(self.root / PENDING_DIR / job_id_str)
        except FileNotFoundError:
            pass

    def published(self) -> List[str]:
        """Ids of the published jobs, in admission (``seq``) order."""
        try:
            return sorted(os.listdir(self.root / PENDING_DIR))
        except OSError:
            return []

    # -- claiming ------------------------------------------------------------

    def job_dirs(self) -> List[pathlib.Path]:
        """Job directories in admission (``seq``) order."""
        try:
            names = sorted(os.listdir(self.jobs_root))
        except OSError:
            return []
        return [self.jobs_root / name for name in names
                if (self.jobs_root / name).is_dir()]

    def claim_next(self, owner: str) -> Optional[
            Tuple[Job, LeaseHandle, bool]]:
        """Claim the lowest-seq claimable published job for ``owner``.

        Returns ``(job, lease handle, resume?)`` or ``None`` when nothing
        is claimable right now.  A published job is claimable when it is
        not terminal and its lease (if any) is released or expired;
        ``resume`` is True when a valid journal exists, i.e. this claim
        *adopts* a peer's interrupted work.
        """
        for jid in self.published():
            job_dir = self.jobs_root / jid
            if read_json_tolerant(job_dir / STATUS_FILE) is not None:
                continue  # terminal; withdrawn once the service sees it
            state = read_lease(job_dir)
            if (state is not None and not state.released
                    and not state.expired(self.config.ttl)):
                continue  # live holder
            entry = recover_job_dir(job_dir)
            if entry is None or entry.phase == "terminal":
                continue  # torn spec (not ours to guess at) or lost race
            handle = acquire(job_dir, owner, self.config.ttl)
            if handle is None:
                continue  # lost the fence CAS to a peer
            if read_json_tolerant(job_dir / STATUS_FILE) is not None:
                # Completed (or cancelled) between our scan and the claim.
                handle.release()
                continue
            marker = read_json_tolerant(self.root / PENDING_DIR / jid) or {}
            entry.job.started_order = marker.get("started_order")
            entry.job.restarts = lapsed_fences(job_dir)
            resume = entry.phase == "interrupted"
            if REGISTRY.enabled:
                REGISTRY.counter(
                    "repro_pool_claims_total",
                    "Job leases claimed, fresh or adopted from a dead peer",
                    labels=("worker", "kind")).labels(
                        worker=owner,
                        kind="adopt" if handle.fence > 1 else "fresh").inc()
            return entry.job, handle, resume
        return None

    # -- introspection -------------------------------------------------------

    def all_terminal(self) -> bool:
        """Every published job has a durable ``status.json`` (in a pool
        without a service, every admitted job is published)."""
        return all(read_json_tolerant(self.jobs_root / jid / STATUS_FILE)
                   is not None for jid in self.published())

    def write_worker_heartbeat(self, worker_id: str, jobs_done: int,
                               running: Optional[str]) -> None:
        write_json_durable(self.root / WORKERS_DIR / f"{worker_id}.json", {
            "worker": worker_id, "pid": os.getpid(),
            "updated_at": time.time(), "jobs_done": jobs_done,
            "running": running})

    def worker_heartbeats(self) -> List[Dict[str, Any]]:
        """Every worker's last heartbeat, by worker id, with its ``age``."""
        workers_dir = self.root / WORKERS_DIR
        try:
            names = sorted(os.listdir(workers_dir))
        except OSError:
            return []
        now = time.time()
        beats = []
        for name in names:
            if not name.endswith(".json"):
                continue
            payload = read_json_tolerant(workers_dir / name)
            if payload is None:
                continue
            try:
                age = now - float(payload.get("updated_at", now))
            except (TypeError, ValueError):
                continue
            payload["age"] = max(0.0, age)
            beats.append(payload)
        return beats


def _load_config(pool_file: pathlib.Path) -> PoolConfig:
    payload = read_json_tolerant(pool_file)
    if payload is None:
        raise PoolCorruptError(
            f"pool file {pool_file} is torn or not a JSON object")
    if payload.get("version") != POOL_VERSION:
        raise PoolCorruptError(
            f"pool file {pool_file} has version {payload.get('version')!r}, "
            f"this build speaks version {POOL_VERSION}")
    try:
        return PoolConfig(heartbeat=float(payload["heartbeat"]),
                          misses=int(payload["misses"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise PoolCorruptError(
            f"pool file {pool_file} is missing or mistypes its timing "
            f"fields: {exc}") from exc


# -- execution ---------------------------------------------------------------

def execute_claim(pool: SharedPool, job: Job, handle: LeaseHandle,
                  worker_id: str, resume: bool,
                  jobs_done: int = 0) -> Job:
    """Run one claimed job to a terminal state, fenced end to end.

    The lease is renewed from a daemon thread every ``heartbeat`` seconds;
    every journal write carries the fencing token and re-checks the fence
    first (``journal_guard``), and the final ``status.json`` is written
    only after a last fence check.  The sweep runs ``in_process``: a
    one-process job's runs execute in this worker, so a crash or a wedge
    in C code takes the worker down, and the service's restart cap and
    watchdog (or, for an external worker, lease expiry) take over.
    Outcomes:

    - completes (``done``/``partial``/typed failure) — fenced status
      written, lease released, the updated :class:`Job` returned;
    - :class:`SweepInterrupted` (SIGTERM drain) — lease released so a peer
      can adopt immediately, then re-raised;
    - :class:`LeaseLostError` — this worker became the zombie: nothing
      further is written, the error propagates (exit code 10).
    """
    job_dir = job.job_dir
    spec = job.spec
    # Name this process as the job's runner from the claim on, not from the
    # heartbeat thread's first tick: a job that ends within one heartbeat
    # would otherwise never show its holder's pid.
    try:
        pool.write_worker_heartbeat(worker_id, jobs_done, job.id)
    except OSError:
        pass
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(pool.config.heartbeat):
            try:
                handle.renew()
            except PoolError:
                return  # the next journal write will raise LeaseLostError
            try:
                pool.write_worker_heartbeat(worker_id, jobs_done, job.id)
            except OSError:
                pass

    beater = threading.Thread(target=beat, daemon=True,
                              name=f"lease-heartbeat-{job.id}")
    beater.start()
    from repro.sim.supervisor import SweepPolicy, run_supervised
    try:
        report = run_supervised(
            spec.to_runspecs(job_dir), jobs=spec.jobs,
            policy=SweepPolicy(run_timeout=spec.run_timeout,
                               retries=spec.retries),
            journal=job_dir / JOURNAL_FILE, resume=resume,
            journal_extra={"lease": handle.token, "worker": worker_id},
            journal_guard=handle.check, in_process=True)
    except SweepInterrupted:
        _stop_beat(stop, beater)
        handle.release()  # everything durable is journaled; peers may adopt
        raise
    except LeaseLostError:
        _stop_beat(stop, beater)
        raise
    except ReproError as exc:
        _stop_beat(stop, beater)
        handle.check()
        write_json_durable(job_dir / ERROR_FILE, {
            "type": type(exc).__name__, "message": str(exc)})
        job.state = "failed"
        job.exit_code = exc.exit_code
        job.error = {"type": type(exc).__name__, "message": str(exc)}
        _finalize(pool, job, handle, worker_id)
        return job
    _stop_beat(stop, beater)
    job.state = "done" if report.ok else "partial"
    job.exit_code = 0 if report.ok else 1
    job.completed_runs = len(report.succeeded)
    job.quarantined_runs = len(report.quarantined)
    job.latency = report.latency()
    _finalize(pool, job, handle, worker_id)
    return job


def _finalize(pool: SharedPool, job: Job, handle: LeaseHandle,
              worker_id: str) -> None:
    """Fence-checked terminal status write, then release.

    The check→write window is not atomic; the residual race is benign for
    the same reason journal duplicates are: both possible writers derive
    the status from the same deterministic journal, so the late write is
    equivalent in everything but the ``worker``/``lease`` provenance
    fields (and a reclaim implies the first writer was about to die).
    """
    handle.check()
    payload = job.status_payload()
    payload["lease"] = handle.token
    payload["worker"] = worker_id
    write_json_durable(job.job_dir / STATUS_FILE, payload)
    handle.release()
    if REGISTRY.enabled:
        REGISTRY.counter(
            "repro_pool_jobs_total",
            "Jobs driven to a terminal state by pool workers",
            labels=("worker", "state")).labels(
                worker=worker_id, state=job.state).inc()


def _stop_beat(stop: threading.Event, beater: threading.Thread) -> None:
    stop.set()
    beater.join(timeout=5.0)


def run_worker(pool_dir, worker_id: str, drain: bool = False,
               poll_interval: float = 0.2,
               max_jobs: Optional[int] = None,
               channel: Optional[socket.socket] = None) -> int:
    """The ``repro worker`` main loop: claim, execute, repeat.

    With ``drain=True`` the worker exits once every published job is
    terminal (waiting out live peers' leases — their jobs become either
    terminal or adoptable); otherwise it polls forever.  ``max_jobs``
    bounds the number of jobs this worker executes (mostly for tests).
    Returns the number of jobs this worker drove to a terminal state.

    ``channel`` connects a service-owned worker to its service: an idle
    worker waits on it for a publish, so ``poll_interval`` is only the
    backstop; it writes a byte after each terminal status, so the service
    reaps at once; and it returns when the service's end closes.

    SIGTERM during a sweep drains it (journal flushed, lease released)
    and raises :class:`SweepInterrupted` — exit code 8, same as the
    supervisor.  A lost lease raises :class:`LeaseLostError` — exit 10.
    """
    pool = SharedPool.open(pool_dir)
    done = 0
    beat_due = 0.0
    while True:
        claim = pool.claim_next(worker_id)
        if claim is None:
            if time.monotonic() >= beat_due:
                _idle_heartbeat(pool, worker_id, done)
                beat_due = time.monotonic() + pool.config.heartbeat
            if max_jobs is not None and done >= max_jobs:
                return done
            if drain and pool.all_terminal():
                return done
            if channel is None:
                time.sleep(poll_interval)
            elif select.select([channel], [], [], poll_interval)[0]:
                try:
                    if not channel.recv(4096):
                        return done  # the service is gone
                except OSError:
                    return done
            continue
        job, handle, resume = claim
        execute_claim(pool, job, handle, worker_id, resume, jobs_done=done)
        done += 1
        _idle_heartbeat(pool, worker_id, done)
        beat_due = time.monotonic() + pool.config.heartbeat
        if channel is not None:
            try:
                channel.send(b"\0")
            except OSError:
                pass  # the service is gone; the next wait sees it
        if max_jobs is not None and done >= max_jobs:
            return done


def _idle_heartbeat(pool: SharedPool, worker_id: str, done: int) -> None:
    try:
        pool.write_worker_heartbeat(worker_id, done, None)
    except OSError:
        pass


def service_worker_main(pool_dir: str, worker_id: str,
                        poll_interval: str) -> int:
    """Entry point of a worker the service spawns; fd 0 is its channel
    (see :func:`run_worker`).  Returns the process exit code."""
    channel = socket.socket(fileno=0)
    try:
        run_worker(pool_dir, worker_id, poll_interval=float(poll_interval),
                   channel=channel)
    except ReproError as exc:
        print(f"worker {worker_id}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


# -- status ------------------------------------------------------------------

def pool_status(pool_dir) -> Dict[str, Any]:
    """The ``repro pool status`` body: config, jobs with their leases,
    worker heartbeats, and aggregate counts."""
    pool = SharedPool.open(pool_dir)
    now = time.time()
    jobs: List[Dict[str, Any]] = []
    counts: Dict[str, int] = {}
    reclaims = 0
    for job_dir in pool.job_dirs():
        record = read_json_tolerant(job_dir / SPEC_FILE)
        if record is None:
            continue
        status = read_json_tolerant(job_dir / STATUS_FILE)
        lease_state = read_lease(job_dir)
        lease_live = (lease_state is not None and not lease_state.released
                      and not lease_state.expired(pool.config.ttl, now))
        if status is not None:
            state = str(status.get("state", "done"))
        elif lease_live:
            state = "running"
        elif (job_dir / JOURNAL_FILE).exists():
            state = "interrupted"
        else:
            state = "queued"
        entry: Dict[str, Any] = {
            "id": str(record.get("id", job_dir.name)),
            "seq": record.get("seq"),
            "tenant": (record.get("spec") or {}).get("tenant"),
            "state": state,
            "lease": lease_state.to_json() if lease_state else None,
        }
        if status is not None and "worker" in status:
            entry["worker"] = status["worker"]
        elif lease_live:
            entry["worker"] = lease_state.owner
        if lease_state is not None:
            reclaims += lease_state.reclaims
        counts[state] = counts.get(state, 0) + 1
        jobs.append(entry)
    workers = pool.worker_heartbeats()
    if REGISTRY.enabled:
        REGISTRY.gauge(
            "repro_pool_reclaims",
            "Total lease reclaims recorded across the pool's jobs"
            ).set(float(reclaims))
        for state, count in counts.items():
            REGISTRY.gauge(
                "repro_pool_jobs", "Pool jobs by state",
                labels=("state",)).labels(state=state).set(float(count))
    return {
        "pool": str(pool.root),
        "config": {"heartbeat": pool.config.heartbeat,
                   "misses": pool.config.misses, "ttl": pool.config.ttl},
        "counts": counts,
        "reclaims": reclaims,
        "jobs": jobs,
        "workers": workers,
    }


__all__ = [
    "POOL_FILE",
    "PoolConfig",
    "SharedPool",
    "execute_claim",
    "pool_status",
    "run_worker",
    "service_worker_main",
]
