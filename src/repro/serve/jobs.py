"""Job model for the simulation service.

A *job* is one supervised sweep submitted by a tenant: a validated
:class:`JobSpec` (parsed from the submission JSON, every field checked at
admission so a bad spec is a 400, never a crashed worker), a mutable
:class:`Job` tracking its life cycle inside the service process, and the
durable on-disk layout that makes all of it survive SIGKILL:

```
<state_dir>/jobs/<job_id>/
    spec.json       # fsync'd at admission: the job exists iff this does
    journal.jsonl   # the supervisor's crash-safe run journal (results!)
    trace_<i>.jsonl # per-run epoch traces (feed the SSE progress stream)
    status.json     # fsync'd at completion: terminal iff this exists
    error.json      # the typed error of a failed job, when one was raised
```

The journal doubles as the *result channel*: the job executes in a child
process (:func:`job_process_main`) whose only durable output is the
journal, so the service parent — and a restarted service after a crash —
reads results the exact same way: :func:`~repro.sim.supervisor.
SweepJournal.load_completed`.  There is no state that exists only in
memory, which is the whole recovery story.

Job life cycle (see DESIGN.md §10 for the full state machine)::

    queued -> running -> done | partial | failed
       ^          |
       |          v (crash / drain)
       +---- interrupted            (resumable: journal rescan on restart)

``queued`` jobs may also end ``cancelled`` (DELETE) or, at admission time,
never exist at all (shed with a typed 429 before anything is persisted).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import preset
from repro.resilience.errors import ConfigError, ReproError, SweepInterrupted
from repro.sim.engine import DEFAULT_ENGINE, ENGINES

#: Files of the per-job directory (the durable contract with recovery).
SPEC_FILE = "spec.json"
JOURNAL_FILE = "journal.jsonl"
STATUS_FILE = "status.json"
ERROR_FILE = "error.json"

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,31}$")

#: Scheme names a submission may request (mirrors ``repro list``).
_DYNAMIC_SCHEMES = ("morphcache", "pipp", "dsr")

#: Job states that are final — a ``status.json`` exists exactly for these.
TERMINAL_STATES = ("done", "partial", "failed", "cancelled")


def known_schemes() -> Tuple[str, ...]:
    from repro.baselines.static_topologies import STATIC_LABELS
    return tuple(STATIC_LABELS) + _DYNAMIC_SCHEMES


def write_json_durable(path, payload: Dict[str, Any]) -> None:
    """Write ``payload`` so it is either fully on disk or absent.

    Temp file + ``fsync`` + atomic rename (+ directory fsync), the same
    durability discipline as the sweep journal: a SIGKILL at any instant
    leaves either the old file or the new one, never a torn JSON.
    """
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_json(path) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_json_tolerant(path) -> Optional[Dict[str, Any]]:
    """A dict from ``path``, or ``None`` for anything else.

    "Anything else" covers every way a status/spec read can go wrong at
    recovery time — missing file, unreadable file, truncated or
    half-written JSON, or a well-formed JSON value that is not an object
    (``null``, a list, a bare string).  Torn files *should* be impossible
    under :func:`write_json_durable`'s atomic rename, but recovery reads
    state dirs it did not write (hand-edited, foreign tooling, partial
    copies), so it never trusts that.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


@dataclass(frozen=True)
class JobSpec:
    """A validated sweep submission.  Construct via :meth:`from_payload`."""

    tenant: str
    workload: str
    schemes: Tuple[str, ...]
    preset: str = "tiny"
    epochs: Optional[int] = None
    seed: int = 1
    engine: str = DEFAULT_ENGINE
    jobs: int = 1
    """Worker processes *inside* the sweep (the supervisor's pool)."""

    run_timeout: Optional[float] = None
    """Per-run wall-clock budget (the supervisor's hang detector)."""

    retries: int = 0
    max_seconds: Optional[float] = None
    """Whole-job watchdog enforced by the *service* (kill + fail)."""

    trace: bool = True
    """Record per-run epoch traces (they feed the SSE progress stream)."""

    _FIELDS = ("tenant", "workload", "scheme", "schemes", "preset", "epochs",
               "seed", "engine", "jobs", "run_timeout", "retries",
               "max_seconds", "trace")

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Parse and validate a submission, naming the offending field.

        Every :class:`~repro.resilience.errors.ConfigError` raised here is
        an HTTP 400 at the admission boundary — nothing invalid ever
        reaches a worker process or the state directory.
        """
        if not isinstance(payload, dict):
            raise ConfigError("job", "submission body must be a JSON object")
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ConfigError(unknown[0], "unknown job field")
        tenant = payload.get("tenant")
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise ConfigError(
                "tenant", "required; 1-32 chars of [A-Za-z0-9_.-], "
                f"got {tenant!r}")
        workload = payload.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ConfigError("workload", "required (e.g. 'MIX 01')")
        from repro.sim.workload import Workload
        Workload.from_name(workload)  # raises ConfigError on a bad name
        if "scheme" in payload and "schemes" in payload:
            raise ConfigError("schemes", "give 'scheme' or 'schemes', not both")
        raw_schemes = payload.get("schemes", payload.get("scheme", ["morphcache"]))
        if isinstance(raw_schemes, str):
            raw_schemes = [raw_schemes]
        if (not isinstance(raw_schemes, list) or not raw_schemes
                or not all(isinstance(s, str) for s in raw_schemes)):
            raise ConfigError("schemes", "must be a non-empty list of names")
        legal = known_schemes()
        for scheme in raw_schemes:
            if scheme not in legal:
                raise ConfigError(
                    "schemes", f"unknown scheme {scheme!r}; choose from "
                    f"{', '.join(legal)}")
        preset_name = payload.get("preset", "tiny")
        try:
            preset(preset_name)
        except ValueError as exc:
            raise ConfigError("preset", str(exc)) from None
        epochs = payload.get("epochs")
        if epochs is not None and (not isinstance(epochs, int) or epochs < 1):
            raise ConfigError("epochs", f"must be an integer >= 1, got {epochs!r}")
        seed = payload.get("seed", 1)
        if not isinstance(seed, int):
            raise ConfigError("seed", f"must be an integer, got {seed!r}")
        engine = payload.get("engine", DEFAULT_ENGINE)
        if engine not in ENGINES:
            raise ConfigError("engine", f"must be 'event' or 'batch', got {engine!r}")
        jobs = payload.get("jobs", 1)
        if not isinstance(jobs, int) or jobs < 1:
            raise ConfigError("jobs", f"must be an integer >= 1, got {jobs!r}")
        retries = payload.get("retries", 0)
        if not isinstance(retries, int) or retries < 0:
            raise ConfigError("retries", f"must be an integer >= 0, got {retries!r}")
        run_timeout = payload.get("run_timeout")
        if run_timeout is not None and (
                not isinstance(run_timeout, (int, float)) or run_timeout <= 0):
            raise ConfigError("run_timeout", f"must be > 0, got {run_timeout!r}")
        max_seconds = payload.get("max_seconds")
        if max_seconds is not None and (
                not isinstance(max_seconds, (int, float)) or max_seconds <= 0):
            raise ConfigError("max_seconds", f"must be > 0, got {max_seconds!r}")
        trace = payload.get("trace", True)
        if not isinstance(trace, bool):
            raise ConfigError("trace", f"must be a boolean, got {trace!r}")
        return cls(tenant=tenant, workload=workload,
                   schemes=tuple(raw_schemes), preset=preset_name,
                   epochs=epochs, seed=seed, engine=engine, jobs=jobs,
                   run_timeout=(float(run_timeout) if run_timeout is not None
                                else None),
                   retries=retries,
                   max_seconds=(float(max_seconds) if max_seconds is not None
                                else None),
                   trace=trace)

    def payload(self) -> Dict[str, Any]:
        """The canonical JSON form (round-trips through `from_payload`)."""
        out: Dict[str, Any] = {
            "tenant": self.tenant, "workload": self.workload,
            "schemes": list(self.schemes), "preset": self.preset,
            "seed": self.seed, "engine": self.engine, "jobs": self.jobs,
            "retries": self.retries, "trace": self.trace,
        }
        if self.epochs is not None:
            out["epochs"] = self.epochs
        if self.run_timeout is not None:
            out["run_timeout"] = self.run_timeout
        if self.max_seconds is not None:
            out["max_seconds"] = self.max_seconds
        return out

    def to_runspecs(self, job_dir=None) -> List:
        """The sweep's :class:`~repro.sim.parallel.RunSpec` list.

        ``job_dir`` adds per-run trace paths (when :attr:`trace` is on);
        trace paths are deliberately *not* part of the journal's spec key,
        so the specs rebuilt at recovery time match the crashed run's
        journal whether or not tracing was enabled.
        """
        from repro.sim.parallel import RunSpec
        from repro.sim.workload import Workload

        machine = preset(self.preset)
        workload = Workload.from_name(self.workload)
        specs = []
        for index, scheme in enumerate(self.schemes):
            trace_path = None
            if self.trace and job_dir is not None:
                trace_path = str(pathlib.Path(job_dir) / f"trace_{index}.jsonl")
            specs.append(RunSpec(scheme=scheme, workload=workload,
                                 config=machine, seed=self.seed,
                                 epochs=self.epochs, engine=self.engine,
                                 trace_path=trace_path))
        return specs

    def journal_keys(self, job_dir=None) -> List[str]:
        from repro.sim.supervisor import spec_key
        return [spec_key(spec) for spec in self.to_runspecs(job_dir)]


@dataclass
class Job:
    """One job's in-service state (the durable truth lives in its dir)."""

    id: str
    seq: int
    spec: JobSpec
    job_dir: pathlib.Path
    state: str = "queued"
    resume: bool = False
    """Next execution should resume from the journal (set by recovery or
    after a mid-run crash)."""

    restarts: int = 0
    started_order: Optional[int] = None
    """Global dispatch ordinal — proves scheduling order in tests."""

    started_at: Optional[float] = None   # monotonic, service-local
    deadline: Optional[float] = None     # monotonic watchdog deadline
    watchdog_fired: bool = False
    exit_code: Optional[int] = None
    error: Optional[Dict[str, str]] = None
    latency: Optional[Dict[str, float]] = None
    completed_runs: int = 0
    quarantined_runs: int = 0
    lease: Optional[Dict[str, Any]] = None
    """The pool lease view of this job (owner/fence/ages), when it runs
    under ``repro worker`` rather than a service-launched child."""

    process: Any = field(default=None, repr=False)

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def journal_path(self) -> pathlib.Path:
        return self.job_dir / JOURNAL_FILE

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_payload(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` body (and the ``status.json`` content)."""
        out: Dict[str, Any] = {
            "id": self.id, "seq": self.seq, "tenant": self.tenant,
            "state": self.state, "workload": self.spec.workload,
            "schemes": list(self.spec.schemes), "restarts": self.restarts,
            "resume": self.resume, "started_order": self.started_order,
            "completed_runs": self.completed_runs,
            "quarantined_runs": self.quarantined_runs,
        }
        if self.exit_code is not None:
            out["exit_code"] = self.exit_code
        if self.error is not None:
            out["error"] = self.error
        if self.latency is not None:
            out["latency"] = self.latency
        if self.lease is not None:
            out["lease"] = self.lease
        return out

    def write_status(self) -> None:
        write_json_durable(self.job_dir / STATUS_FILE, self.status_payload())


def job_id(seq: int, tenant: str) -> str:
    return f"{seq:06d}-{tenant}"


def spec_record(job: Job) -> Dict[str, Any]:
    """The ``spec.json`` content: everything recovery needs to rebuild."""
    return {"id": job.id, "seq": job.seq, "spec": job.spec.payload()}


# -- the job child process ---------------------------------------------------

def job_process_main(payload: Dict[str, Any], job_dir: str,
                     resume: bool) -> None:
    """Entry point of the per-job child process.

    Runs the sweep under the full supervision ladder with the job's
    journal; the exit code is the contract with the service parent:

    - ``0`` — every run completed (``report.ok``);
    - ``1`` — finished, but some runs were quarantined (partial results);
    - ``8`` — drained on SIGTERM (``SweepInterrupted``): resumable;
    - any other :class:`~repro.resilience.errors.ReproError` exit code —
      a typed failure, details in ``error.json``;
    - killed (negative) — crash or the service watchdog: the parent knows
      which, because the watchdog is the parent.
    """
    from repro.sim.supervisor import SweepPolicy, run_supervised

    job_path = pathlib.Path(job_dir)
    spec = JobSpec.from_payload(payload)
    specs = spec.to_runspecs(job_path)
    policy = SweepPolicy(run_timeout=spec.run_timeout, retries=spec.retries)
    try:
        report = run_supervised(specs, jobs=spec.jobs, policy=policy,
                                journal=job_path / JOURNAL_FILE,
                                resume=resume)
    except SweepInterrupted:
        sys.exit(SweepInterrupted.exit_code)
    except ReproError as exc:
        write_json_durable(job_path / ERROR_FILE,
                           {"type": type(exc).__name__, "message": str(exc)})
        sys.exit(exc.exit_code)
    sys.exit(0 if report.ok else 1)


__all__ = [
    "ERROR_FILE",
    "JOURNAL_FILE",
    "Job",
    "JobSpec",
    "SPEC_FILE",
    "STATUS_FILE",
    "TERMINAL_STATES",
    "job_id",
    "job_process_main",
    "known_schemes",
    "read_json",
    "read_json_tolerant",
    "spec_record",
    "write_json_durable",
]
