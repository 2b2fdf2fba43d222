"""Supervised, crash-safe sweep execution.

Every figure and table of the paper is a sweep over (scheme × workload)
pairs, and the long campaigns that make cache studies trustworthy are
exactly the ones that hit real failures: a worker segfaults or is OOM
killed, one run hangs, the parent catches Ctrl-C, the whole box dies.  The
plain pool runner (:func:`repro.sim.parallel.run_many`) treats any of those
as "throw away the entire sweep"; this module supervises the sweep instead.

:func:`run_supervised` executes a list of
:class:`~repro.sim.parallel.RunSpec` with ``submit``/``wait`` plus ordered
reassembly (results land by spec index, never by completion order) and
climbs a supervision ladder per run:

1. **Timeout** — each attempt gets a wall-clock budget
   (:attr:`SweepPolicy.run_timeout`).  Because at most one attempt is in
   flight per worker, an overdue future means a *hung worker*: the pool's
   processes are killed and replaced, the timed-out run is charged a
   failure, and innocent in-flight runs are requeued without charge.
2. **Retry** — a failed attempt is retried up to :attr:`SweepPolicy.retries`
   times with deterministic exponential backoff: the delay jitter is seeded
   from :func:`~repro.sim.parallel.derive_seed` ``(spec.seed, attempt)``,
   and the retry reuses the spec's *original* seed, so a sweep with retries
   produces results bit-identical to a serial sweep — backoff perturbs only
   the schedule, never the simulation.
3. **Quarantine** — after ``retries + 1`` failures a spec is declared
   poison: it is recorded (journal + report) and the sweep *continues* with
   the remaining specs instead of aborting.
4. **Salvage** — the returned :class:`SweepReport` carries every completed
   :class:`~repro.sim.engine.RunResult` plus a per-run
   :class:`RunOutcome` (status, attempts, elapsed, error), so callers keep
   partial results even when some runs are lost.

A worker that *dies* (``BrokenProcessPool``) or raises ``MemoryError``
surfaces as a typed :class:`~repro.resilience.errors.WorkerCrashError`.  A
broken pool cannot say which run killed its worker, so only attributable
crashes are charged: a run that breaks the pool while it is the only run
lost is charged one failure; when several runs are lost together, none is
charged and each becomes a *suspect* that is rerun alone, so the poisonous
one breaks its pool alone and is charged, and innocents are never
quarantined for sharing a pool with it.  The pool is rebuilt either way.

**Journal.**  With ``journal=PATH`` every completed run is appended to a
crash-safe JSONL journal: one self-contained line per record, written with
a single buffered write, flushed and ``fsync``'d before the supervisor
moves on — SIGKILL at any instant loses at most the in-flight runs, and a
half-written final line is tolerated on load.  ``resume=True`` validates
the journal's header (a digest per spec, so a journal can never silently
resume a *different* sweep), preloads the completed results, and reruns
only the missing ones; a resumed sweep's results are bit-identical to an
uninterrupted one because each run is deterministic given its spec and the
journal stores full-precision floats (JSON round-trips Python floats
exactly).

**Signals.**  SIGINT/SIGTERM stop new submissions, drain the in-flight
runs, record them, flush the journal and raise
:class:`~repro.resilience.errors.SweepInterrupted` (CLI exit code 8) with
the partial report attached.  A second signal falls through to the default
disposition for anyone who really means it.

``strict=True`` preserves the historical ``run_many`` contract: the first
run to exhaust its attempts re-raises its original exception (the pool is
torn down, nothing is silently dropped).  Non-strict callers get the
:class:`SweepReport` and decide for themselves.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pathlib
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.obs import metrics as obs_metrics
from repro.resilience.checkpoint import epoch_from_json, epoch_to_json
from repro.resilience.errors import (
    CheckpointError,
    ConfigError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.sim.engine import RunResult
from repro.sim.parallel import RunSpec, _run_spec, derive_seed, resolve_jobs

#: Journal format version; bumped on any incompatible record change.
JOURNAL_VERSION = 1


# -- policy -----------------------------------------------------------------

@dataclass(frozen=True)
class SweepPolicy:
    """Supervision knobs for one sweep.  All validated at construction."""

    run_timeout: Optional[float] = None
    """Wall-clock seconds per attempt; ``None`` disables hang detection."""

    retries: int = 0
    """Extra attempts after the first failure before quarantine."""

    backoff_base: float = 0.5
    """First retry delay in seconds (doubles per attempt); 0 = no sleep."""

    backoff_cap: float = 30.0
    """Upper bound on any single backoff delay."""

    poll_interval: float = 0.05
    """Supervisor wake-up cadence for deadlines/signals/backoff releases."""

    def __post_init__(self) -> None:
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigError("run_timeout",
                              f"must be > 0 seconds, got {self.run_timeout}")
        if self.retries < 0:
            raise ConfigError("retries", f"must be >= 0, got {self.retries}")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base",
                              f"must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < 0:
            raise ConfigError("backoff_cap",
                              f"must be >= 0, got {self.backoff_cap}")
        if self.poll_interval <= 0:
            raise ConfigError("poll_interval",
                              f"must be > 0, got {self.poll_interval}")

    def backoff_delay(self, run_seed: int, attempt: int) -> float:
        """Deterministic exponential backoff before retry ``attempt``.

        The jitter is seeded from ``(run_seed, attempt)`` via
        :func:`derive_seed` — two supervisors replaying the same sweep
        sleep identically, and nothing here touches the run's own seed.
        """
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        jitter = derive_seed(run_seed, attempt) / float(2 ** 31)  # [0, 1)
        return delay * (0.5 + jitter / 2)


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (deterministic, no interp)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))  # ceil(q*n)
    return ordered[min(rank, len(ordered)) - 1]


# -- outcomes and the report ------------------------------------------------

@dataclass
class RunOutcome:
    """What happened to one spec of the sweep."""

    index: int
    key: str
    """Spec digest (see :func:`spec_key`); ties journal records to specs."""

    status: str = "pending"
    """``"ok"``, ``"quarantined"``, or ``"pending"`` (interrupted sweep)."""

    attempts: int = 0
    elapsed: float = 0.0
    """Wall-clock seconds summed over all attempts."""

    from_journal: bool = False
    """True when the result was loaded from a resumed journal."""

    error: Optional[str] = None
    """``"Type: message"`` of the last failure, if any."""

    exception: Optional[BaseException] = field(default=None, repr=False)
    """The last failure itself (never serialised; for strict re-raise)."""


@dataclass
class SweepReport:
    """Everything a supervised sweep produced, successes and casualties.

    ``results[i]`` belongs to ``specs[i]`` (ordered reassembly); it is
    ``None`` exactly when ``outcomes[i]`` is not ``"ok"``.
    """

    results: List[Optional[RunResult]]
    outcomes: List[RunOutcome]
    elapsed: float = 0.0
    interrupted: bool = False

    @property
    def succeeded(self) -> List[int]:
        return [o.index for o in self.outcomes if o.status == "ok"]

    @property
    def quarantined(self) -> List[int]:
        return [o.index for o in self.outcomes if o.status == "quarantined"]

    @property
    def retried(self) -> List[int]:
        return [o.index for o in self.outcomes
                if o.status == "ok" and o.attempts > 1]

    @property
    def resumed(self) -> List[int]:
        return [o.index for o in self.outcomes if o.from_journal]

    @property
    def ok(self) -> bool:
        return not self.interrupted and all(o.status == "ok"
                                            for o in self.outcomes)

    def raise_first(self) -> None:
        """Re-raise the first (by spec index) quarantined run's exception."""
        for outcome in self.outcomes:
            if outcome.status == "quarantined":
                if outcome.exception is not None:
                    raise outcome.exception
                raise WorkerCrashError(
                    f"run {outcome.index} failed: {outcome.error}")

    def latency(self) -> Dict[str, float]:
        """Wall-clock shape of the sweep: total plus per-run percentiles.

        ``total`` is this sweep invocation's wall clock; the percentiles
        (nearest-rank ``p50``/``p90``/``max``) are over the per-run elapsed
        of every completed run, journal-resumed ones included, so a service
        can report job latency without re-parsing journals.
        """
        elapsed = [o.elapsed for o in self.outcomes if o.status == "ok"]
        return {
            "total": self.elapsed,
            "runs": float(len(elapsed)),
            "p50": _percentile(elapsed, 0.50),
            "p90": _percentile(elapsed, 0.90),
            "max": max(elapsed) if elapsed else 0.0,
        }

    def summary(self) -> str:
        parts = [f"{len(self.succeeded)}/{len(self.outcomes)} runs ok"]
        if self.retried:
            parts.append(f"{len(self.retried)} retried")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.resumed:
            parts.append(f"{len(self.resumed)} resumed from journal")
        parts.append(f"{self.elapsed:.1f}s")
        lat = self.latency()
        if lat["runs"]:
            parts.append(f"run p50/p90/max "
                         f"{lat['p50']:.1f}/{lat['p90']:.1f}/{lat['max']:.1f}s")
        return ", ".join(parts)


# -- spec and result serialisation ------------------------------------------

def spec_key(spec: RunSpec) -> str:
    """Stable digest of everything that determines a run's results.

    Two specs share a key iff a completed result for one is a valid result
    for the other — this is what lets a journal refuse to resume a
    different sweep.
    """
    ident = (spec.scheme, spec.workload.name, repr(spec.config), spec.seed,
             spec.epochs, spec.accesses_per_core, spec.warmup_epochs,
             repr(spec.morph), spec.engine, repr(spec.fault_plan))
    return hashlib.sha256(repr(ident).encode()).hexdigest()[:16]


def result_to_json(result: RunResult) -> Dict[str, Any]:
    return {
        "workload": result.workload_name,
        "scheme": result.scheme_name,
        "epochs": [epoch_to_json(e) for e in result.epochs],
    }


def result_from_json(payload: Dict[str, Any]) -> RunResult:
    return RunResult(
        workload_name=payload["workload"],
        scheme_name=payload["scheme"],
        epochs=[epoch_from_json(e) for e in payload["epochs"]],
    )


# -- the journal ------------------------------------------------------------

class SweepJournal:
    """Append-only JSONL journal of completed sweep runs.

    Line kinds: ``header`` (once, identifies the sweep by its spec keys),
    ``run`` (a completed result), ``quarantine`` (a spec given up on), and
    ``resume`` (a marker appended each time a sweep resumes).  Every line
    is written with one buffered write, then flushed and ``fsync``'d, so a
    record is either fully on disk or (if the process dies mid-write) a
    truncated final line that :meth:`load_completed` skips.

    **Fencing.**  When the sweep runs under a worker-pool lease
    (:mod:`repro.serve.lease`), ``extra`` stamps the lease token onto every
    record and ``guard`` is invoked before each durable write — it raises
    :class:`~repro.resilience.errors.LeaseLostError` when a peer has
    reclaimed the job, so a zombie holder aborts instead of appending
    stale state.  Loaders ignore both fields, which keeps pool journals
    byte-compatible with single-worker ones (extra keys on otherwise
    identical records).
    """

    def __init__(self, path, handle, extra: Optional[Dict[str, Any]] = None,
                 guard: Optional[Callable[[], None]] = None) -> None:
        self.path = pathlib.Path(path)
        self._handle = handle
        self._extra = dict(extra) if extra else None
        self._guard = guard

    # -- creation / loading -------------------------------------------------

    @classmethod
    def create(cls, path, keys: Sequence[str],
               extra: Optional[Dict[str, Any]] = None,
               guard: Optional[Callable[[], None]] = None) -> "SweepJournal":
        """Start a fresh journal (truncating any previous file)."""
        path = pathlib.Path(path)
        try:
            handle = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(f"cannot open sweep journal {path}: {exc}") from exc
        journal = cls(path, handle, extra=extra, guard=guard)
        journal._write({"kind": "header", "version": JOURNAL_VERSION,
                        "runs": len(keys), "keys": list(keys)})
        return journal

    @classmethod
    def load_completed(cls, path, keys: Sequence[str]) -> Dict[int, Dict[str, Any]]:
        """Parse a journal: ``{index: run-record}`` for completed runs.

        Tolerates a truncated final line (the signature of a mid-write
        kill).  Raises :class:`CheckpointError` when the file is missing,
        the header is unreadable, or the header's keys do not match
        ``keys`` — the journal belongs to a different sweep.
        """
        path = pathlib.Path(path)
        if not path.exists():
            raise CheckpointError(f"no sweep journal at {path}")
        records: Dict[int, Dict[str, Any]] = {}
        header = None
        try:
            lines = path.read_text(encoding="utf-8").split("\n")
        except OSError as exc:
            raise CheckpointError(f"cannot read sweep journal {path}: {exc}") from exc
        for line in lines:
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated mid-write; the record was never durable
            kind = payload.get("kind")
            if kind == "header":
                if header is None:
                    header = payload
                continue
            if kind != "run":
                continue  # quarantine/resume markers don't complete a run
            index = payload.get("index")
            if (isinstance(index, int) and 0 <= index < len(keys)
                    and payload.get("key") == keys[index]):
                records[index] = payload
            else:
                raise CheckpointError(
                    f"sweep journal {path} records run {index!r} with key "
                    f"{payload.get('key')!r}, which is not part of this "
                    "sweep — refusing to resume a different experiment")
        if header is None:
            raise CheckpointError(
                f"sweep journal {path} has no readable header")
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"sweep journal {path} has format version "
                f"{header.get('version')}, this build reads {JOURNAL_VERSION}")
        if list(header.get("keys", [])) != list(keys):
            raise CheckpointError(
                f"sweep journal {path} belongs to a different sweep "
                f"({len(header.get('keys', []))} runs vs {len(keys)} expected, "
                "or mismatched specs)")
        return records

    @classmethod
    def reopen(cls, path, completed: int,
               extra: Optional[Dict[str, Any]] = None,
               guard: Optional[Callable[[], None]] = None) -> "SweepJournal":
        """Open an existing (validated) journal for appending.

        The ``resume`` marker goes through the fencing ``guard`` like any
        other record, so a resume (or adoption) that lost its lease while
        loading the journal is rejected before it writes anything.
        """
        path = pathlib.Path(path)
        try:
            handle = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(f"cannot append to sweep journal {path}: {exc}") from exc
        journal = cls(path, handle, extra=extra, guard=guard)
        journal._write({"kind": "resume", "completed": completed})
        return journal

    # -- records ------------------------------------------------------------

    def record_run(self, index: int, key: str, attempts: int, elapsed: float,
                   result: RunResult) -> None:
        self._write({"kind": "run", "index": index, "key": key,
                     "attempts": attempts, "elapsed": elapsed,
                     "result": result_to_json(result)})

    def record_quarantine(self, index: int, key: str, attempts: int,
                          error: str) -> None:
        self._write({"kind": "quarantine", "index": index, "key": key,
                     "attempts": attempts, "error": error})

    def record_summary(self, report: "SweepReport") -> None:
        """Append the sweep's latency summary (total + per-run percentiles).

        Written when a supervised sweep finishes (or drains on a signal),
        so journal consumers — the service, ``repro journal`` — can report
        job latency without re-parsing every run record.  Not a ``run``
        record, so resume logic ignores it.
        """
        payload = {"kind": "summary", "completed": len(report.succeeded)}
        payload.update(report.latency())
        self._write(payload)

    def _write(self, payload: Dict[str, Any]) -> None:
        if self._guard is not None:
            self._guard()  # fencing: may raise LeaseLostError
        if self._extra:
            payload = {**payload, **self._extra}
        line = json.dumps(payload, separators=(",", ":"))
        try:
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise CheckpointError(
                f"cannot write sweep journal {self.path}: {exc}") from exc

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


# -- journal inspection ------------------------------------------------------

@dataclass
class JournalSummary:
    """What a sweep journal says happened, without loading any results.

    Produced by :func:`inspect_journal`; shared by the service's restart
    recovery (deciding whether a journal is resumable) and the ``repro
    journal`` CLI (humans debugging a crashed sweep).
    """

    path: str
    version: int
    total: int
    """Run count the header promises."""

    completed: List[int]
    """Indices with a durable ``run`` record."""

    quarantined: List[int]
    """Indices quarantined and never subsequently completed."""

    retried: List[int]
    """Completed indices whose final record took more than one attempt."""

    resumes: int
    """How many times a sweep resumed from this journal."""

    truncated_tail: bool
    """The file ends in a half-written line — the signature of a SIGKILL
    (or power loss) mid-write; the torn record was never durable."""

    bad_lines: int
    """Unparseable lines, truncated tail included."""

    elapsed: Optional[float] = None
    """Sweep wall clock from the latest ``summary`` record, if any."""

    latency: Optional[Dict[str, float]] = None
    """Per-run percentiles (``p50``/``p90``/``max``) — from the latest
    ``summary`` record when present, else recomputed from run records."""

    leases: List[str] = field(default_factory=list)
    """Lease tokens (``fence:owner``) seen on records, in first-appearance
    order.  More than one token means the job changed hands — a service
    restart resumed it, or a pool peer adopted it after a crash."""

    @property
    def adoptions(self) -> int:
        """Ownership changes recorded in the journal itself."""
        return max(0, len(self.leases) - 1)

    @property
    def missing(self) -> int:
        return self.total - len(self.completed)

    @property
    def complete(self) -> bool:
        return self.missing == 0 and not self.quarantined

    def render(self) -> str:
        """Human-readable multi-line summary (the ``repro journal`` body)."""
        lines = [f"journal: {self.path} (format v{self.version})",
                 f"runs: {len(self.completed)}/{self.total} completed"
                 + (f", {len(self.quarantined)} quarantined"
                    if self.quarantined else "")
                 + (f", {len(self.retried)} retried" if self.retried else "")]
        if self.resumes:
            lines.append(f"resumes: {self.resumes}")
        if self.leases:
            chain = " -> ".join(self.leases)
            suffix = (f" ({self.adoptions} handover(s))"
                      if self.adoptions else "")
            lines.append(f"leases: {chain}{suffix}")
        if self.truncated_tail:
            lines.append("truncated tail: yes — the final line is torn "
                         "(mid-write kill); that record was never durable")
        elif self.bad_lines:
            lines.append(f"unreadable lines: {self.bad_lines}")
        if self.latency is not None:
            total = (f"total {self.elapsed:.1f}s, "
                     if self.elapsed is not None else "")
            lines.append(f"wall-clock: {total}per-run p50/p90/max "
                         f"{self.latency['p50']:.1f}/"
                         f"{self.latency['p90']:.1f}/"
                         f"{self.latency['max']:.1f}s")
        if self.complete:
            lines.append("status: complete")
        else:
            parts = []
            if self.missing:
                parts.append(f"{self.missing} run(s) missing")
            if self.quarantined:
                parts.append(f"{len(self.quarantined)} quarantined "
                             "(fresh attempt budget on resume)")
            lines.append(f"status: resumable — {', '.join(parts)}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path, "version": self.version, "total": self.total,
            "completed": self.completed, "quarantined": self.quarantined,
            "retried": self.retried, "resumes": self.resumes,
            "truncated_tail": self.truncated_tail,
            "bad_lines": self.bad_lines, "elapsed": self.elapsed,
            "latency": self.latency, "missing": self.missing,
            "complete": self.complete, "leases": self.leases,
            "adoptions": self.adoptions,
        }


def inspect_journal(path, keys: Optional[Sequence[str]] = None) -> JournalSummary:
    """Validate and summarize a sweep journal without loading results.

    With ``keys`` the journal is held to the same standard as a resume:
    the header must match this sweep's spec digests and every run record
    must carry the right key, else :class:`CheckpointError`.  Without
    ``keys`` the journal is summarized as found (mismatched run records
    still raise — they mean the file is internally inconsistent).

    Raises:
        CheckpointError: missing file, unreadable header, version drift,
            or (with ``keys``) a journal belonging to a different sweep.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"no sweep journal at {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read sweep journal {path}: {exc}") from exc
    lines = [line for line in text.split("\n") if line.strip()]
    header: Optional[Dict[str, Any]] = None
    runs: Dict[int, Dict[str, Any]] = {}
    quarantined: Dict[int, int] = {}
    resumes = 0
    bad_lines = 0
    truncated_tail = False
    summary_record: Optional[Dict[str, Any]] = None
    leases: List[str] = []
    for lineno, line in enumerate(lines):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            bad_lines += 1
            truncated_tail = lineno == len(lines) - 1
            continue
        kind = payload.get("kind")
        token = payload.get("lease")
        if isinstance(token, str) and (not leases or leases[-1] != token):
            leases.append(token)
        if kind == "header":
            if header is None:
                header = payload
        elif kind == "run":
            index = payload.get("index")
            if not isinstance(index, int):
                raise CheckpointError(
                    f"sweep journal {path} has a run record without a "
                    "valid index")
            if keys is not None and not (
                    0 <= index < len(keys)
                    and payload.get("key") == keys[index]):
                raise CheckpointError(
                    f"sweep journal {path} records run {index!r} with key "
                    f"{payload.get('key')!r}, which is not part of this "
                    "sweep — refusing to resume a different experiment")
            runs[index] = payload
            quarantined.pop(index, None)
        elif kind == "quarantine":
            index = payload.get("index")
            if isinstance(index, int) and index not in runs:
                quarantined[index] = quarantined.get(index, 0) + 1
        elif kind == "resume":
            resumes += 1
        elif kind == "summary":
            summary_record = payload
    if header is None:
        raise CheckpointError(f"sweep journal {path} has no readable header")
    if header.get("version") != JOURNAL_VERSION:
        raise CheckpointError(
            f"sweep journal {path} has format version "
            f"{header.get('version')}, this build reads {JOURNAL_VERSION}")
    if keys is not None and list(header.get("keys", [])) != list(keys):
        raise CheckpointError(
            f"sweep journal {path} belongs to a different sweep "
            f"({len(header.get('keys', []))} runs vs {len(keys)} expected, "
            "or mismatched specs)")
    total = int(header.get("runs", len(header.get("keys", []))))
    if summary_record is not None:
        elapsed = summary_record.get("total")
        latency = {k: float(summary_record.get(k, 0.0))
                   for k in ("p50", "p90", "max")}
    else:
        per_run = [float(r.get("elapsed", 0.0)) for r in runs.values()]
        elapsed = None
        latency = ({"p50": _percentile(per_run, 0.50),
                    "p90": _percentile(per_run, 0.90),
                    "max": max(per_run)} if per_run else None)
    return JournalSummary(
        path=str(path), version=int(header["version"]), total=total,
        completed=sorted(runs),
        quarantined=sorted(quarantined),
        retried=sorted(i for i, r in runs.items()
                       if int(r.get("attempts", 1)) > 1),
        resumes=resumes, truncated_tail=truncated_tail,
        bad_lines=bad_lines, elapsed=elapsed, latency=latency,
        leases=leases)


# -- signal draining --------------------------------------------------------

class _SignalDrain:
    """Flip a flag on the first SIGINT/SIGTERM; restore default for the next.

    Installed only from the main thread (signal handlers cannot be set from
    anywhere else); in worker threads the drain is a no-op and the signal
    keeps its default disposition.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.received: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def __enter__(self) -> "_SignalDrain":
        if threading.current_thread() is threading.main_thread():
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()

    def _handle(self, signum, frame) -> None:
        self.received = signum
        # A second signal means "now": fall back to the default disposition.
        signal.signal(signum, self._previous.get(signum, signal.SIG_DFL))

    @property
    def name(self) -> str:
        return signal.Signals(self.received).name if self.received else ""


# -- the supervisor ---------------------------------------------------------

def _bind_worker_to_parent() -> None:
    """Pool-worker initializer: die when the supervising process does.

    A SIGKILLed supervisor gets no chance to tear its executor down, and
    CPython's pool workers then block forever in their call-queue read —
    each child holds its own write end of that pipe, so EOF never comes.
    The worker-pool failover drills SIGKILL supervisors on purpose, and
    every orphan is a leaked interpreter pinning a CPU slot.  On Linux,
    ask the kernel to deliver SIGKILL on parent death instead; elsewhere
    this is a no-op and the orphan is bounded by the drill, not by
    production operation.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL))
        # The parent may have died between fork and prctl: check, and go.
        # Compare against the pid that forked us, not 1 — under a child
        # subreaper (tini, systemd, PR_SET_CHILD_SUBREAPER) an orphan is
        # reparented to the subreaper instead of init.
        parent = multiprocessing.parent_process()
        if parent is not None and os.getppid() != parent.pid:
            os.kill(os.getpid(), signal.SIGKILL)
    except Exception:
        pass  # non-Linux / restricted libc: keep the old behaviour


def _pool_internals(pool: ProcessPoolExecutor):
    """The pool's worker processes and manager thread, read *before*
    ``shutdown`` (which drops both references).  The attributes are
    private but stable across CPython 3.8–3.13."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    return processes, getattr(pool, "_executor_manager_thread", None)


def _kill_pool(pool: ProcessPoolExecutor, grace: float = 5.0) -> None:
    """Forcibly replace a pool whose worker(s) hung: kill, then discard.

    ``shutdown`` alone would block behind the hung task forever;
    ``Process.kill`` is the only lever that actually reclaims the worker.
    """
    processes, manager = _pool_internals(pool)
    for process in processes:
        try:
            process.kill()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:  # see _retire_pool
        manager.join(grace)


def _retire_pool(pool: ProcessPoolExecutor, grace: float = 5.0) -> None:
    """Shut a pool down so the caller's *process exit* can never hang.

    ``shutdown(wait=False)`` defers the real teardown to interpreter-exit
    hooks, which join the (non-daemonic) workers.  CPython's executor
    shutdown has a rare race in which a worker misses its exit sentinel
    and stays blocked in its call-queue read forever — it holds its own
    write end of that pipe, so EOF never arrives, and the joining process
    wedges at exit.  Give the polite path a short grace, then SIGKILL the
    stragglers: by the time we are here every result we care about has
    already travelled back through its future (or been cancelled), so an
    idle worker holds nothing worth draining.

    Finally wait, within the same grace, for the executor's manager
    thread.  ``shutdown(wait=False)`` returns while that thread is still
    closing its wakeup pipe, and CPython's interpreter-exit hook writes to
    every live manager's wakeup pipe without the executor's lock: a
    process exiting inside that window dies with ``OSError: [Errno 9] Bad
    file descriptor`` and exits 1 although its sweep completed.
    """
    processes, manager = _pool_internals(pool)
    pool.shutdown(wait=False, cancel_futures=True)
    deadline = time.monotonic() + grace
    for process in processes:
        process.join(max(deadline - time.monotonic(), 0.0))
    for process in processes:
        if process.is_alive():
            try:
                process.kill()
            except OSError:
                pass
    if manager is not None:
        manager.join(max(deadline - time.monotonic(), 0.0))


def run_supervised(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    policy: Optional[SweepPolicy] = None,
    journal=None,
    resume: bool = False,
    strict: bool = False,
    worker: Optional[Callable[[RunSpec], RunResult]] = None,
    journal_extra: Optional[Dict[str, Any]] = None,
    journal_guard: Optional[Callable[[], None]] = None,
) -> SweepReport:
    """Run a sweep under the full supervision ladder.  See module docstring.

    Args:
        specs: the runs to perform.
        jobs: worker processes (argument, else ``REPRO_JOBS``, else 1).
            Unlike :func:`~repro.sim.parallel.run_many`, ``jobs=1`` still
            uses one worker *process* — crash isolation and hang detection
            need the process boundary.
        policy: timeouts/retries/backoff; defaults to :class:`SweepPolicy`.
        journal: JSONL journal path; completed runs are appended as they
            finish.  Without ``resume`` an existing file is overwritten.
        resume: preload completed runs from ``journal`` (which must match
            this sweep's specs) and execute only the missing ones.
        strict: re-raise the first run's final failure instead of
            quarantining — the historical ``run_many`` contract.
        worker: the per-spec callable executed in the worker process
            (default: the real simulation).  Must be picklable; exposed for
            fault-injection harnesses and tests.
        journal_extra: fields stamped onto every journal record — the
            worker pool passes its lease token here so journal lines carry
            provable ownership.
        journal_guard: called before every durable journal write; raises
            (typically :class:`~repro.resilience.errors.LeaseLostError`)
            to reject writes from a holder whose lease was reclaimed.

    Returns:
        A :class:`SweepReport` with ordered results and per-run outcomes.

    Raises:
        SweepInterrupted: SIGINT/SIGTERM arrived; in-flight runs were
            drained and journaled, the partial report rides on the
            exception.
        CheckpointError: the journal could not be written, or does not
            belong to this sweep on resume.
        Exception: in strict mode, whatever the first failing run raised
            (worker deaths as :class:`WorkerCrashError`).
    """
    specs = list(specs)
    policy = policy or SweepPolicy()
    run = worker if worker is not None else _run_spec
    jobs = min(resolve_jobs(jobs), max(len(specs), 1))
    keys = [spec_key(spec) for spec in specs]
    outcomes = [RunOutcome(index=i, key=key) for i, key in enumerate(keys)]
    results: List[Optional[RunResult]] = [None] * len(specs)

    jrnl: Optional[SweepJournal] = None
    if journal is not None:
        if resume:
            loaded = SweepJournal.load_completed(journal, keys)
            for index, record in loaded.items():
                results[index] = result_from_json(record["result"])
                outcome = outcomes[index]
                outcome.status = "ok"
                outcome.attempts = int(record.get("attempts", 1))
                outcome.elapsed = float(record.get("elapsed", 0.0))
                outcome.from_journal = True
            jrnl = SweepJournal.reopen(journal, completed=len(loaded),
                                       extra=journal_extra,
                                       guard=journal_guard)
        else:
            jrnl = SweepJournal.create(journal, keys, extra=journal_extra,
                                       guard=journal_guard)
    elif resume:
        raise CheckpointError("resume requested without a journal path")

    pending = deque(o.index for o in outcomes if o.status == "pending")
    release: Dict[int, float] = {}  # index -> monotonic backoff release time
    # Runs lost together in a pool break: rerun one at a time, uncharged,
    # until an attempt of each settles (succeeds or is charged).
    suspects: Set[int] = set()
    inflight: Dict[Any, tuple] = {}  # future -> (index, started, deadline)
    pool: Optional[ProcessPoolExecutor] = None
    t_start = time.monotonic()

    def fail(index: int, exc: BaseException, elapsed: float) -> None:
        """Charge one failed attempt; retry with backoff or quarantine."""
        suspects.discard(index)
        outcome = outcomes[index]
        outcome.attempts += 1
        outcome.elapsed += elapsed
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.exception = exc
        reg = obs_metrics.REGISTRY
        if outcome.attempts > policy.retries:
            outcome.status = "quarantined"
            if reg.enabled:
                reg.counter("repro_sweep_runs_total",
                            "Sweep runs finished, by final status",
                            labels=("status",)).labels(
                    status="quarantined").inc()
            if jrnl is not None:
                jrnl.record_quarantine(index, keys[index], outcome.attempts,
                                       outcome.error)
            if strict:
                raise exc
        else:
            if reg.enabled:
                reg.counter("repro_sweep_retries_total",
                            "Failed sweep attempts re-queued for retry").inc()
            release[index] = (time.monotonic()
                              + policy.backoff_delay(specs[index].seed,
                                                     outcome.attempts))
            pending.append(index)

    def succeed(index: int, result: RunResult, elapsed: float) -> None:
        suspects.discard(index)
        outcome = outcomes[index]
        outcome.attempts += 1
        outcome.elapsed += elapsed
        outcome.status = "ok"
        outcome.error = None
        outcome.exception = None
        results[index] = result
        reg = obs_metrics.REGISTRY
        if reg.enabled:
            reg.counter("repro_sweep_runs_total",
                        "Sweep runs finished, by final status",
                        labels=("status",)).labels(status="ok").inc()
            reg.histogram("repro_sweep_run_seconds",
                          "Per-attempt wall clock of successful sweep runs"
                          ).observe(elapsed)
        if jrnl is not None:
            jrnl.record_run(index, keys[index], outcome.attempts,
                            outcome.elapsed, result)

    try:
        with _SignalDrain() as drain:
            while pending or inflight:
                if drain.received is not None and not inflight:
                    break  # drained; whatever is still queued stays pending
                now = time.monotonic()
                # Submit, at most one attempt per worker slot: every
                # submitted future is genuinely *executing*, which is what
                # makes its wall-clock deadline meaningful.  While suspects
                # of a pool break remain (at the head of the queue), runs
                # go one at a time.
                limit = 1 if suspects else jobs
                while (drain.received is None and pending
                       and len(inflight) < limit):
                    index = _pop_eligible(pending, release, now)
                    if index is None:
                        break
                    if pool is None:
                        # Always fork: workers start warm from this
                        # process, whatever the caller's default start
                        # method (a spawned or forkserver child inherits
                        # its own, and would re-import the simulator).
                        pool = ProcessPoolExecutor(
                            max_workers=jobs,
                            mp_context=multiprocessing.get_context("fork"),
                            initializer=_bind_worker_to_parent)
                    try:
                        future = pool.submit(run, specs[index])
                    except BrokenProcessPool:
                        # A worker died since the last submission.  This
                        # run never started: requeue it uncharged.  The
                        # break surfaces through the in-flight futures;
                        # with none, nothing else will, so drop the pool.
                        pending.appendleft(index)
                        if inflight:
                            break
                        _kill_pool(pool)
                        pool = None
                        continue
                    deadline = (now + policy.run_timeout
                                if policy.run_timeout else None)
                    inflight[future] = (index, now, deadline)
                if not inflight:
                    if drain.received is not None:
                        break
                    # Everything runnable is backing off; sleep to the
                    # earliest release (bounded by the poll interval).
                    until = min(release.get(i, now) for i in pending)
                    time.sleep(min(max(until - now, 0.0) + 1e-4,
                                   policy.poll_interval * 4))
                    continue

                done, _ = wait(set(inflight), timeout=policy.poll_interval,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                lost: List[tuple] = []  # (index, elapsed) of a pool break
                for future in done:
                    index, started, _ = inflight.pop(future)
                    elapsed = now - started
                    exc = future.exception()
                    if exc is None:
                        succeed(index, future.result(), elapsed)
                        continue
                    if isinstance(exc, BrokenProcessPool):
                        lost.append((index, elapsed))
                        continue
                    if isinstance(exc, MemoryError):
                        exc = WorkerCrashError(
                            f"worker ran out of memory on run {index} "
                            f"({specs[index].scheme} on "
                            f"{specs[index].workload.name})")
                    fail(index, exc, elapsed)
                if lost:
                    # A break fails every in-flight future; collect those
                    # wait() has not returned yet (salvaging any that
                    # finished before the break).
                    for future, (index, started, _) in list(inflight.items()):
                        del inflight[future]
                        if future.done() and future.exception() is None:
                            succeed(index, future.result(), now - started)
                        else:
                            lost.append((index, now - started))
                    if pool is not None:
                        _kill_pool(pool)
                        pool = None
                    if len(lost) == 1:
                        # Alone in the break: the crash is this run's.
                        index, elapsed = lost[0]
                        spec = specs[index]
                        fail(index, WorkerCrashError(
                            f"worker process died while running "
                            f"{spec.scheme} on {spec.workload.name} "
                            f"(run {index}): BrokenProcessPool"), elapsed)
                    else:
                        for index, _ in sorted(lost, reverse=True):
                            suspects.add(index)
                            pending.appendleft(index)  # no charge

                # Hang detection: an overdue, still-running future means
                # its worker is wedged.  Kill the pool, charge the overdue
                # runs, and requeue the innocent in-flight ones without
                # charging an attempt (salvaging any that finished in the
                # race window between wait() and here).
                overdue = [(future, entry) for future, entry in
                           inflight.items()
                           if entry[2] is not None and now >= entry[2]
                           and not future.done()]
                if overdue:
                    for future, _ in overdue:
                        del inflight[future]
                    preempted = list(inflight.items())
                    inflight.clear()
                    if pool is not None:
                        _kill_pool(pool)
                        pool = None
                    if obs_metrics.REGISTRY.enabled:
                        obs_metrics.REGISTRY.counter(
                            "repro_sweep_timeouts_total",
                            "Runs killed for exceeding the wall-clock "
                            "timeout").inc(len(overdue))
                    for future, (index, started, deadline) in overdue:
                        fail(index, WorkerCrashError(
                            f"run {index} ({specs[index].scheme} on "
                            f"{specs[index].workload.name}) exceeded the "
                            f"{policy.run_timeout:g}s wall-clock timeout; "
                            "worker killed"), now - started)
                    for future, (index, started, deadline) in preempted:
                        if future.done() and future.exception() is None:
                            succeed(index, future.result(), now - started)
                        else:
                            pending.appendleft(index)  # innocent: no charge
            interrupted = drain.received is not None
            interrupted_by = drain.name
        report = SweepReport(results=results, outcomes=outcomes,
                             elapsed=time.monotonic() - t_start,
                             interrupted=interrupted)
        if jrnl is not None:
            jrnl.record_summary(report)
    finally:
        if pool is not None:
            _retire_pool(pool)
        if jrnl is not None:
            jrnl.close()

    if interrupted:
        raise SweepInterrupted(
            f"sweep interrupted by {interrupted_by} after draining in-flight "
            f"runs ({report.summary()})"
            + (f"; journal {jrnl.path} is resumable" if jrnl else ""),
            report=report)
    return report


def _pop_eligible(pending: deque, release: Dict[int, float],
                  now: float) -> Optional[int]:
    """First pending index whose backoff has elapsed (stable order)."""
    for _ in range(len(pending)):
        index = pending.popleft()
        if release.get(index, 0.0) <= now:
            return index
        pending.append(index)
    return None


__all__ = [
    "SweepPolicy",
    "RunOutcome",
    "SweepReport",
    "SweepJournal",
    "JournalSummary",
    "inspect_journal",
    "run_supervised",
    "spec_key",
    "result_to_json",
    "result_from_json",
    "JOURNAL_VERSION",
]
