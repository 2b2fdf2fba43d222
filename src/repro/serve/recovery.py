"""Restart-time recovery: rebuild the service's world from its state dir.

The service's only durable state is the per-job directory contract from
:mod:`repro.serve.jobs` (fsync'd ``spec.json`` at admission, the
supervisor's crash-safe journal during execution, fsync'd ``status.json``
at completion).  Recovery is therefore a pure *classification* pass over
``<state_dir>/jobs/*`` — no replay log, no database:

- ``status.json`` parses        -> **terminal**: load it, don't run again.
- else journal valid for spec   -> **interrupted**: requeue, resume=True —
  ``run_supervised(resume=True)`` reruns only the missing runs, and the
  result is bit-identical to an uninterrupted job (DESIGN.md §8).
- else (no/unusable journal)    -> **queued**: requeue fresh.  A journal
  whose *header* never became durable proves no run record exists either
  (records are written strictly after the header), so restarting from
  scratch loses nothing.
- ``spec.json`` missing/torn    -> the job was never durably admitted (or
  the dir is foreign): reported as skipped, never guessed at.  The same
  holds for a spec this version no longer accepts (say, a removed
  scheme).  A skipped dir keeps its files, so its seq is never reissued.

Jobs are returned in admission (``seq``) order, so re-enqueueing them
preserves every tenant's queue position across the restart.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.resilience.errors import CheckpointError
from repro.serve.jobs import (
    JOURNAL_FILE,
    Job,
    JobSpec,
    SPEC_FILE,
    STATUS_FILE,
    read_json,
    read_json_tolerant,
)
from repro.sim.supervisor import JournalSummary, inspect_journal

#: The seq a job dir's name claims (``job_id`` writes ``<seq>-<tenant>``).
_SEQ_PREFIX = re.compile(r"^(\d+)-")


@dataclass
class RecoveredJob:
    """One job dir's classification."""

    job: Job
    phase: str
    """``"terminal"``, ``"interrupted"`` or ``"queued"``."""

    status: Optional[Dict[str, Any]] = None
    """The parsed ``status.json`` of a terminal job."""

    summary: Optional[JournalSummary] = None
    """The journal summary of an interrupted job."""


@dataclass
class RecoveryReport:
    jobs: List[RecoveredJob] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    """Job dirs that could not be recovered (torn/missing spec.json)."""

    next_seq: int = 1

    @property
    def interrupted(self) -> List[RecoveredJob]:
        return [r for r in self.jobs if r.phase == "interrupted"]

    @property
    def queued(self) -> List[RecoveredJob]:
        return [r for r in self.jobs if r.phase == "queued"]

    @property
    def terminal(self) -> List[RecoveredJob]:
        return [r for r in self.jobs if r.phase == "terminal"]


def recover_job_dir(job_dir: pathlib.Path) -> Optional[RecoveredJob]:
    """Classify one job directory; ``None`` when it is not a valid job."""
    try:
        record = read_json(job_dir / SPEC_FILE)
        spec = JobSpec.from_payload(record["spec"])
        job = Job(id=str(record["id"]), seq=int(record["seq"]), spec=spec,
                  job_dir=job_dir)
    except Exception:
        return None

    status_path = job_dir / STATUS_FILE
    if status_path.exists():
        status = read_json_tolerant(status_path)
        if status is not None:
            job.apply_status(status)
            return RecoveredJob(job=job, phase="terminal", status=status)
        # A truncated, half-written, or non-object status.json means the
        # completion write never became durable (or the file was damaged
        # by hand): the job is *not* terminal.  Fall through to the
        # journal and classify it interrupted/queued — never surface the
        # parse failure as a crash.

    journal_path = job_dir / JOURNAL_FILE
    if journal_path.exists():
        try:
            summary = inspect_journal(journal_path,
                                      keys=spec.journal_keys(job_dir))
        except CheckpointError:
            # Unreadable header or a different sweep's journal: nothing in
            # it is trustworthy, and nothing durable can be lost by
            # starting over (run records only ever follow a valid header).
            job.resume = False
            job.state = "queued"
            return RecoveredJob(job=job, phase="queued")
        job.resume = True
        job.state = "queued"
        job.completed_runs = len(summary.completed)
        return RecoveredJob(job=job, phase="interrupted", summary=summary)

    job.state = "queued"
    return RecoveredJob(job=job, phase="queued")


def recover_state(state_dir) -> RecoveryReport:
    """Scan ``<state_dir>/jobs`` and classify every job, in seq order."""
    report = RecoveryReport()
    jobs_root = pathlib.Path(state_dir) / "jobs"
    if not jobs_root.is_dir():
        return report
    recovered: List[RecoveredJob] = []
    seqs: List[int] = []
    for job_dir in sorted(jobs_root.iterdir()):
        if not job_dir.is_dir():
            continue
        entry = recover_job_dir(job_dir)
        if entry is None:
            report.skipped.append(job_dir.name)
            # Its files stay on disk: a new job must not be handed its id.
            claimed = _SEQ_PREFIX.match(job_dir.name)
            if claimed:
                seqs.append(int(claimed.group(1)))
            continue
        recovered.append(entry)
        seqs.append(entry.job.seq)
    recovered.sort(key=lambda entry: entry.job.seq)
    report.jobs = recovered
    report.next_seq = max(seqs, default=0) + 1
    return report


__all__ = ["RecoveredJob", "RecoveryReport", "recover_job_dir",
           "recover_state"]
