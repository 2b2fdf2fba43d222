"""Tests for restart-time recovery: classifying the service's state dir.

Job directories are fabricated on disk exactly as the service writes them
(durable spec.json, real sweep journals via SweepJournal, durable
status.json), then classified — no service process needed to prove the
recovery contract.
"""

import json

import pytest

from repro.serve.jobs import (
    Job,
    JobSpec,
    job_id,
    spec_record,
    write_json_durable,
)
from repro.serve.recovery import recover_job_dir, recover_state
from repro.sim.engine import EpochResult, RunResult
from repro.sim.supervisor import SweepJournal

PAYLOAD = {"tenant": "alice", "workload": "MIX 01",
           "schemes": ["morphcache", "pipp"], "epochs": 2, "seed": 3}


def _result(seed=1.0):
    return RunResult(workload_name="MIX 01", scheme_name="morphcache",
                     epochs=[EpochResult(epoch=0, ipcs={0: seed},
                                         misses={0: 1},
                                         topology_label=None)])


def _make_job_dir(root, seq=1, payload=PAYLOAD, tenant="alice"):
    payload = {**payload, "tenant": tenant}
    spec = JobSpec.from_payload(payload)
    job = Job(id=job_id(seq, tenant), seq=seq, spec=spec,
              job_dir=root / "jobs" / job_id(seq, tenant))
    job.job_dir.mkdir(parents=True)
    write_json_durable(job.job_dir / "spec.json", spec_record(job))
    return job


def _write_journal(job, completed=(), close=True):
    keys = job.spec.journal_keys(job.job_dir)
    journal = SweepJournal.create(job.journal_path, keys)
    for index in completed:
        journal.record_run(index, keys[index], attempts=1, elapsed=0.5,
                           result=_result(float(index + 1)))
    if close:
        journal.close()
    return journal


class TestClassification:
    def test_admitted_but_never_started_is_queued(self, tmp_path):
        job = _make_job_dir(tmp_path)
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "queued"
        assert entry.job.resume is False
        assert entry.job.spec == job.spec

    def test_partial_journal_is_interrupted_and_resumable(self, tmp_path):
        job = _make_job_dir(tmp_path)
        _write_journal(job, completed=[0])
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "interrupted"
        assert entry.job.resume is True
        assert entry.summary.completed == [0]
        assert entry.summary.missing == 1

    def test_torn_journal_tail_still_resumable(self, tmp_path):
        # A SIGKILL mid-write leaves a truncated final line; every durable
        # record before it is still good.
        job = _make_job_dir(tmp_path)
        _write_journal(job, completed=[0])
        with open(job.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"run","index":1,"key"')
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "interrupted"
        assert entry.summary.truncated_tail
        assert entry.summary.completed == [0]

    def test_foreign_journal_restarts_fresh(self, tmp_path):
        # A journal whose header does not match this job's spec keys is
        # untrustworthy: requeue from scratch rather than resume wrong data.
        job = _make_job_dir(tmp_path)
        SweepJournal.create(job.journal_path, ["bogus-key"]).close()
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "queued"
        assert entry.job.resume is False

    def test_terminal_status_wins(self, tmp_path):
        job = _make_job_dir(tmp_path)
        _write_journal(job, completed=[0, 1])
        job.state = "done"
        job.exit_code = 0
        job.completed_runs = 2
        job.latency = {"total": 1.25, "p50": 0.5, "p90": 0.6, "max": 0.6}
        job.write_status()
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "terminal"
        assert entry.job.state == "done"
        assert entry.job.completed_runs == 2
        assert entry.job.latency["total"] == 1.25

    @pytest.mark.parametrize("torn", [
        b"",                       # crash before the first byte landed
        b'{"state": "done", "ex',  # classic torn tail
        b"null",                   # valid JSON, not an object
        b"[1, 2]",                 # valid JSON, wrong shape
        b"\x00\xff garbage",       # not JSON at all
    ], ids=["empty", "truncated", "null", "list", "binary"])
    def test_torn_status_is_interrupted_not_a_crash(self, tmp_path, torn):
        # status.json is written durably (tmp + fsync + rename), so a torn
        # or non-object file means completion never became durable: the
        # journal decides, and a partial journal resumes.  Before this
        # tolerance, recovery died with JSONDecodeError and took the whole
        # restart down with it.
        job = _make_job_dir(tmp_path)
        _write_journal(job, completed=[0])
        (job.job_dir / "status.json").write_bytes(torn)
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "interrupted"
        assert entry.job.resume is True
        assert entry.summary.completed == [0]

    def test_torn_status_without_journal_is_queued(self, tmp_path):
        job = _make_job_dir(tmp_path)
        (job.job_dir / "status.json").write_text('{"sta')
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "queued"
        assert entry.job.resume is False

    def test_status_lease_provenance_is_recovered(self, tmp_path):
        # Pool workers stamp the raw fencing token plus a worker field
        # into the terminal status; recovery must normalise it to the
        # dict shape the service keeps in memory.
        job = _make_job_dir(tmp_path)
        _write_journal(job, completed=[0, 1])
        job.state = "done"
        job.exit_code = 0
        job.write_status()
        status = json.loads((job.job_dir / "status.json").read_text())
        status["lease"] = "2:bravo"
        status["worker"] = "bravo"
        write_json_durable(job.job_dir / "status.json", status)
        entry = recover_job_dir(job.job_dir)
        assert entry.phase == "terminal"
        assert entry.job.lease == {"token": "2:bravo", "worker": "bravo"}

    def test_torn_spec_is_skipped_not_guessed(self, tmp_path):
        job_dir = tmp_path / "jobs" / "000009-evil"
        job_dir.mkdir(parents=True)
        (job_dir / "spec.json").write_text('{"id": "000009-ev')
        assert recover_job_dir(job_dir) is None
        report = recover_state(tmp_path)
        assert report.jobs == []
        assert report.skipped == ["000009-evil"]

    def test_removed_scheme_is_skipped_and_its_seq_not_reissued(
            self, tmp_path):
        kept = _make_job_dir(tmp_path, seq=1)
        job_dir = tmp_path / "jobs" / job_id(2, "alice")
        job_dir.mkdir(parents=True)
        record = spec_record(kept)
        record.update(id=job_id(2, "alice"), seq=2)
        record["spec"]["schemes"] = ["ucp"]
        write_json_durable(job_dir / "spec.json", record)
        report = recover_state(tmp_path)
        assert [e.job.seq for e in report.jobs] == [1]
        assert report.skipped == [job_id(2, "alice")]
        assert report.next_seq == 3


class TestStateScan:
    def test_seq_order_and_next_seq(self, tmp_path):
        for seq, tenant in ((3, "bob"), (1, "alice"), (2, "alice")):
            _make_job_dir(tmp_path, seq=seq, tenant=tenant)
        report = recover_state(tmp_path)
        assert [e.job.seq for e in report.jobs] == [1, 2, 3]
        assert report.next_seq == 4

    def test_mixed_phases(self, tmp_path):
        done = _make_job_dir(tmp_path, seq=1)
        _write_journal(done, completed=[0, 1])
        done.state = "done"
        done.write_status()
        crashed = _make_job_dir(tmp_path, seq=2, tenant="bob")
        _write_journal(crashed, completed=[0])
        _make_job_dir(tmp_path, seq=3, tenant="carol")

        report = recover_state(tmp_path)
        assert [e.phase for e in report.jobs] == ["terminal", "interrupted",
                                                 "queued"]
        assert len(report.terminal) == 1
        assert len(report.interrupted) == 1
        assert len(report.queued) == 1

    def test_empty_or_missing_dir(self, tmp_path):
        report = recover_state(tmp_path / "nothing-here")
        assert report.jobs == [] and report.next_seq == 1
