"""Shared worker pool tests: admission, claiming, draining, smoke.

The capstone here is the pool-smoke scenario (also a gating CI job): two
real worker processes drain a 20-job queue cooperatively and every job's
results are identical to computing the same spec serially in-process —
horizontal scale must be a pure wall-clock optimisation, never a results
change.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.resilience.errors import PoolCorruptError
from repro.serve.jobs import JOURNAL_FILE, JobSpec, STATUS_FILE
from repro.serve.lease import acquire, read_lease
from repro.serve.pool import (
    POOL_FILE,
    PoolConfig,
    SharedPool,
    pool_status,
    run_worker,
)

REPO = pathlib.Path(__file__).parents[2]

TINY = dict(workload="MIX 01", schemes=["morphcache"], preset="tiny",
            epochs=2, seed=7, trace=False)


def make_spec(**over):
    payload = dict(TINY, tenant="t1")
    payload.update(over)
    return JobSpec.from_payload(payload)


def make_pool(tmp_path, heartbeat=0.2, misses=3):
    return SharedPool.ensure(tmp_path / "pool", heartbeat=heartbeat,
                             misses=misses)


# -- pool creation -----------------------------------------------------------

def test_ensure_creates_layout_and_config(tmp_path):
    pool = make_pool(tmp_path, heartbeat=0.5, misses=4)
    assert (pool.root / POOL_FILE).exists()
    assert (pool.root / "jobs").is_dir()
    assert (pool.root / "staging").is_dir()
    assert (pool.root / "workers").is_dir()
    assert pool.config.ttl == pytest.approx(2.0)


def test_existing_pool_config_wins_over_flags(tmp_path):
    make_pool(tmp_path, heartbeat=0.5, misses=4)
    reopened = SharedPool.ensure(tmp_path / "pool", heartbeat=9.0, misses=9)
    assert reopened.config.heartbeat == pytest.approx(0.5)
    assert reopened.config.misses == 4


def test_torn_pool_file_is_pool_corrupt(tmp_path):
    pool = make_pool(tmp_path)
    (pool.root / POOL_FILE).write_text('{"version": 1, "heart')
    with pytest.raises(PoolCorruptError):
        SharedPool.open(pool.root)


def test_open_requires_existing_pool(tmp_path):
    with pytest.raises(PoolCorruptError):
        SharedPool.open(tmp_path / "nope")


def test_pool_config_validation():
    with pytest.raises(PoolCorruptError):
        PoolConfig(heartbeat=0.0)
    with pytest.raises(PoolCorruptError):
        PoolConfig(misses=0)


# -- admission ---------------------------------------------------------------

def test_admit_is_atomic_and_sequential(tmp_path):
    pool = make_pool(tmp_path)
    a = pool.admit(make_spec())
    b = pool.admit(make_spec(tenant="t2"))
    assert (a.seq, b.seq) == (1, 2)
    assert a.id == "000001-t1"
    assert (a.job_dir / "spec.json").exists()
    # Nothing half-admitted lingers in staging.
    assert os.listdir(pool.root / "staging") == []


def test_admit_seq_survives_restart_scan(tmp_path):
    pool = make_pool(tmp_path)
    pool.admit(make_spec())
    again = SharedPool.open(tmp_path / "pool")
    assert again.admit(make_spec()).seq == 2


# -- claiming ----------------------------------------------------------------

def test_claim_next_in_seq_order(tmp_path):
    pool = make_pool(tmp_path)
    first = pool.admit(make_spec())
    pool.admit(make_spec(tenant="t2"))
    job, handle, resume = pool.claim_next("w0")
    assert job.id == first.id
    assert handle.fence == 1
    assert resume is False
    # The claimed job is skipped; the next claim gets job 2.
    job2, handle2, _ = pool.claim_next("w0")
    assert job2.seq == 2
    handle.release()
    handle2.release()


def test_claim_next_skips_terminal_and_empty(tmp_path):
    pool = make_pool(tmp_path)
    assert pool.claim_next("w0") is None
    job = pool.admit(make_spec())
    (job.job_dir / STATUS_FILE).write_text(json.dumps({"state": "done"}))
    assert pool.claim_next("w0") is None
    assert pool.all_terminal()


def test_claim_next_releases_on_cancel_race(tmp_path):
    # A cancelled status landing between the scan and the claim must not
    # leave the job leased.
    pool = make_pool(tmp_path)
    job = pool.admit(make_spec())
    real_acquire = acquire

    def racing_acquire(job_dir, owner, ttl):
        handle = real_acquire(job_dir, owner, ttl)
        (pathlib.Path(job_dir) / STATUS_FILE).write_text(
            json.dumps({"state": "cancelled"}))
        return handle

    import repro.serve.pool as pool_mod
    original = pool_mod.acquire
    pool_mod.acquire = racing_acquire
    try:
        assert pool.claim_next("w0") is None
    finally:
        pool_mod.acquire = original
    state = read_lease(job.job_dir)
    assert state.released  # claimed, noticed the status, released


def test_claim_adopts_interrupted_job_with_resume(tmp_path):
    pool = make_pool(tmp_path)
    job = pool.admit(make_spec())
    # A real partial journal: run the sweep once, keep the journal,
    # delete the status — exactly the disk state a crashed worker leaves.
    assert run_worker(pool.root, "first", drain=True) == 1
    (job.job_dir / STATUS_FILE).unlink()
    claimed, handle, resume = pool.claim_next("adopter")
    assert claimed.id == job.id
    assert resume is True
    assert handle.fence == 2  # first's released fence is history
    handle.release()


# -- the worker loop ---------------------------------------------------------

def test_run_worker_drains_and_writes_fenced_status(tmp_path):
    pool = make_pool(tmp_path)
    jobs = [pool.admit(make_spec(seed=seed)) for seed in (7, 8)]
    assert run_worker(pool.root, "w0", drain=True) == 2
    for job in jobs:
        status = json.loads((job.job_dir / STATUS_FILE).read_text())
        assert status["state"] == "done"
        assert status["worker"] == "w0"
        assert status["lease"] == "1:w0"
        state = read_lease(job.job_dir)
        assert state.released
    # Worker liveness landed too.
    heartbeat = json.loads(
        (pool.root / "workers" / "w0.json").read_text())
    assert heartbeat["jobs_done"] == 2
    assert heartbeat["running"] is None


def test_run_worker_drain_on_empty_pool(tmp_path):
    pool = make_pool(tmp_path)
    assert run_worker(pool.root, "w0", drain=True) == 0


def test_run_worker_max_jobs(tmp_path):
    pool = make_pool(tmp_path)
    for seed in (1, 2, 3):
        pool.admit(make_spec(seed=seed))
    assert run_worker(pool.root, "w0", max_jobs=1) == 1
    assert not pool.all_terminal()


def test_failed_job_gets_fenced_failure_status(tmp_path):
    # An unopenable journal path (a directory squatting on the name) makes
    # the supervisor raise CheckpointError — a typed ReproError the worker
    # must convert into a durable, fenced `failed` status instead of
    # crashing the loop.
    pool = make_pool(tmp_path)
    job = pool.admit(make_spec())
    (job.job_dir / JOURNAL_FILE).mkdir()
    assert run_worker(pool.root, "w0", drain=True) == 1
    status = json.loads((job.job_dir / STATUS_FILE).read_text())
    assert status["state"] == "failed"
    assert status["worker"] == "w0"
    assert status["error"]["type"] == "CheckpointError"
    assert (job.job_dir / "error.json").exists()
    assert read_lease(job.job_dir).released
    assert pool.all_terminal()


def test_pool_status_shape(tmp_path):
    pool = make_pool(tmp_path)
    job = pool.admit(make_spec())
    run_worker(pool.root, "w0", drain=True)
    status = pool_status(pool.root)
    assert status["counts"] == {"done": 1}
    assert status["reclaims"] == 0
    assert status["config"]["ttl"] == pytest.approx(pool.config.ttl)
    (entry,) = status["jobs"]
    assert entry["id"] == job.id
    assert entry["state"] == "done"
    assert entry["worker"] == "w0"
    assert entry["lease"]["released"] is True
    (worker,) = status["workers"]
    assert worker["worker"] == "w0"
    assert worker["jobs_done"] == 1


# -- pool smoke: two real workers, serial-identical results ------------------

def _start_worker(pool_dir, worker_id):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop("REPRO_JOBS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--pool", str(pool_dir),
         "--worker-id", worker_id, "--drain"],
        env=env, cwd=str(REPO), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_pool_smoke_two_workers_match_serial(tmp_path):
    """Two worker processes drain 20 jobs; every result is bit-identical
    to the same spec computed serially in this process."""
    from repro.config import preset
    from repro.sim.experiment import run_scheme
    from repro.sim.supervisor import (
        SweepJournal,
        inspect_journal,
        result_from_json,
    )
    from repro.sim.workload import Workload

    pool = make_pool(tmp_path, heartbeat=0.5, misses=4)
    seeds = [1 + (i % 4) for i in range(20)]
    jobs = [pool.admit(make_spec(seed=seed)) for seed in seeds]

    workers = [_start_worker(pool.root, f"smoke-{i}") for i in range(2)]
    for proc in workers:
        out, err = proc.communicate(timeout=420)
        assert proc.returncode == 0, f"worker failed: {err}"
    assert pool.all_terminal()

    # Serial event-engine references, one per distinct seed (the pool ran
    # the default batch engine).
    machine = preset("tiny")
    workload = Workload.from_name("MIX 01")
    reference = {
        seed: run_scheme("morphcache", workload, machine, seed=seed,
                         epochs=2, engine="event")
        for seed in sorted(set(seeds))
    }

    executed_by = set()
    for job, seed in zip(jobs, seeds):
        status = json.loads((job.job_dir / STATUS_FILE).read_text())
        assert status["state"] == "done"
        executed_by.add(status["worker"])
        records = SweepJournal.load_completed(
            job.job_dir / JOURNAL_FILE, job.spec.journal_keys(job.job_dir))
        (record,) = records.values()
        want = reference[seed]
        got = result_from_json(record["result"])
        assert len(got.epochs) == len(want.epochs)
        for got_epoch, want_epoch in zip(got.epochs, want.epochs):
            assert got_epoch.topology_label == want_epoch.topology_label
            assert got_epoch.ipcs == want_epoch.ipcs
            assert got_epoch.misses == want_epoch.misses
        summary = inspect_journal(job.job_dir / JOURNAL_FILE)
        assert summary.adoptions == 0  # nobody crashed in the smoke run

    # Both workers actually participated (20 jobs, 2 pullers).
    assert len(executed_by) == 2, f"only {executed_by} executed jobs"


# -- serve --workers: the service as a pool observer -------------------------

def test_serve_workers_mode_end_to_end(tmp_path):
    """`repro serve --workers 2`: HTTP admission into the pool, spawned
    workers drain it, the service reports worker provenance, and a
    SIGTERM drain exits clean."""
    from tests.serve.conftest import drain, kill_group, start_service

    proc, client = start_service(tmp_path, "--workers", "2",
                                 "--worker-heartbeat", "0.2")
    try:
        submitted = client.submit(tenant="alice", workload="MIX 01",
                                  schemes=["morphcache"], preset="tiny",
                                  epochs=2, seed=4, trace=False)
        jid = submitted["job"]["id"]
        done = client.wait_for_state(jid, ("done",), timeout=240)
        assert done["state"] == "done"
        assert done["exit_code"] == 0
        # Worker provenance flows HTTP-side: which worker, which fence.
        assert done["lease"]["worker"].startswith("svc-")
        result = client.result(jid)
        assert len(result["runs"]) == 1
        # The job dir on disk is the standard pool contract.
        job_dir = tmp_path / "jobs" / jid
        status = json.loads((job_dir / STATUS_FILE).read_text())
        assert status["worker"].startswith("svc-")
        assert read_lease(job_dir).released
    finally:
        code = drain(proc)
    assert code == 0
    kill_group(proc)
