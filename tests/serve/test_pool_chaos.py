"""Pool chaos: SIGKILL'd and SIGSTOP'd workers, adoption, fencing.

The acceptance scenario for the horizontal pool: kill a worker holding a
lease mid-sweep, watch a peer claim the next fence after the heartbeat
TTL, and prove the adopted job's per-epoch results are byte-identical to
the golden fixture captured from an uninterrupted run.  The SIGSTOP
variant revives the original holder as a zombie and proves its stale
writes are rejected (exit code 10) instead of corrupting the adopter's
output.

Slow (multi-process, real TTL waits); CI runs this as the gating
`pool-chaos` job.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

from repro.serve.jobs import JOURNAL_FILE, JobSpec, STATUS_FILE
from repro.serve.lease import read_lease
from repro.serve.pool import SharedPool, pool_status
from repro.sim.supervisor import (
    SweepJournal,
    inspect_journal,
    result_from_json,
)

from tests.serve.conftest import REPO, wait_for_journal_run

#: Same fixture the service chaos suite pins against (tests/serve/test_chaos.py).
GOLDEN = json.loads((pathlib.Path(__file__).parents[1] / "sim"
                     / "golden_tiny_mix01.json").read_text())

#: The golden sweep, serialised (jobs=1) so the kill window spans the whole
#: ~2s sweep instead of a fraction of it.  Determinism makes the results
#: independent of the jobs count, so the jobs=2 fixture still applies.
SCHEMES = ["morphcache", "(16:1:1)", "(1:1:16)", "(4:4:1)", "(8:2:1)",
           "(1:16:1)"]
GOLDEN_SPEC = dict(workload="MIX 01", schemes=SCHEMES, preset="tiny",
                   epochs=3, seed=7, jobs=1, trace=False, tenant="alice")

#: Fast heartbeats so the suite waits ~0.6s for expiry, not the default 3s.
HEARTBEAT, MISSES = 0.2, 3


def start_worker(pool_dir, worker_id, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop("REPRO_JOBS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--pool", str(pool_dir),
         "--worker-id", worker_id, *extra],
        env=env, cwd=str(REPO), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def kill_worker(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def make_golden_pool(tmp_path):
    pool = SharedPool.ensure(tmp_path / "pool", heartbeat=HEARTBEAT,
                             misses=MISSES)
    job = pool.admit(JobSpec.from_payload(dict(GOLDEN_SPEC)))
    return pool, job


def assert_golden(job):
    """Every run completed; the fixture-pinned schemes match it exactly."""
    records = SweepJournal.load_completed(
        job.job_dir / JOURNAL_FILE, job.spec.journal_keys(job.job_dir))
    assert sorted(records) == list(range(len(SCHEMES)))
    for index, scheme in enumerate(SCHEMES):
        if scheme not in GOLDEN:
            continue  # the fixture pins a representative subset
        got = result_from_json(records[index]["result"])
        expected = GOLDEN[scheme]
        assert len(got.epochs) == len(expected["epochs"])
        for got_epoch, want in zip(got.epochs, expected["epochs"]):
            assert got_epoch.epoch == want["epoch"]
            assert got_epoch.topology_label == want["topology_label"]
            assert ({str(c): repr(v) for c, v in got_epoch.ipcs.items()}
                    == want["ipcs"])
            assert ({str(c): v for c, v in got_epoch.misses.items()}
                    == want["misses"])


def test_sigkill_holder_peer_adopts_bit_identically(tmp_path):
    pool, job = make_golden_pool(tmp_path)

    alpha = start_worker(pool.root, "alpha")
    try:
        wait_for_journal_run(job.job_dir, timeout=120)
    finally:
        kill_worker(alpha)  # mid-sweep: journal has >=1 run, no status

    assert not (job.job_dir / STATUS_FILE).exists()
    before = inspect_journal(job.job_dir / JOURNAL_FILE)
    assert before.leases == ["1:alpha"]

    bravo = start_worker(pool.root, "bravo", "--drain")
    out, err = bravo.communicate(timeout=300)
    assert bravo.returncode == 0, f"adopter failed: {err}"

    # The adopter waited out the TTL, won fence 2, resumed the journal.
    status = json.loads((job.job_dir / STATUS_FILE).read_text())
    assert status["state"] == "done"
    assert status["worker"] == "bravo"
    assert status["lease"] == "2:bravo"
    lease = read_lease(job.job_dir)
    assert lease.fence == 2
    assert lease.released
    assert lease.reclaims == 1

    after = inspect_journal(job.job_dir / JOURNAL_FILE)
    assert after.leases == ["1:alpha", "2:bravo"]
    assert after.adoptions == 1
    assert after.resumes >= 1
    assert after.complete
    # Nothing alpha completed was recomputed.
    assert set(before.completed) <= set(after.completed)

    assert pool_status(pool.root)["reclaims"] == 1
    assert_golden(job)


def test_sigstop_zombie_writes_rejected_after_adoption(tmp_path):
    pool, job = make_golden_pool(tmp_path)

    zombie = start_worker(pool.root, "zombie")
    try:
        wait_for_journal_run(job.job_dir, timeout=120)
        os.killpg(zombie.pid, signal.SIGSTOP)  # freeze mid-sweep

        adopter = start_worker(pool.root, "adopter", "--drain")
        out, err = adopter.communicate(timeout=300)
        assert adopter.returncode == 0, f"adopter failed: {err}"
        status = json.loads((job.job_dir / STATUS_FILE).read_text())
        assert status["worker"] == "adopter"

        # Revive the zombie: its very next fenced write (journal guard or
        # heartbeat renew) must see fence 2 and abort with exit code 10 —
        # LeaseLostError — never append stale records.
        os.killpg(zombie.pid, signal.SIGCONT)
        assert zombie.wait(timeout=120) == 10
    finally:
        kill_worker(zombie)

    after = inspect_journal(job.job_dir / JOURNAL_FILE)
    assert after.leases == ["1:zombie", "2:adopter"]  # no third entry: the
    assert after.adoptions == 1                       # zombie wrote nothing
    status = json.loads((job.job_dir / STATUS_FILE).read_text())
    assert status["state"] == "done"
    assert status["lease"] == "2:adopter"
    assert_golden(job)


def test_serial_worker_baseline_matches_golden(tmp_path):
    """Control: one worker, no chaos, same fixture — pins that the golden
    comparison itself is sound before the two kill variants rely on it."""
    pool, job = make_golden_pool(tmp_path)
    solo = start_worker(pool.root, "solo", "--drain")
    out, err = solo.communicate(timeout=300)
    assert solo.returncode == 0, f"worker failed: {err}"
    status = json.loads((job.job_dir / STATUS_FILE).read_text())
    assert status["state"] == "done"
    summary = inspect_journal(job.job_dir / JOURNAL_FILE)
    assert summary.leases == ["1:solo"]
    assert summary.adoptions == 0
    assert_golden(job)
