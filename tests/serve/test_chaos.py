"""Chaos: SIGKILL the whole service mid-sweep, restart, resume bit-exact.

The acceptance scenario for restart-time recovery: two tenants, tenant
A's sweep provably mid-flight, then the entire process tree dies the way
a machine does — SIGKILL, no warning, no cleanup.  A restarted service
on the same state directory must (a) keep tenant B's queued job (losing
an admitted job is data loss), (b) resume A's sweep from its journal
without recomputing durable runs, and (c) land on results bit-identical
to an uninterrupted run — proven against the repo's golden fixture, the
same floats the determinism suite pins.
"""

import json
import pathlib

from repro.sim.supervisor import inspect_journal, result_from_json

from tests.serve.conftest import (
    kill_group,
    start_service,
    wait_for_journal_run,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parents[1] / "sim"
     / "golden_tiny_mix01.json").read_text())

#: The golden sweep: the exact spec the fixture's floats were captured
#: from (MIX 01, tiny preset, 3 epochs, seed 7) over six schemes, two of
#: which — morphcache and (16:1:1) — are pinned in the fixture.
GOLDEN_JOB = dict(workload="MIX 01",
                  schemes=["morphcache", "(16:1:1)", "(1:1:16)", "(4:4:1)",
                           "(8:2:1)", "(1:16:1)"],
                  preset="tiny", epochs=3, seed=7, jobs=2, trace=False)
FAST_JOB = dict(workload="MIX 01", scheme="morphcache", preset="tiny",
                epochs=2, seed=3, trace=False)


def test_sigkill_restart_resumes_bit_identically(tmp_path):
    proc, client = start_service(tmp_path, "--workers", "1")
    sweep_id = queued_id = None
    try:
        sweep = client.submit(tenant="alice", **GOLDEN_JOB)
        sweep_id = sweep["job"]["id"]
        queued = client.submit(tenant="bob", **FAST_JOB)
        queued_id = queued["job"]["id"]
        assert client.job(queued_id)["state"] == "queued"

        # Provably mid-sweep: >= 1 durable run record, more runs missing.
        job_dir = tmp_path / "jobs" / sweep_id
        wait_for_journal_run(job_dir)
    finally:
        # The machine dies: service, its pool worker and the sweep
        # processes, all SIGKILLed in one shot.  No journals flushed, no statuses written.
        kill_group(proc)

    assert not (job_dir / "status.json").exists()
    before = inspect_journal(job_dir / "journal.jsonl")
    assert 0 < len(before.completed) < len(GOLDEN_JOB["schemes"])

    proc2, client2 = start_service(tmp_path)
    try:
        # Queue position survives: recovery re-admits in admission order,
        # so the interrupted sweep dispatches first and bob's job second.
        done = client2.wait_for_state(sweep_id, ("done", "partial", "failed"),
                                      timeout=240)
        assert done["state"] == "done"
        assert done["resume"] is True
        assert done["started_order"] == 1
        fast = client2.wait_for_state(queued_id, ("done",), timeout=240)
        assert fast["started_order"] == 2

        # The journal proves a resume happened and nothing was recomputed.
        after = inspect_journal(job_dir / "journal.jsonl")
        assert after.resumes >= 1
        assert after.complete
        assert set(before.completed) <= set(after.completed)

        # Bit-identical to an uninterrupted run: the fixture's floats.
        result = client2.result(sweep_id)
        assert len(result["runs"]) == len(GOLDEN_JOB["schemes"])
        by_scheme = {run["scheme"]: run for run in result["runs"]}
        for scheme, expected in GOLDEN.items():
            got = result_from_json(by_scheme[scheme]["result"])
            assert len(got.epochs) == len(expected["epochs"])
            for got_epoch, want in zip(got.epochs, expected["epochs"]):
                assert got_epoch.epoch == want["epoch"]
                assert got_epoch.topology_label == want["topology_label"]
                assert ({str(c): repr(v) for c, v in got_epoch.ipcs.items()}
                        == want["ipcs"])
                assert ({str(c): v for c, v in got_epoch.misses.items()}
                        == want["misses"])
    finally:
        kill_group(proc2)


def test_restart_preserves_terminal_results_without_rerunning(tmp_path):
    proc, client = start_service(tmp_path)
    try:
        done = client.submit(tenant="alice", **FAST_JOB)
        done_id = done["job"]["id"]
        first = client.wait_for_state(done_id, ("done",), timeout=120)
    finally:
        kill_group(proc)

    journal = tmp_path / "jobs" / done_id / "journal.jsonl"
    stamp = journal.stat().st_mtime_ns

    proc2, client2 = start_service(tmp_path)
    try:
        status = client2.job(done_id)
        assert status["state"] == "done"
        assert status["latency"] == first["latency"]
        # Results are served straight from the recovered journal.
        result = client2.result(done_id)
        assert result["runs"][0]["scheme"] == "morphcache"
        assert journal.stat().st_mtime_ns == stamp  # nothing re-ran
    finally:
        kill_group(proc2)
