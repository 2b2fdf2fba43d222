"""End-to-end tests against a live ``repro serve`` subprocess.

A module-scoped service instance carries the cheap smoke/API tests (CI's
gating ``service-smoke`` job runs this file); behavioral tests that need
their own admission limits, watchdog or drain semantics boot short-lived
instances.  Every simulation here is the ``tiny`` preset — real runs, not
mocks, in a second or two each.
"""

import http.client
import json
import os
import pathlib
import signal
import time

import pytest

from repro.serve.client import ServiceHTTPError
from repro.serve.jobs import read_json_tolerant
from repro.serve.lease import read_lease
from repro.sim.experiment import run_scheme
from repro.sim.supervisor import result_to_json
from repro.sim.workload import Workload
from repro.config import preset
from repro.resilience.errors import SweepInterrupted

from tests.serve.conftest import (
    alive,
    descendants,
    drain,
    kill_group,
    start_service,
    start_service_with,
    wait_for_journal_run,
    wait_gone,
)

FAST_JOB = dict(workload="MIX 01", scheme="morphcache", preset="tiny",
                epochs=2, seed=3)
#: ~4 tiny runs: long enough to observe "running", queued backlogs, drains.
SLOW_JOB = dict(workload="MIX 01",
                schemes=["morphcache", "pipp", "dsr", "(16:1:1)"],
                preset="tiny", epochs=3, seed=5, trace=False)
#: One run far longer than any watchdog cap used below (~1 s per epoch).
LONG_JOB = dict(workload="MIX 01", scheme="morphcache", preset="small",
                epochs=40, seed=5, trace=False)
#: Two such runs side by side: ``jobs=2`` forks the sweep's process pool.
TWO_RUN_JOB = dict(workload="MIX 01", schemes=["morphcache", "(16:1:1)"],
                   preset="small", epochs=40, seed=5, trace=False, jobs=2)
TERMINAL = ("done", "partial", "failed")


def wait_for_holder_tree(state_dir, job_id, forked=False, timeout=60.0):
    """Pids of the pool worker holding ``job_id``'s lease, then of the
    sweep processes it forked.

    The lease's owner is a worker id, and ``workers/<id>.json`` gives that
    worker's pid (a respawned slot's file names its dead predecessor until
    the new worker's first heartbeat, so only a live pid counts).  With
    ``forked`` the tree is returned once the holder has forked a sweep
    process; a default (``jobs=1``) job runs in the holder itself.
    """
    job_dir = pathlib.Path(state_dir) / "jobs" / job_id
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lease = read_lease(job_dir)
        if lease is not None and not lease.released:
            beat = read_json_tolerant(pathlib.Path(state_dir) / "workers"
                                      / f"{lease.owner}.json")
            holder = beat and beat.get("pid")
            if isinstance(holder, int) and alive(holder):
                sweep = descendants(holder)
                if sweep or not forked:
                    return [holder, *sweep]
        time.sleep(0.01)
    raise AssertionError(f"no live lease holder of {job_id} "
                         f"{'with a sweep process ' if forked else ''}"
                         f"within {timeout:g}s")


@pytest.fixture(scope="module")
def svc(tmp_path_factory):
    state = tmp_path_factory.mktemp("svc-state")
    proc, client = start_service(state, "--workers", "2")
    yield type("Svc", (), {"proc": proc, "client": client, "state": state})
    kill_group(proc)


class TestSmoke:
    def test_healthz_readyz_metrics(self, svc):
        assert svc.client.healthz()["status"] == "ok"
        assert svc.client.readyz()["ready"] is True
        text = svc.client.metrics_text()
        assert "repro_serve_queue_depth" in text
        assert "# TYPE repro_serve_jobs_total counter" in text

    def test_root_and_queue(self, svc):
        assert svc.client.queue()["depth"] >= 0
        conn = http.client.HTTPConnection(svc.client.host, svc.client.port,
                                          timeout=10)
        conn.request("GET", "/")
        body = json.loads(conn.getresponse().read())
        conn.close()
        assert body["service"] == "repro.serve"


class TestJobs:
    def test_submit_run_result_bit_identical_to_library(self, svc):
        submitted = svc.client.submit(tenant="alice", **FAST_JOB)
        job_id = submitted["job"]["id"]
        status = svc.client.wait_for_state(
            job_id, ("done", "partial", "failed"), timeout=120)
        assert status["state"] == "done"
        assert status["completed_runs"] == 1
        assert status["latency"]["total"] > 0
        assert {"p50", "p90", "max"} <= set(status["latency"])

        result = svc.client.result(job_id)
        assert len(result["runs"]) == 1
        run = result["runs"][0]
        assert run["scheme"] == "morphcache"
        # The service's answer is bit-identical to calling the library:
        # same spec -> same JSON, floats round-tripped exactly.  The job
        # ran the default batch engine; the reference is the event engine.
        reference = run_scheme("morphcache", Workload.from_name("MIX 01"),
                               preset("tiny"), seed=3, epochs=2,
                               engine="event")
        assert run["result"] == result_to_json(reference)
        assert run["mean_throughput"] == reference.mean_throughput

        record = json.loads(
            (svc.state / "jobs" / job_id / "spec.json").read_text())
        assert record["spec"]["engine"] == "batch"

    def test_service_process_never_loads_numpy(self, svc):
        # Admission, journal keys and result summaries run in the service
        # process; only pool workers load the simulator.  numpy's
        # compiled core would show in the service's memory map.
        job_id = svc.client.submit(tenant="dave", **FAST_JOB)["job"]["id"]
        assert svc.client.wait_for_state(job_id, TERMINAL,
                                         timeout=120)["state"] == "done"
        assert svc.client.result(job_id)["runs"]
        assert svc.client.jobs()
        maps = pathlib.Path(f"/proc/{svc.proc.pid}/maps").read_text()
        assert "numpy" not in maps

    def test_unknown_job_is_typed_404(self, svc):
        with pytest.raises(ServiceHTTPError) as excinfo:
            svc.client.job("000999-nobody")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "JobNotFoundError"
        assert excinfo.value.exit_code == 9

    def test_invalid_spec_is_typed_400(self, svc):
        with pytest.raises(ServiceHTTPError) as excinfo:
            svc.client.submit(tenant="alice", workload="quake3")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ConfigError"

    def test_malformed_body_is_400(self, svc):
        conn = http.client.HTTPConnection(svc.client.host, svc.client.port,
                                          timeout=10)
        conn.request("POST", "/jobs", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "ConfigError"

    def test_sse_stream_reports_progress_then_end(self, svc):
        submitted = svc.client.submit(tenant="alice", **dict(FAST_JOB, seed=4))
        job_id = submitted["job"]["id"]
        events = list(svc.client.events(job_id, timeout=120))
        kinds = [kind for kind, _ in events]
        assert kinds[0] == "job-status"
        assert "epoch" in kinds      # live per-epoch progress from the trace
        assert "run" in kinds        # the journal's completed-run envelope
        assert kinds[-1] == "end"
        assert events[-1][1]["state"] == "done"
        # Result payloads are fetched via /result, not pushed to the stream.
        for kind, payload in events:
            if kind == "run":
                assert "result" not in payload

    def test_cancel_queued_job(self, svc):
        running = svc.client.submit(tenant="carol", **SLOW_JOB)
        queued = svc.client.submit(tenant="carol", **dict(SLOW_JOB, seed=6))
        cancelled = svc.client.cancel(queued["job"]["id"])
        assert cancelled["state"] == "cancelled"
        # Idempotent: cancelling again reports the same terminal state.
        assert svc.client.cancel(queued["job"]["id"])["state"] == "cancelled"
        done = svc.client.wait_for_state(
            running["job"]["id"], ("done", "partial", "failed"), timeout=120)
        assert done["state"] == "done"


class TestJobListing:
    def test_list_entries_equal_job_status(self, tmp_path):
        # GET /jobs reuses a terminal job's encoded status; every entry
        # must still read exactly as GET /jobs/<id> for the same job.
        proc, client = start_service(tmp_path / "state", "--workers", "1")
        try:
            done = client.submit(tenant="alice", **FAST_JOB)["job"]["id"]
            client.jobs()  # listed before it ends: must not freeze there
            client.wait_for_state(done, TERMINAL, timeout=120)
            running = client.submit(tenant="alice", **LONG_JOB)["job"]["id"]
            queued = client.submit(tenant="alice", **LONG_JOB)["job"]["id"]
            client.wait_for_state(running, ("running",), timeout=60)
            for _ in range(2):  # the second listing serves cached bytes
                listed = {entry["id"]: entry for entry in client.jobs()}
                assert [listed[j]["state"] for j in (done, running, queued)] \
                    == ["done", "running", "queued"]
                for job_id in (done, running, queued):
                    assert listed[job_id] == client.job(job_id)
            assert listed[queued]["position"] == 0
        finally:
            kill_group(proc)


class TestAdmissionControl:
    def test_shedding_and_drain_interrupt(self, tmp_path):
        proc, client = start_service(
            tmp_path, "--workers", "1", "--max-queued", "2",
            "--max-queued-per-tenant", "1")
        try:
            hog = client.submit(tenant="hog", **SLOW_JOB)
            job_dir = tmp_path / "jobs" / hog["job"]["id"]
            client.wait_for_state(hog["job"]["id"], ("running",), timeout=60)
            wait_for_journal_run(job_dir)  # provably mid-sweep

            client.submit(tenant="a", **FAST_JOB)
            with pytest.raises(ServiceHTTPError) as quota:
                client.submit(tenant="a", **FAST_JOB)
            assert quota.value.status == 429
            assert quota.value.error_type == "QuotaExceededError"

            client.submit(tenant="b", **FAST_JOB)  # queue now at its cap
            with pytest.raises(ServiceHTTPError) as saturated:
                client.submit(tenant="c", **FAST_JOB)
            assert saturated.value.status == 429
            assert saturated.value.error_type == "ServiceSaturatedError"
            assert client.queue()["depth"] == 2  # bounded: sheds not stored

            metrics = client.metrics_text()
            assert 'repro_serve_shed_total{reason="quota"} 1' in metrics
            assert 'repro_serve_shed_total{reason="saturated"} 1' in metrics

            # Drain with a job mid-flight: SIGTERM forwards to the worker,
            # whose supervisor flushes its journal and exits resumable; the
            # service exits with the documented interrupted code.
            code = drain(proc)
            assert code == SweepInterrupted.exit_code
            assert (job_dir / "journal.jsonl").exists()
            assert not (job_dir / "status.json").exists()  # not terminal
        finally:
            kill_group(proc)

    def test_draining_service_sheds_with_503(self, tmp_path):
        proc, client = start_service(tmp_path, "--workers", "1")
        try:
            hog = client.submit(tenant="hog", **SLOW_JOB)
            client.wait_for_state(hog["job"]["id"], ("running",), timeout=60)
            wait_for_journal_run(tmp_path / "jobs" / hog["job"]["id"])
            proc.send_signal(signal.SIGTERM)
            for _ in range(200):  # wait until the drain flips readiness
                try:
                    client.readyz()
                except ServiceHTTPError as exc:
                    assert exc.status == 503
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("readyz never reported draining")
            with pytest.raises(ServiceHTTPError) as shed:
                client.submit(tenant="late", **FAST_JOB)
            assert shed.value.status == 503
            assert shed.value.error_type == "ServiceDrainingError"
            assert proc.wait(timeout=120) == SweepInterrupted.exit_code
        finally:
            kill_group(proc)


class TestWatchdogAndDrain:
    def test_watchdog_kills_overdue_job(self, tmp_path):
        proc, client = start_service(tmp_path)
        try:
            submitted = client.submit(tenant="alice", max_seconds=0.2,
                                      **SLOW_JOB)
            status = client.wait_for_state(
                submitted["job"]["id"], ("done", "partial", "failed"),
                timeout=120)
            assert status["state"] == "failed"
            assert status["error"]["type"] == "JobTimeoutError"
            assert "watchdog" in status["error"]["message"]

            # The kill takes the job's whole tree: the pool worker *and*
            # the sweep processes a jobs=2 job forks, which would otherwise
            # block on their call-queue pipe forever as orphans.
            overdue = client.submit(tenant="alice", max_seconds=3.0,
                                    **TWO_RUN_JOB)
            tree = wait_for_holder_tree(tmp_path, overdue["job"]["id"],
                                        forked=True)
            status = client.wait_for_state(overdue["job"]["id"], TERMINAL,
                                           timeout=120)
            assert status["error"]["type"] == "JobTimeoutError"
            assert wait_gone(tree) == []
            # Idle again after the kill: a clean drain exits 0.
            assert drain(proc) == 0
        finally:
            kill_group(proc)

    def test_drain_after_jobs_leaves_no_process_behind(self, tmp_path):
        proc, client = start_service(tmp_path)
        try:
            ids = [client.submit(tenant="alice",
                                 **dict(FAST_JOB, seed=seed))["job"]["id"]
                   for seed in (1, 2)]
            started = {}  # every process the service started, transient too
            deadline = time.monotonic() + 120
            while not all(client.job(job_id)["state"] in TERMINAL
                          for job_id in ids):
                assert time.monotonic() < deadline, "jobs never finished"
                started.update(descendants(proc.pid))
                time.sleep(0.01)
            started.update(descendants(proc.pid))
            assert any(ppid == proc.pid for ppid in started.values())
            assert [client.job(job_id)["state"] for job_id in ids] \
                == ["done", "done"]
            assert drain(proc) == 0
            # The workers and their sweep processes are gone too.
            assert wait_gone(started, timeout=5.0) == []
        finally:
            kill_group(proc)

    def test_idle_drain_exits_zero(self, tmp_path):
        proc, client = start_service(tmp_path)
        try:
            assert drain(proc) == 0
        finally:
            kill_group(proc)


class TestRestartCap:
    """``max_job_restarts`` counts the deaths of the workers holding a job."""

    def test_worker_death_past_the_cap_fails_the_job(self, tmp_path):
        proc, client = start_service_with(tmp_path, workers=2,
                                          max_job_restarts=0)
        try:
            job_id = client.submit(tenant="alice", **LONG_JOB)["job"]["id"]
            tree = wait_for_holder_tree(tmp_path, job_id)
            holder = tree[0]
            # A default (jobs=1) job runs in its holder: no sweep process.
            assert tree == [holder]
            os.kill(holder, signal.SIGKILL)
            status = client.wait_for_state(job_id, TERMINAL, timeout=60)
            assert status["state"] == "failed"
            assert status["error"]["type"] == "WorkerCrashError"
            assert status["restarts"] == 1
        finally:
            kill_group(proc)

    def test_worker_death_under_the_cap_is_adopted(self, tmp_path):
        proc, client = start_service_with(tmp_path, workers=2)
        try:
            job_id = client.submit(tenant="alice", **SLOW_JOB)["job"]["id"]
            wait_for_journal_run(tmp_path / "jobs" / job_id)
            holder = wait_for_holder_tree(tmp_path, job_id)[0]
            os.kill(holder, signal.SIGKILL)
            status = client.wait_for_state(job_id, TERMINAL, timeout=120)
            assert status["state"] == "done"
            assert status["restarts"] == 1
            assert status["resume"] is True
            # The slot's worker was respawned: the service still runs jobs.
            again = client.submit(tenant="alice", **FAST_JOB)["job"]["id"]
            assert client.wait_for_state(again, TERMINAL,
                                         timeout=120)["state"] == "done"
        finally:
            kill_group(proc)


class TestEventDrivenDispatch:
    """Dispatch reacts to events, not to the ``poll_interval`` tick.

    Each service here runs with a 30 s backstop tick: anything that waited
    for the tick would take minutes, so finishing within the bounds below
    shows that admission, worker wake-ups, watchdog deadlines and drains
    each wake the scheduler themselves.
    """

    def test_freed_slot_is_refilled_without_waiting_for_the_tick(
            self, tmp_path):
        proc, client = start_service_with(tmp_path, workers=1,
                                          poll_interval=30.0)
        try:
            start = time.monotonic()
            ids = [client.submit(tenant="alice",
                                 **dict(FAST_JOB, seed=seed))["job"]["id"]
                   for seed in (1, 2)]
            first, second = [client.wait_for_state(job_id, TERMINAL,
                                                   timeout=20)
                             for job_id in ids]
            assert time.monotonic() - start < 20
            assert [first["state"], second["state"]] == ["done", "done"]
            assert second["started_order"] > first["started_order"]
        finally:
            kill_group(proc)

    def test_watchdog_and_drain_wake_the_scheduler(self, tmp_path):
        proc, client = start_service_with(tmp_path, workers=1,
                                          poll_interval=30.0)
        try:
            # Warm the worker first: its interpreter start would
            # otherwise eat into the watchdog's one second.
            warm = client.submit(tenant="alice", **FAST_JOB)
            client.wait_for_state(warm["job"]["id"], TERMINAL, timeout=20)
            start = time.monotonic()
            overdue = client.submit(tenant="alice", max_seconds=1.0,
                                    **LONG_JOB)
            tree = wait_for_holder_tree(tmp_path, overdue["job"]["id"],
                                        timeout=15)
            status = client.wait_for_state(overdue["job"]["id"], TERMINAL,
                                           timeout=15)
            assert time.monotonic() - start < 15
            assert status["state"] == "failed"
            assert status["error"]["type"] == "JobTimeoutError"
            assert wait_gone(tree) == []
            # Idle now: the drain's own wake ends the service at once.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
        finally:
            kill_group(proc)


class TestFairness:
    def test_equal_tenants_share_the_service(self, tmp_path):
        # Acceptance: two equal-quota tenants submitting simultaneously
        # each complete >= 40% of all finished jobs.  With one executor
        # slot, stride scheduling makes the dispatch order alternate.
        proc, client = start_service(
            tmp_path, "--workers", "1", "--max-queued-per-tenant", "4")
        try:
            job = dict(FAST_JOB, epochs=1, trace=False)
            ids = []
            for seed in range(3):
                ids.append(client.submit(tenant="alice",
                                         **dict(job, seed=seed))["job"]["id"])
            for seed in range(3):
                ids.append(client.submit(tenant="bob",
                                         **dict(job, seed=seed))["job"]["id"])
            finished = [client.wait_for_state(job_id, ("done",), timeout=240)
                        for job_id in ids]
            by_order = sorted(finished, key=lambda s: s["started_order"])
            dispatched = [s["tenant"] for s in by_order]
            assert dispatched == ["alice", "bob"] * 3  # perfect alternation
            for window in (2, 4, 6):
                share = dispatched[:window].count("alice") / window
                assert share >= 0.4
            assert drain(proc) == 0
        finally:
            kill_group(proc)
