"""serve-jobs failure accounting and service teardown."""

import json
import time

from perfbench import proc, run, serve, tracing


class FakeClient:
    """Admits or sheds submissions and reports scripted job states."""

    def __init__(self, shed=()):
        self.shed = set(shed)
        self.submitted = []
        self.states = {}

    def submit(self, **spec):
        from repro.serve.client import ServiceHTTPError

        self.submitted.append(spec)
        if len(self.submitted) in self.shed:
            raise ServiceHTTPError(
                429, {"error": {"type": "ServiceSaturatedError",
                                "message": "saturated"}})
        job_id = f"{len(self.submitted):06d}-{spec['tenant']}"
        self.states[job_id] = "queued"
        return {"job": {"id": job_id}}

    def jobs(self):
        return [{"id": i, "state": s} for i, s in self.states.items()]

    def result(self, job_id):
        return {"runs": []}


def loop_with(client):
    return serve.ClosedLoop(client, [4, 5, 6, 7], tracing.Tracer(),
                            proc.TreePeak(0))


def test_shed_submissions_count_as_failed():
    client = FakeClient(shed={2})
    loop = loop_with(client)
    loop.top_up()
    assert loop.shed == 1
    assert (loop.tally.attempted, loop.tally.failed) == (1, 1)
    assert len(loop.outstanding) == 3
    loop.top_up()  # the shed slot is retried
    assert len(loop.outstanding) == 4


def test_poll_tracks_running_and_terminal_jobs():
    client = FakeClient()
    loop = loop_with(client)
    loop.top_up()
    first, second = sorted(loop.outstanding)[:2]
    client.states[first] = "running"
    assert loop.poll() == []
    assert loop.outstanding[first].running is not None
    client.states[first] = "done"
    client.states[second] = "failed"
    ended = loop.poll()
    assert {r.job_id for r in ended} == {first, second}
    assert len(loop.outstanding) == 2


def test_check_fails_wrong_state_and_wrong_result(monkeypatch):
    reference = {"workload": "MIX 01", "scheme": "morphcache",
                 "epochs": [{"epoch": 0}]}
    monkeypatch.setattr(serve, "reference_result",
                        lambda seed: json.loads(json.dumps(reference)))

    def record(state, result):
        rec = serve.JobRecord(tenant="t", seed=4, submit=0.0, admitted=0.0,
                              job_id=f"job-{state}", state=state)
        rec.result = {"runs": [{"result": result}]}
        return rec

    tally = serve.Tally()
    serve.check([record("done", reference),
                 record("done", dict(reference, epochs=[])),
                 record("failed", reference)], tally)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_sigterm_drains_to_exit_zero_and_leaves_no_child(tmp_path):
    service = serve.ServeProcess(run.ROOT, tmp_path / "state")
    try:
        assert service.start() > 0
        job = service.client.submit(tenant="t", workload="MIX 01",
                                    seed=1, epochs=1)["job"]["id"]
        seen = set()
        deadline = time.monotonic() + 60
        while service.client.job(job)["state"] not in serve.TERMINAL:
            assert time.monotonic() < deadline
            seen.update(proc.descendants(service.child.pid))
            time.sleep(0.01)
        assert service.client.job(job)["state"] == "done"
        assert seen  # the job ran in child processes
        code, left = service.stop()
    finally:
        service.kill()
    assert code == 0
    assert left == []
