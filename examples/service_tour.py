"""Tour of the simulation service: submit, stream, shed, drain — and chaos.

Boots ``repro serve`` as a subprocess on an OS-assigned port, then walks
the whole operational surface with two tenants:

1. admission — a valid sweep is queued, an invalid one is a typed 400;
2. quotas and shedding — a burst past the per-tenant quota is a typed
   429, and nothing shed is ever stored (queue depth stays bounded);
3. live progress — the job's SSE stream prints per-epoch records while
   the sweep runs;
4. results — fetched with floats JSON-exact, plus latency percentiles;
5. metrics — an excerpt of the Prometheus exposition;
6. drain — SIGTERM, observe the documented exit code.

With ``--chaos`` the tour instead SIGKILLs the whole service tree while
tenant A's sweep is provably mid-flight, restarts on the same state
directory, and verifies the resumed results are bit-identical to a fresh
in-process run — the restart-time recovery acceptance drill, suitable as
a CI chaos job (exits non-zero on any mismatch).

Run:  python examples/service_tour.py [--chaos]
      (or with PYTHONPATH=src from the repository root)
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.config import preset  # noqa: E402
from repro.serve.client import ServiceClient, ServiceHTTPError  # noqa: E402
from repro.sim.experiment import run_scheme  # noqa: E402
from repro.sim.supervisor import result_to_json  # noqa: E402
from repro.sim.workload import Workload  # noqa: E402

SWEEP = dict(workload="MIX 01", schemes=["morphcache", "(16:1:1)", "(4:4:1)"],
             preset="tiny", epochs=3, seed=7, trace=True)
QUICK = dict(workload="MIX 01", scheme="morphcache", preset="tiny",
             epochs=2, seed=3, trace=False)


def start_service(state_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir",
         str(state_dir), "--port", "0", *extra],
        env=env, start_new_session=True)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"service exited {proc.returncode} during boot")
        try:
            client = ServiceClient.from_state_dir(state_dir, timeout=10.0)
            if client.readyz().get("ready"):
                return proc, client
        except Exception:
            time.sleep(0.05)
    raise SystemExit("service never became ready")


def kill_tree(proc):
    """SIGKILL service + pool workers + sweep processes, like a machine loss."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def wait_mid_sweep(job_dir, timeout=60.0):
    journal = pathlib.Path(job_dir) / "journal.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if journal.exists() and '"kind":"run"' in journal.read_text():
            return
        time.sleep(0.05)
    raise SystemExit("sweep never got mid-flight")


def check(label, ok):
    print(f"  {'ok' if ok else 'MISMATCH'}: {label}")
    if not ok:
        raise SystemExit(f"FAILED: {label}")


def tour(state_dir):
    proc, client = start_service(state_dir, "--workers", "1",
                                 "--max-queued-per-tenant", "2")
    try:
        print("== admission")
        job = client.submit(tenant="alice", **SWEEP)["job"]
        print(f"  queued {job['id']} for alice")
        try:
            client.submit(tenant="alice", workload="quake3")
        except ServiceHTTPError as exc:
            check("invalid spec is a typed 400",
                  exc.status == 400 and exc.error_type == "ConfigError")

        print("== quotas and shedding")
        client.submit(tenant="bob", **QUICK)
        client.submit(tenant="bob", **dict(QUICK, seed=4))
        try:
            client.submit(tenant="bob", **dict(QUICK, seed=5))
        except ServiceHTTPError as exc:
            check("burst past bob's quota is a typed 429",
                  exc.status == 429
                  and exc.error_type == "QuotaExceededError")
        depth = client.queue()["depth"]
        print(f"  queue depth {depth} (the shed job was never stored)")

        print("== live SSE progress for", job["id"])
        shown = 0
        for kind, payload in client.events(job["id"]):
            if kind == "epoch" and shown < 4:
                shown += 1
                print(f"  epoch {payload.get('epoch')} "
                      f"[{payload.get('stream')}]")
            if kind == "end":
                print(f"  end: {payload['state']}")

        print("== results")
        status = client.job(job["id"])
        lat = status["latency"]
        print(f"  latency: total {lat['total']:.2f}s, "
              f"p50/p90/max {lat['p50']:.2f}/{lat['p90']:.2f}/"
              f"{lat['max']:.2f}s")
        result = client.result(job["id"])
        reference = run_scheme("morphcache", Workload.from_name("MIX 01"),
                               preset("tiny"), seed=7, epochs=3)
        got = next(r["result"] for r in result["runs"]
                   if r["scheme"] == "morphcache")
        check("service result bit-identical to the library",
              got == result_to_json(reference))

        print("== metrics excerpt")
        for line in client.metrics_text().splitlines():
            if line.startswith(("repro_serve_jobs_total",
                                "repro_serve_queue_depth",
                                "repro_serve_shed_total")):
                print("  " + line)

        print("== drain")
        for queued in client.jobs():
            if queued["state"] not in ("done", "partial", "failed",
                                       "cancelled"):
                client.wait_for_state(queued["id"],
                                      ("done", "partial", "failed"),
                                      timeout=240)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
        check("idle drain exits 0", code == 0)
    finally:
        kill_tree(proc)


def chaos(state_dir):
    print("== chaos: SIGKILL mid-sweep, restart, verify bit-identical")
    proc, client = start_service(state_dir, "--workers", "1")
    job_id = bob_id = None
    try:
        job_id = client.submit(tenant="alice", **SWEEP)["job"]["id"]
        bob_id = client.submit(tenant="bob", **QUICK)["job"]["id"]
        wait_mid_sweep(pathlib.Path(state_dir) / "jobs" / job_id)
        print("  mid-sweep: killing the whole service tree")
    finally:
        kill_tree(proc)

    proc2, client2 = start_service(state_dir)
    try:
        status = client2.wait_for_state(job_id,
                                        ("done", "partial", "failed"),
                                        timeout=240)
        check("interrupted sweep resumed to done",
              status["state"] == "done" and status["resume"] is True)
        result = client2.result(job_id)
        workload = Workload.from_name("MIX 01")
        for run in result["runs"]:
            reference = run_scheme(run["scheme"], workload, preset("tiny"),
                                   seed=7, epochs=3)
            check(f"{run['scheme']} bit-identical after resume",
                  run["result"] == result_to_json(reference))
        check("bob's queued job survived the crash",
              client2.wait_for_state(bob_id, ("done",),
                                     timeout=240)["state"] == "done")
    finally:
        kill_tree(proc2)
    print("chaos drill passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chaos", action="store_true",
                        help="kill -9 the service mid-sweep, restart, verify")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-serve-tour-") as tmp:
        if args.chaos:
            chaos(tmp)
        else:
            tour(tmp)
    print("service tour complete")


if __name__ == "__main__":
    main()
