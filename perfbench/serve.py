"""The serve-jobs workload: a closed loop against ``repro serve``.

The service is started with its default backend flags.  Two tenants each
keep two tiny-preset ``morphcache`` jobs on MIX 01 outstanding (default
spec fields except ``seed``): four outstanding against the service's two
concurrent slots, so jobs queue.  Every job's result is compared with an
in-process ``run_scheme`` of the same spec after the measurement.  A shed
submission (429), a job that ends in any state but ``done``, a job still
outstanding when the run ends and a mismatching result each count as a
failed operation.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from perfbench import proc, tracing
from perfbench.sim import Outcome, derive_seeds
from perfbench.stats import (Tally, median, min_samples, percentile,
                             samples_beyond)

TENANTS = ("tenant-a", "tenant-b")
OUTSTANDING_PER_TENANT = 2
WORKLOAD = "MIX 01"
SCHEME = "morphcache"
PRESET = "tiny"
#: Distinct job seeds per run, cycled through (each is checked once).
SEEDS_PER_RUN = 4
#: The run continues past ``--seconds`` until this many jobs are done, so
#: p75 has ten samples beyond it.
MIN_JOBS = min_samples(0.75)
MAX_WINDOW_S = 100.0
DRAIN_TIMEOUT_S = 30.0
#: How long a descendant may outlive the service before it counts as left.
LINGER_S = 5.0
POLL_S = 0.025
RSS_EVERY_S = 0.2
BOOTS = 3
TERMINAL = ("done", "partial", "failed", "cancelled")


class ServeProcess:
    """One ``repro serve`` child with its own state directory."""

    def __init__(self, root, state_dir) -> None:
        self.root = root
        self.state_dir = state_dir
        self.child: Optional[subprocess.Popen] = None
        self.client = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the service; returns seconds until ``/readyz`` is ready."""
        from repro.serve.client import ServiceClient

        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        start = perf_counter()
        self.child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir",
             str(self.state_dir)],
            cwd=str(self.root), env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        while True:
            if self.child.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.child.returncode} at boot")
            if perf_counter() - start > timeout:
                self.kill()
                raise RuntimeError("repro serve did not become ready")
            try:
                self.client = ServiceClient.from_state_dir(self.state_dir,
                                                           timeout=30.0)
                if self.client.readyz().get("ready"):
                    return perf_counter() - start
            except (OSError, ValueError, KeyError, RuntimeError):
                pass
            sleep(0.005)

    def stop(self, timeout: float = 60.0) -> Tuple[Optional[int], List[int]]:
        """SIGTERM and wait; returns (exit code, descendants left alive).

        An exit code of ``None`` means the service had to be killed.
        """
        if self.child is None:
            return None, []
        tree = proc.descendants(self.child.pid)
        self.child.send_signal(signal.SIGTERM)
        try:
            code: Optional[int] = self.child.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        # Helpers such as multiprocessing's resource tracker exit when the
        # service's end of their pipe closes: give them a moment.
        deadline = perf_counter() + LINGER_S
        left = [pid for pid in tree if proc.alive(pid)]
        while left and perf_counter() < deadline:
            sleep(0.01)
            left = [pid for pid in left if proc.alive(pid)]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.child = None
        shutil.rmtree(self.state_dir, ignore_errors=True)
        return code, left

    def kill(self) -> None:
        if self.child is None:
            return
        for pid in proc.descendants(self.child.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.child.kill()
        self.child.wait()


@dataclass
class JobRecord:
    tenant: str
    seed: int
    submit: float
    admitted: float
    job_id: str = ""
    running: Optional[float] = None
    terminal: Optional[float] = None
    result_start: float = 0.0
    result_end: float = 0.0
    state: str = "queued"
    result: Optional[dict] = None


class ClosedLoop:
    """Keeps each tenant's outstanding jobs topped up and watches them."""

    def __init__(self, client, seeds: List[int], tracer: tracing.Tracer,
                 tree: proc.TreePeak) -> None:
        self.client = client
        self.seeds = itertools.cycle(seeds)
        self.tracer = tracer
        self.tree = tree
        self.outstanding: Dict[str, JobRecord] = {}
        self.finished: List[JobRecord] = []
        self.shed = 0
        self.tally = Tally()

    def submit(self, tenant: str) -> None:
        from repro.serve.client import ServiceHTTPError

        seed = next(self.seeds)
        start = perf_counter()
        try:
            reply = self.client.submit(tenant=tenant, workload=WORKLOAD,
                                       scheme=SCHEME, seed=seed)
        except ServiceHTTPError as exc:
            if exc.status != 429:
                raise
            self.shed += 1
            self.tally.record(False, f"{tenant}: submission shed (429)")
            return
        record = JobRecord(tenant=tenant, seed=seed, submit=start,
                           admitted=perf_counter(),
                           job_id=reply["job"]["id"])
        self.outstanding[record.job_id] = record

    def top_up(self) -> None:
        for tenant in TENANTS:
            have = sum(1 for r in self.outstanding.values()
                       if r.tenant == tenant)
            for _ in range(OUTSTANDING_PER_TENANT - have):
                self.submit(tenant)

    def poll(self) -> List[JobRecord]:
        """One look at the service; returns the jobs that just ended."""
        now = perf_counter()
        states = {job["id"]: job["state"] for job in self.client.jobs()}
        ended = []
        for job_id, record in list(self.outstanding.items()):
            state = states.get(job_id, record.state)
            if state == "running" and record.running is None:
                record.running = now
            if state in TERMINAL:
                record.terminal = now
                record.state = state
                record.result_start = perf_counter()
                record.result = self.client.result(job_id)
                record.result_end = perf_counter()
                del self.outstanding[job_id]
                ended.append(record)
        return ended

    def run(self, seconds: float) -> Tuple[float, List[JobRecord]]:
        """Measure until ``seconds`` have passed and ``MIN_JOBS`` jobs are
        done; then stop submitting and drain.  Returns the window and the
        jobs that ended inside it."""
        start = perf_counter()
        next_rss = start
        window: List[JobRecord] = []
        self.top_up()
        while True:
            sleep(POLL_S)
            ended = self.poll()
            now = perf_counter()
            window.extend(ended)
            self.finished.extend(ended)
            if now >= next_rss:
                self.tree.sample()
                next_rss = now + RSS_EVERY_S
            elapsed = now - start
            if ((elapsed >= seconds and len(window) >= MIN_JOBS)
                    or elapsed >= MAX_WINDOW_S):
                break
            self.top_up()
        deadline = perf_counter() + DRAIN_TIMEOUT_S
        while self.outstanding and perf_counter() < deadline:
            sleep(POLL_S)
            self.finished.extend(self.poll())
        for record in self.outstanding.values():
            self.tally.record(False, f"{record.job_id}: still "
                                     f"{record.state} at the end of the run")
        return elapsed, window

    def record_spans(self) -> None:
        for record in self.finished:
            root = self.tracer.add_span("serve.job", record.submit,
                                        record.result_end, None,
                                        record.job_id)
            add = self.tracer.add_span
            add("serve.submit", record.submit, record.admitted, root,
                record.job_id)
            started = record.running or record.terminal
            add("serve.queue_wait", record.admitted, started, root,
                record.job_id)
            add("serve.run", started, record.terminal, root, record.job_id)
            add("serve.result", record.result_start, record.result_end, root,
                record.job_id)


def reference_result(seed: int) -> dict:
    """The in-process ``run_scheme`` of a job spec, as the service's
    journal serialises it."""
    from repro.config import preset
    from repro.sim.experiment import run_scheme
    from repro.sim.supervisor import result_to_json
    from repro.sim.workload import Workload

    result = run_scheme(SCHEME, Workload.from_name(WORKLOAD), preset(PRESET),
                        seed=seed, engine="event")
    return json.loads(json.dumps(result_to_json(result)))


def check(records: List[JobRecord], tally: Tally) -> None:
    refs: Dict[int, dict] = {}
    for record in records:
        if record.state != "done":
            tally.record(False, f"{record.job_id}: ended {record.state}")
            continue
        runs = (record.result or {}).get("runs", [])
        if record.seed not in refs:
            refs[record.seed] = reference_result(record.seed)
        ok = len(runs) == 1 and runs[0]["result"] == refs[record.seed]
        tally.record(ok, f"{record.job_id}: result differs from run_scheme")


def accesses_per_job() -> int:
    from repro.config import preset
    from repro.sim.workload import Workload

    from perfbench.sim import accesses_per_run

    config = preset(PRESET)
    return accesses_per_run(config, Workload.from_name(WORKLOAD),
                            config.epochs)


def run(root, seed: int, seconds: float, trace: bool) -> Outcome:
    work = root / ".perfbench" / f"serve-{os.getpid()}"
    service = ServeProcess(root, work)
    boots = []
    teardown: List[str] = []

    def stop_checked() -> None:
        code, left = service.stop()
        if code != 0 or left:
            teardown.append(f"repro serve exit {code}, {len(left)} "
                            f"descendant(s) left behind")

    try:
        for _ in range(BOOTS - 1):
            boots.append(service.start())
            stop_checked()
        boots.append(service.start())
        tracer = tracing.Tracer()
        tree = proc.TreePeak(os.getpid())
        seeds = derive_seeds(seed, SEEDS_PER_RUN)
        loop = ClosedLoop(service.client, seeds, tracer, tree)
        window_s, window = loop.run(seconds)
        stop_checked()
    finally:
        service.kill()
        shutil.rmtree(work, ignore_errors=True)

    tally = loop.tally
    check(loop.finished, tally)
    for reason in teardown:
        tally.record(False, reason)
    latencies = [r.terminal - r.submit for r in window]
    n = len(latencies)
    notes = [f"workload serve-jobs: {len(TENANTS)} tenants x "
             f"{OUTSTANDING_PER_TENANT} outstanding {SCHEME} jobs on "
             f"{WORKLOAD} ({PRESET} preset), seeds {seeds}",
             f"setup_s: median of {len(boots)} service boots to /readyz",
             f"window {window_s:.2f}s: {n} jobs ended, "
             f"{len(loop.finished) - n} more drained after it, "
             f"{loop.shed} shed",
             f"job_latency: {n} jobs, {samples_beyond(n, 0.75)} beyond p75"]
    metrics = {
        "setup_s": (median(boots), "s"),
        "sim_accesses_per_s": (n * accesses_per_job() / window_s, "1/s"),
        "peak_rss_mb": (tree.peak_mb, "MB"),
        "jobs_per_s": (n / window_s, "1/s"),
        "job_latency_p50_s": (percentile(latencies, 0.50), "s"),
        "job_latency_p75_s": (percentile(latencies, 0.75), "s"),
    }
    outcome = Outcome(tally=tally, metrics=metrics, notes=notes)
    if trace:
        loop.record_spans()
        outcome.metrics = layer_metrics(tracer, loop.shed)
        outcome.table = tracing.render_table(tracer, len(loop.finished),
                                             "job")
        outcome.tracer = tracer
        outcome.notes.append("tracing overhead: none measured; the serve "
                             "spans are client-side timestamps taken in "
                             "every run")
    return outcome


def layer_metrics(tracer: tracing.Tracer,
                  shed: int) -> Dict[str, Tuple[float, str]]:
    """Median per-job duration of each client-side phase, plus sheds."""
    def phase(name: str) -> float:
        values = [s["end"] - s["start"] for s in tracer.spans
                  if s["name"] == name]
        return median(values) if values else 0.0

    return {
        "serve.submit_s": (phase("serve.submit"), "s"),
        "serve.queue_wait_s": (phase("serve.queue_wait"), "s"),
        "serve.run_s": (phase("serve.run"), "s"),
        "serve.result_s": (phase("serve.result"), "s"),
        "serve.shed": (float(shed), "count"),
    }
