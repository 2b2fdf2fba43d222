"""Tests for the supervised, crash-safe sweep executor.

The scripted worker below misbehaves on cue (raise, SIGKILL itself, hang,
MemoryError, fail-once-then-succeed) so every rung of the supervision
ladder — timeout → retry → quarantine → salvage — is exercised against real
forked worker processes, not mocks.

The two subprocess tests at the bottom cover the acceptance criteria: a
sweep whose *parent* is SIGKILLed mid-run resumes from its journal with
results bit-identical to the golden-determinism fixture, and SIGTERM drains
in-flight runs and exits with the ``SweepInterrupted`` code.
"""

import functools
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.config import TINY
from repro.resilience.errors import (
    CheckpointError,
    ConfigError,
    LeaseLostError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.sim.engine import EpochResult, RunResult
from repro.obs.metrics import REGISTRY
from repro.sim.parallel import RunSpec, _run_spec, run_many
from repro.sim.supervisor import (
    SweepPolicy,
    inspect_journal,
    result_from_json,
    result_to_json,
    run_supervised,
    spec_key,
)
from repro.sim.workload import Workload
from repro.workloads import MIXES

REPO = pathlib.Path(__file__).parents[2]

#: No-sleep, fast-poll policy for the scripted tests.
FAST = dict(backoff_base=0.0, poll_interval=0.01)


def _workload():
    return Workload.from_mix(MIXES[0])


def _specs(schemes, workload=None):
    workload = workload or _workload()
    return [RunSpec(scheme=scheme, workload=workload, config=TINY, seed=i)
            for i, scheme in enumerate(schemes)]


# -- scripted workers ---------------------------------------------------------

def _toy_result(spec):
    return RunResult(
        workload_name=spec.workload.name, scheme_name=spec.scheme,
        epochs=[EpochResult(epoch=0, ipcs={0: float(spec.seed)},
                            misses={0: spec.seed}, topology_label=None)])


def _scripted_worker(spec):
    """Behaviour keyed on the scheme name; returns a toy result otherwise."""
    scheme = spec.scheme
    if scheme == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if scheme == "hang":
        time.sleep(600)
    if scheme.startswith("sleep:"):
        time.sleep(float(scheme.split(":", 1)[1]))
    if scheme == "fail":
        raise RuntimeError("scripted failure")
    if scheme == "oom":
        raise MemoryError("scripted allocation failure")
    if scheme == "exit":
        raise SystemExit(3)
    if scheme == "unpicklable":
        return lambda: spec
    if scheme.startswith("flaky:"):
        marker = pathlib.Path(scheme.split(":", 1)[1])
        if not marker.exists():
            marker.touch()
            raise RuntimeError("scripted transient failure")
    return _toy_result(spec)


def _pid_worker(spec):
    return os.getpid()


def _logged_worker(log, spec):
    """``_scripted_worker`` that first appends ``"<scheme> <pid>"`` to
    ``log``, one line per start; returns ``(pid, result)``."""
    with open(log, "a") as fh:
        fh.write(f"{spec.scheme} {os.getpid()}\n")
    return os.getpid(), _scripted_worker(spec)


def _starts(log):
    """``{scheme: [pid of each start]}`` from a ``_logged_worker`` log."""
    starts = {}
    for line in log.read_text().splitlines():
        scheme, pid = line.split()
        starts.setdefault(scheme, []).append(int(pid))
    return starts


def _term_on_first_run(spec):
    """A real run; the first spec's also SIGTERMs the running process."""
    if spec.seed == 0:
        os.kill(os.getpid(), signal.SIGTERM)
    return _run_spec(spec)


def _forbidden_worker(spec):
    raise AssertionError(f"worker must not run for {spec.scheme}")


#: Set at runtime by the supervising process; only a *forked* worker
#: inherits the new value (a spawned one re-imports this module).
_RUNTIME_MARK = "import-time"


def _fork_origin_worker(spec):
    return multiprocessing.parent_process().pid, _RUNTIME_MARK


def _supervise_under_spawn(conn):
    global _RUNTIME_MARK
    _RUNTIME_MARK = "set-at-runtime"
    report = run_supervised(_specs(["a", "b"]), jobs=2,
                            policy=SweepPolicy(**FAST),
                            worker=_fork_origin_worker)
    conn.send((os.getpid(), multiprocessing.get_start_method(),
               report.results))
    conn.close()


# -- the ladder -------------------------------------------------------------

def test_supervised_matches_serial_bit_identical():
    specs = _specs(["(16:1:1)", "(1:1:16)", "(4:4:1)", "morphcache"])
    serial = run_many(specs, jobs=1)
    report = run_supervised(specs, jobs=3)
    assert report.ok and report.quarantined == []
    assert [r.scheme_name for r in report.results] == [s.scheme for s in specs]
    for a, b in zip(serial, report.results):
        assert [{c: repr(v) for c, v in e.ipcs.items()} for e in a.epochs] \
            == [{c: repr(v) for c, v in e.ipcs.items()} for e in b.epochs]
        assert [e.misses for e in a.epochs] == [e.misses for e in b.epochs]


def test_poison_spec_quarantined_sweep_continues():
    # Acceptance: one poison spec must not cost the rest of the sweep.
    specs = _specs(["(16:1:1)", "not-a-scheme", "morphcache"])
    report = run_supervised(specs, jobs=2, policy=SweepPolicy(**FAST))
    assert report.quarantined == [1]
    assert report.succeeded == [0, 2]
    assert report.results[1] is None
    assert "unknown scheme" in report.outcomes[1].error
    assert isinstance(report.outcomes[1].exception, ValueError)
    with pytest.raises(ValueError, match="unknown scheme"):
        report.raise_first()


def test_worker_sigkill_quarantined_others_intact():
    # The run that keeps killing its worker is retried in a fresh slot
    # each time and then quarantined, with a typed WorkerCrashError; the
    # runs on the other slot are untouched.
    specs = _specs(["ok", "die", "ok", "ok"])
    report = run_supervised(specs, jobs=2,
                            policy=SweepPolicy(retries=2, **FAST),
                            worker=_scripted_worker)
    assert report.quarantined == [1]
    assert report.succeeded == [0, 2, 3]
    assert isinstance(report.outcomes[1].exception, WorkerCrashError)
    assert "worker process died" in report.outcomes[1].error
    for index in (0, 2, 3):
        assert report.results[index].epochs[0].misses == {0: index}


def test_pool_break_never_quarantines_an_innocent_in_flight_run():
    # Both runs are in flight when "die" kills its worker.  With no
    # retries, charging every in-flight run would quarantine the innocent
    # sleeper too; the death is charged to the dying worker's run alone.
    specs = _specs(["die", "sleep:0.5"])
    report = run_supervised(specs, jobs=2,
                            policy=SweepPolicy(retries=0, **FAST),
                            worker=_scripted_worker)
    assert report.quarantined == [0]
    assert report.succeeded == [1]
    assert report.outcomes[1].attempts == 1
    assert isinstance(report.outcomes[0].exception, WorkerCrashError)
    assert report.results[1].epochs[0].misses == {0: 1}


def test_worker_death_is_charged_to_its_run_alone(tmp_path):
    # Each attempt has a worker process of its own, so a death is charged
    # to the run that worker was running: the sleeper beside it is not a
    # suspect and never reruns.
    log = tmp_path / "starts.log"
    report = run_supervised(_specs(["die", "sleep:0.5"]), jobs=2,
                            policy=SweepPolicy(retries=0, **FAST),
                            worker=functools.partial(_logged_worker, log))
    assert report.quarantined == [0]
    assert report.succeeded == [1]
    assert "worker process died" in report.outcomes[0].error
    starts = _starts(log)
    assert starts["sleep:0.5"] == [report.results[1][0]]
    assert len(starts["die"]) == 1


def test_timeout_kills_only_the_hung_runs_worker(tmp_path):
    # The hang is overdue at 2 s, while the second sleeper (1 s in) runs
    # beside it: only the hung worker is killed, and the sleeper finishes
    # in the worker that started it, the same one as the first sleeper's.
    log = tmp_path / "starts.log"
    report = run_supervised(_specs(["hang", "sleep:1.0", "sleep:1.5"]),
                            jobs=2,
                            policy=SweepPolicy(run_timeout=2.0, **FAST),
                            worker=functools.partial(_logged_worker, log))
    assert report.quarantined == [0]
    assert report.succeeded == [1, 2]
    assert "exceeded the 2s wall-clock timeout" in report.outcomes[0].error
    starts = _starts(log)
    pid = report.results[1][0]
    assert starts["sleep:1.0"] == starts["sleep:1.5"] == [pid]
    assert report.results[2][0] == pid
    assert starts["hang"] != [pid]


def test_worker_memoryerror_translated_to_crash():
    specs = _specs(["ok", "oom"])
    report = run_supervised(specs, jobs=2, policy=SweepPolicy(**FAST),
                            worker=_scripted_worker)
    assert report.quarantined == [1]
    assert isinstance(report.outcomes[1].exception, WorkerCrashError)
    assert "out of memory" in report.outcomes[1].error
    assert report.results[0] is not None


def test_unpicklable_reply_charged_as_a_failure():
    # The result cannot cross the pipe: the pickling error is the run's
    # failure, and the worker stays up for the next run.
    report = run_supervised(_specs(["unpicklable", "ok", "ok"]), jobs=1,
                            policy=SweepPolicy(**FAST),
                            worker=_scripted_worker)
    assert report.quarantined == [0]
    assert report.succeeded == [1, 2]
    assert "pickle" in report.outcomes[0].error


def test_hung_run_times_out_and_quarantines():
    specs = _specs(["ok", "hang", "ok"])
    start = time.monotonic()
    report = run_supervised(
        specs, jobs=2, policy=SweepPolicy(run_timeout=1.0, **FAST),
        worker=_scripted_worker)
    assert time.monotonic() - start < 30  # nowhere near the 600s sleep
    assert report.quarantined == [1]
    assert report.succeeded == [0, 2]
    assert "timeout" in report.outcomes[1].error
    assert isinstance(report.outcomes[1].exception, WorkerCrashError)


def test_flaky_run_retried_same_seed(tmp_path):
    marker = tmp_path / "first-attempt"
    specs = _specs(["ok", f"flaky:{marker}", "ok"])
    report = run_supervised(specs, jobs=2,
                            policy=SweepPolicy(retries=1, **FAST),
                            worker=_scripted_worker)
    assert report.ok
    assert report.retried == [1]
    assert report.outcomes[1].attempts == 2
    # The retry reused the spec's original seed: the toy result encodes it.
    assert report.results[1].epochs[0].misses == {0: 1}


def test_strict_mode_reraises_original_exception():
    specs = _specs(["ok", "fail", "ok"])
    with pytest.raises(RuntimeError, match="scripted failure"):
        run_supervised(specs, jobs=2, policy=SweepPolicy(**FAST),
                       strict=True, worker=_scripted_worker)


def test_backoff_deterministic_and_bounded():
    policy = SweepPolicy(backoff_base=0.25, backoff_cap=2.0)
    delays = [policy.backoff_delay(11, a) for a in range(1, 8)]
    assert delays == [policy.backoff_delay(11, a)
                      for a in range(1, 8)]  # deterministic
    assert all(0 < d <= 2.0 for d in delays)  # capped
    assert delays != [policy.backoff_delay(12, a)
                      for a in range(1, 8)]  # jitter is seeded per run
    assert SweepPolicy(backoff_base=0.0).backoff_delay(11, 1) == 0.0


def test_policy_validation():
    with pytest.raises(ConfigError, match="run_timeout"):
        SweepPolicy(run_timeout=0)
    with pytest.raises(ConfigError, match="retries"):
        SweepPolicy(retries=-1)
    with pytest.raises(ConfigError, match="backoff_base"):
        SweepPolicy(backoff_base=-0.1)


# -- the journal ------------------------------------------------------------

def test_journal_roundtrips_results_exactly():
    result = run_many(_specs(["morphcache"]), jobs=1)[0]
    rebuilt = result_from_json(json.loads(json.dumps(result_to_json(result))))
    assert [{c: repr(v) for c, v in e.ipcs.items()} for e in rebuilt.epochs] \
        == [{c: repr(v) for c, v in e.ipcs.items()} for e in result.epochs]
    assert [e.misses for e in rebuilt.epochs] \
        == [e.misses for e in result.epochs]


def test_resume_skips_completed_runs(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    specs = _specs(["ok", "ok", "ok"])
    first = run_supervised(specs, jobs=2, journal=journal,
                           worker=_scripted_worker)
    assert first.ok
    # Resume with a worker that would blow up if any run re-executed.
    resumed = run_supervised(specs, jobs=2, journal=journal, resume=True,
                             worker=_forbidden_worker)
    assert resumed.ok and resumed.resumed == [0, 1, 2]
    for a, b in zip(first.results, resumed.results):
        assert a.epochs[0].misses == b.epochs[0].misses


def test_truncated_journal_resumes_clean_and_bit_identical(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    specs = _specs(["(16:1:1)", "(1:1:16)", "morphcache"])
    serial = run_many(specs, jobs=1)
    run_supervised(specs, jobs=1, journal=journal)
    # Chop the final *run* record mid-line, as a SIGKILL mid-write would.
    # (The last line of a finished journal is the summary record — drop it
    # too, exactly what a kill during the last run would have left.)
    lines = journal.read_text().rstrip("\n").split("\n")
    assert json.loads(lines[-1])["kind"] == "summary"
    journal.write_text("\n".join(lines[:-1])[:-25])
    resumed = run_supervised(specs, jobs=1, journal=journal, resume=True)
    assert resumed.ok
    assert len(resumed.resumed) == len(specs) - 1  # only the torn run redone
    for a, b in zip(serial, resumed.results):
        assert [{c: repr(v) for c, v in e.ipcs.items()} for e in a.epochs] \
            == [{c: repr(v) for c, v in e.ipcs.items()} for e in b.epochs]
        assert [e.misses for e in a.epochs] == [e.misses for e in b.epochs]


def test_journal_refuses_a_different_sweep(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    run_supervised(_specs(["ok", "ok"]), journal=journal,
                   worker=_scripted_worker)
    other = [RunSpec(scheme="ok", workload=_workload(), config=TINY, seed=99),
             RunSpec(scheme="ok", workload=_workload(), config=TINY, seed=98)]
    with pytest.raises(CheckpointError, match="different"):
        run_supervised(other, journal=journal, resume=True,
                       worker=_scripted_worker)
    with pytest.raises(CheckpointError, match="no sweep journal"):
        run_supervised(other, journal=tmp_path / "absent.jsonl", resume=True,
                       worker=_scripted_worker)
    with pytest.raises(CheckpointError, match="journal"):
        run_supervised(other, resume=True, worker=_scripted_worker)


def test_quarantined_runs_rerun_on_resume(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    marker = tmp_path / "poison-marker"
    specs = _specs(["ok", f"flaky:{marker}", "ok"])
    first = run_supervised(specs, jobs=1, journal=journal,
                           policy=SweepPolicy(**FAST),
                           worker=_scripted_worker)
    assert first.quarantined == [1]  # no retries: first failure is final
    # On resume the quarantined spec gets a fresh attempt budget — and the
    # marker now exists, so it succeeds; completed runs are not rerun.
    resumed = run_supervised(specs, jobs=1, journal=journal, resume=True,
                             policy=SweepPolicy(**FAST),
                             worker=_scripted_worker)
    assert resumed.ok
    assert sorted(resumed.resumed) == [0, 2]
    assert resumed.results[1].epochs[0].misses == {0: 1}


# -- journal inspection -----------------------------------------------------

def test_inspect_journal_complete_sweep(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    report = run_supervised(_specs(["a", "b", "c"]), jobs=1, journal=journal,
                            policy=SweepPolicy(**FAST),
                            worker=_scripted_worker)
    summary = inspect_journal(journal)
    assert summary.complete
    assert summary.completed == [0, 1, 2]
    assert summary.missing == 0 and summary.resumes == 0
    assert not summary.truncated_tail and summary.bad_lines == 0
    # Latency comes from the summary record the sweep appended.
    assert summary.elapsed == report.latency()["total"]
    assert summary.latency == {k: report.latency()[k]
                               for k in ("p50", "p90", "max")}
    assert summary.latency["p50"] <= summary.latency["p90"] \
        <= summary.latency["max"]
    rendered = summary.render()
    assert "3/3 completed" in rendered and "status: complete" in rendered
    payload = summary.to_json()
    assert payload["complete"] is True and payload["missing"] == 0


def test_inspect_journal_truncated_tail_is_resumable(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    run_supervised(_specs(["a", "b", "c"]), jobs=1, journal=journal,
                   policy=SweepPolicy(**FAST), worker=_scripted_worker)
    lines = journal.read_text().rstrip("\n").split("\n")
    journal.write_text("\n".join(lines[:-1])[:-20])  # tear the last run
    summary = inspect_journal(journal)
    assert summary.truncated_tail and summary.bad_lines == 1
    assert summary.completed == [0, 1] and summary.missing == 1
    assert not summary.complete
    assert "torn" in summary.render()
    assert "resumable" in summary.render()


def test_inspect_journal_reports_quarantines_retries_and_resumes(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    marker = tmp_path / "flaky-marker"
    specs = _specs(["ok", "fail", f"flaky:{marker}"])
    run_supervised(specs, jobs=1, journal=journal,
                   policy=SweepPolicy(retries=1, **FAST),
                   worker=_scripted_worker)
    summary = inspect_journal(journal)
    assert summary.quarantined == [1]   # 'fail' exhausted its retries
    assert summary.retried == [2]       # 'flaky' needed a second attempt
    assert summary.completed == [0, 2]
    run_supervised(specs, jobs=1, journal=journal, resume=True,
                   policy=SweepPolicy(retries=1, **FAST),
                   worker=_scripted_worker)
    resumed = inspect_journal(journal)
    assert resumed.resumes == 1
    assert "resumes: 1" in resumed.render()


def test_inspect_journal_validates_against_spec_keys(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    specs = _specs(["a", "b"])
    run_supervised(specs, jobs=1, journal=journal,
                   policy=SweepPolicy(**FAST), worker=_scripted_worker)
    assert inspect_journal(journal,
                           keys=[spec_key(s) for s in specs]).complete
    with pytest.raises(CheckpointError):
        inspect_journal(journal, keys=["deadbeef", "deadbeef"])
    with pytest.raises(CheckpointError):
        inspect_journal(tmp_path / "absent.jsonl")


def test_summary_record_carries_latency_percentiles(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    report = run_supervised(_specs(["a", "b", "c", "d"]), jobs=1,
                            journal=journal, policy=SweepPolicy(**FAST),
                            worker=_scripted_worker)
    last = json.loads(journal.read_text().rstrip("\n").split("\n")[-1])
    assert last["kind"] == "summary"
    assert last["completed"] == 4
    latency = report.latency()
    assert last["runs"] == latency["runs"] == 4.0
    for key in ("total", "p50", "p90", "max"):
        assert last[key] == latency[key]
    # Nearest-rank: with every elapsed equal the percentiles collapse.
    assert latency["p50"] <= latency["p90"] <= latency["max"]


def test_spec_key_distinguishes_every_field():
    base = RunSpec(scheme="morphcache", workload=_workload(), config=TINY,
                   seed=1)
    assert spec_key(base) == spec_key(RunSpec(
        scheme="morphcache", workload=_workload(), config=TINY, seed=1))
    for other in (
            RunSpec(scheme="pipp", workload=_workload(), config=TINY, seed=1),
            RunSpec(scheme="morphcache", workload=_workload(), config=TINY,
                    seed=2),
            RunSpec(scheme="morphcache", workload=_workload(), config=TINY,
                    seed=1, epochs=5),
            RunSpec(scheme="morphcache", workload=_workload(), config=TINY,
                    seed=1, engine="event"),
    ):
        assert spec_key(other) != spec_key(base)


# -- parent-death and signal draining (subprocess) --------------------------

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_tiny_mix01.json").read_text())

#: The exact sweep ``repro compare`` runs for the golden configuration.
COMPARE_ARGS = ["compare", "--workload", "MIX 01", "--preset", "tiny",
                "--epochs", "3", "--seed", "7", "--jobs", "2"]


def _compare_specs():
    """The RunSpecs cmd_compare builds for COMPARE_ARGS, reproduced here."""
    from repro.baselines.static_topologies import STATIC_LABELS
    from repro.config import preset
    workload = Workload.from_mix(MIXES[0])
    return [RunSpec(scheme=scheme, workload=workload, config=preset("tiny"),
                    seed=7, epochs=3)
            for scheme in STATIC_LABELS + ["morphcache"]]


def _spawn_compare(journal, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_JOBS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *COMPARE_ARGS,
         "--sweep-journal", str(journal), *extra],
        env=env, cwd=str(REPO), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _wait_for_run_record(journal, process, timeout=120.0):
    """Block until the journal holds >= 1 completed-run line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if journal.exists() and '"kind":"run"' in journal.read_text():
            return
        if process.poll() is not None:
            return  # sweep already finished; resume still must be identical
        time.sleep(0.05)
    raise AssertionError("no run record appeared in the journal")


def test_parent_sigkill_then_resume_bit_identical_to_golden(tmp_path):
    # Acceptance: SIGKILL the sweep's *parent* mid-run, resume from the
    # journal, and get results bit-identical to an uninterrupted sweep —
    # checked against the golden-determinism fixture for the two schemes
    # it captures, and against a fresh serial sweep for all six.
    journal = tmp_path / "sweep.jsonl"
    process = _spawn_compare(journal)
    try:
        _wait_for_run_record(journal, process)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()

    specs = _compare_specs()
    resumed = run_supervised(specs, jobs=2, journal=journal, resume=True)
    assert resumed.ok

    serial = run_many(specs, jobs=1)
    for a, b in zip(serial, resumed.results):
        assert [{str(c): repr(v) for c, v in e.ipcs.items()}
                for e in a.epochs] \
            == [{str(c): repr(v) for c, v in e.ipcs.items()}
                for e in b.epochs]
        assert [e.misses for e in a.epochs] == [e.misses for e in b.epochs]

    for index, spec in enumerate(specs):
        if spec.scheme not in GOLDEN:
            continue
        golden_epochs = GOLDEN[spec.scheme]["epochs"]
        got = resumed.results[index].epochs
        assert len(got) == len(golden_epochs)
        for epoch, want in zip(got, golden_epochs):
            assert {str(c): repr(v) for c, v in epoch.ipcs.items()} \
                == want["ipcs"]
            assert {str(c): v for c, v in epoch.misses.items()} \
                == want["misses"]


def test_sigterm_drains_flushes_and_exits_distinct_code(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    process = _spawn_compare(journal)
    _wait_for_run_record(journal, process)
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    out, err = process.communicate(timeout=120)
    if process.returncode == 0:
        pytest.skip("sweep finished before SIGTERM landed")
    assert process.returncode == SweepInterrupted.exit_code
    assert "interrupted" in err and "resumable" in err
    # The journal survived the interruption and resumes to a full sweep.
    specs = _compare_specs()
    resumed = run_supervised(specs, jobs=2, journal=journal, resume=True)
    assert resumed.ok
    assert resumed.resumed  # the drained runs were journaled before exit


def _children_of(pid):
    """Live pids whose /proc stat names ``pid`` as parent (Linux only)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (pathlib.Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue  # raced with an exit
        # Field 4 is ppid; comm (field 2) may contain spaces — split after
        # the closing paren.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            kids.append(int(entry))
    return kids


@pytest.mark.skipif(sys.platform != "linux", reason="needs /proc + prctl")
def test_sigkill_leaves_no_orphaned_pool_children(tmp_path):
    # The worker-pool failover drills SIGKILL a supervisor *process* (not
    # its group) mid-sweep.  Its forked workers must die with it —
    # PR_SET_PDEATHSIG in _bind_worker_to_parent — instead of finishing
    # their runs as orphans of init.
    journal = tmp_path / "sweep.jsonl"
    process = _spawn_compare(journal)
    try:
        _wait_for_run_record(journal, process)
        if process.poll() is not None:
            pytest.skip("sweep finished before the kill landed")
        deadline = time.monotonic() + 30.0
        kids = _children_of(process.pid)
        while not kids and time.monotonic() < deadline:
            time.sleep(0.05)
            kids = _children_of(process.pid)
        assert kids, "the sweep never forked a worker"
        os.kill(process.pid, signal.SIGKILL)  # the supervisor ONLY
        process.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in kids
                     if pathlib.Path(f"/proc/{pid}").exists()]
            if not alive:
                return
            time.sleep(0.05)
        raise AssertionError(f"orphaned sweep workers survived: {alive}")
    finally:
        for pid in _children_of(process.pid) if process.poll() is None else []:
            os.kill(pid, signal.SIGKILL)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()


def test_workers_fork_even_when_the_caller_defaults_to_spawn():
    # A spawned (or forkserver) child inherits its start method as the
    # default; the supervisor must still fork its workers from the warm
    # supervising process instead of re-spawning the interpreter.
    ctx = multiprocessing.get_context("spawn")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_supervise_under_spawn, args=(writer,))
    child.start()
    writer.close()
    try:
        assert reader.poll(120), "spawned supervisor never reported"
        pid, method, results = reader.recv()
    finally:
        reader.close()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
    assert method == "spawn"
    assert results == [(pid, "set-at-runtime")] * 2
    assert child.exitcode == 0


#: Twenty 2-job sweeps in a fresh interpreter, noting after each whether
#: any worker process was left running.
_REPEATED_SWEEPS = """
import multiprocessing
from repro.config import preset
from repro.sim.parallel import RunSpec
from repro.sim.supervisor import SweepPolicy, run_supervised
from repro.sim.workload import Workload

def seed(spec):
    return spec.seed

specs = [RunSpec(scheme="(16:1:1)", workload=Workload.from_name("MIX 01"),
                 config=preset("tiny"), seed=i) for i in range(2)]
left = []
for call in range(20):
    report = run_supervised(specs, jobs=2, worker=seed,
                            policy=SweepPolicy(poll_interval=0.01))
    assert report.results == [0, 1], report.results
    if multiprocessing.active_children():
        left.append(call)
print(left)
"""


def test_sweeps_reap_their_workers_and_the_process_exits_cleanly():
    # Every run_supervised joins (or kills and reaps) each worker it forked
    # before returning, so a process running sweeps back to back neither
    # accumulates children nor trips over them at exit.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _REPEATED_SWEEPS], env=env,
                          cwd=str(REPO), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class _FakeLibc:
    def __init__(self):
        self.calls = []

    def prctl(self, *args):
        self.calls.append(args)
        return 0


@pytest.mark.parametrize("ppid, killed", [(4242, False), (777, True)])
def test_bind_worker_detects_a_parent_lost_before_prctl(monkeypatch, ppid,
                                                        killed):
    # The parent (pid 4242) may die between fork and prctl.  Under a
    # child subreaper the orphan's new ppid is the subreaper's (777 here),
    # not 1, so only a comparison with the forking parent's pid sees it.
    import ctypes

    from repro.sim import supervisor

    libc = _FakeLibc()
    kills = []
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: libc)
    monkeypatch.setattr(multiprocessing, "parent_process",
                        lambda: type("Parent", (), {"pid": 4242})())
    monkeypatch.setattr(os, "getppid", lambda: ppid)
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig)))
    supervisor._bind_worker_to_parent()
    assert libc.calls == [(1, int(signal.SIGKILL))]
    assert kills == ([(os.getpid(), signal.SIGKILL)] if killed else [])


# -- journal fencing (worker-pool integration) -------------------------------

def test_journal_extra_stamps_every_record(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    run_supervised(_specs(["a", "b"]), jobs=1, journal=journal,
                   policy=SweepPolicy(**FAST), worker=_scripted_worker,
                   journal_extra={"lease": "1:w0", "worker": "w0"})
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    assert records and all(r["lease"] == "1:w0" for r in records)
    assert all(r["worker"] == "w0" for r in records)
    # Loaders ignore the stamps: the journal still resumes/validates.
    summary = inspect_journal(journal)
    assert summary.complete
    assert summary.leases == ["1:w0"]
    assert summary.adoptions == 0


def test_journal_guard_aborts_before_the_write(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    writes = []

    def guard():
        # header + first run record allowed, then the fence is lost.
        if len(writes) >= 2:
            raise LeaseLostError("job adopted by a peer at fence 2")
        writes.append(1)

    with pytest.raises(LeaseLostError):
        run_supervised(_specs(["a", "b", "c"]), jobs=1, journal=journal,
                       policy=SweepPolicy(**FAST), worker=_scripted_worker,
                       journal_guard=guard)
    # Nothing landed after the guard tripped: exactly header + one run.
    lines = journal.read_text().splitlines()
    assert [json.loads(line)["kind"] for line in lines] == ["header", "run"]


def test_inspect_journal_renders_the_handover_chain(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    specs = _specs(["ok", "fail", "ok"])
    run_supervised(specs, jobs=1, journal=journal,
                   policy=SweepPolicy(**FAST), worker=_scripted_worker,
                   journal_extra={"lease": "1:alpha", "worker": "alpha"})
    # A peer adopts (resume under the next fence) and finishes the sweep.
    marker_free = inspect_journal(journal)
    assert marker_free.leases == ["1:alpha"]
    run_supervised(specs, jobs=1, journal=journal, resume=True,
                   policy=SweepPolicy(retries=1, **FAST),
                   worker=_scripted_worker,
                   journal_extra={"lease": "2:bravo", "worker": "bravo"})
    summary = inspect_journal(journal)
    assert summary.leases == ["1:alpha", "2:bravo"]
    assert summary.adoptions == 1
    rendered = summary.render()
    assert "1:alpha" in rendered and "2:bravo" in rendered
    assert "handover" in rendered
    assert summary.to_json()["adoptions"] == 1


def test_unfenced_journals_report_no_leases(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    run_supervised(_specs(["a"]), jobs=1, journal=journal,
                   policy=SweepPolicy(**FAST), worker=_scripted_worker)
    summary = inspect_journal(journal)
    assert summary.leases == []
    assert summary.adoptions == 0
    assert "leases" not in summary.render()


# -- in-process attempts (pool workers) --------------------------------------

def _journal_records(path):
    """Every journal record, minus its wall-clock fields."""
    timing = {"elapsed", "total", "p50", "p90", "max"}
    return [{k: v for k, v in json.loads(line).items() if k not in timing}
            for line in path.read_text().splitlines()]


def test_in_process_sweep_matches_the_pool_path(tmp_path):
    specs = _specs(["(16:1:1)", "morphcache"])
    pooled = run_supervised(specs, jobs=1, journal=tmp_path / "pool.jsonl")
    inline = run_supervised(specs, jobs=1, journal=tmp_path / "inline.jsonl",
                            in_process=True)
    assert pooled.ok and inline.ok
    assert [result_to_json(r) for r in inline.results] \
        == [result_to_json(r) for r in pooled.results]
    assert _journal_records(tmp_path / "inline.jsonl") \
        == _journal_records(tmp_path / "pool.jsonl")


def test_in_process_flaky_run_retried(tmp_path):
    marker = tmp_path / "first-attempt"
    report = run_supervised(_specs(["ok", f"flaky:{marker}"]), jobs=1,
                            policy=SweepPolicy(retries=1, **FAST),
                            worker=_scripted_worker, in_process=True)
    assert report.ok
    assert report.retried == [1]
    assert report.outcomes[1].attempts == 2
    assert report.results[1].epochs[0].misses == {0: 1}


def test_in_process_failures_quarantined_and_exits_propagate():
    report = run_supervised(_specs(["fail", "oom", "ok"]), jobs=1,
                            policy=SweepPolicy(**FAST),
                            worker=_scripted_worker, in_process=True)
    assert report.quarantined == [0, 1]
    assert report.succeeded == [2]
    assert isinstance(report.outcomes[0].exception, RuntimeError)
    assert isinstance(report.outcomes[1].exception, WorkerCrashError)
    assert "out of memory" in report.outcomes[1].error
    # Only Exception is an attempt's failure; SystemExit ends the caller.
    with pytest.raises(SystemExit):
        run_supervised(_specs(["exit", "ok"]), jobs=1,
                       policy=SweepPolicy(**FAST),
                       worker=_scripted_worker, in_process=True)


def test_in_process_hang_charged_the_pool_paths_timeout():
    alarm_handler = signal.getsignal(signal.SIGALRM)
    errors = {}
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        for in_process in (False, True):
            start = time.monotonic()
            report = run_supervised(
                _specs(["hang", "ok"]), jobs=1,
                policy=SweepPolicy(run_timeout=0.5, **FAST),
                worker=_scripted_worker, in_process=in_process)
            assert time.monotonic() - start < 30
            assert report.quarantined == [0]
            assert report.succeeded == [1]  # the next run still completes
            assert isinstance(report.outcomes[0].exception, WorkerCrashError)
            errors[in_process] = report.outcomes[0].error
        timeouts = REGISTRY.get("repro_sweep_timeouts_total").value
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    wording = "exceeded the 0.5s wall-clock timeout"
    assert wording in errors[False] and wording in errors[True]
    assert timeouts == 2
    # The timer was armed around the attempt only.
    assert signal.getsignal(signal.SIGALRM) is alarm_handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_in_process_sigterm_drains_and_resumes_bit_identically(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    specs = _specs(["(16:1:1)", "(1:1:16)", "morphcache"])
    with pytest.raises(SweepInterrupted) as interrupted:
        run_supervised(specs, jobs=1, journal=journal,
                       worker=_term_on_first_run, in_process=True)
    # The run in flight when the signal landed finished and was journaled.
    assert interrupted.value.report.succeeded == [0]
    resumed = run_supervised(specs, jobs=1, journal=journal, resume=True,
                             in_process=True)
    assert resumed.ok and resumed.resumed == [0]
    assert [result_to_json(r) for r in resumed.results] \
        == [result_to_json(r) for r in run_many(specs, jobs=1)]


def test_in_process_builds_no_pool_but_threads_and_jobs_above_one_do(
        monkeypatch):
    from repro.sim import supervisor

    spawned = []  # the pid of every worker slot forked
    spawn = supervisor._spawn_slot

    def spy(*args, **kwargs):
        slot = spawn(*args, **kwargs)
        spawned.append(slot.process.pid)
        return slot

    monkeypatch.setattr(supervisor, "_spawn_slot", spy)

    def sweep(jobs, specs=2):
        return run_supervised(_specs(["a"] * specs), jobs=jobs,
                              policy=SweepPolicy(**FAST),
                              worker=_pid_worker, in_process=True).results

    # jobs=4 over one spec is one process too.
    assert sweep(jobs=1) == [os.getpid()] * 2
    assert sweep(jobs=4, specs=1) == [os.getpid()]
    assert spawned == []
    # More than one process: one forked slot per concurrent run.
    assert sweep(jobs=2) == spawned
    assert len(spawned) == 2
    # Off the main thread (no SIGALRM, no drain): one forked slot.
    results = []
    thread = threading.Thread(target=lambda: results.extend(sweep(jobs=1)))
    thread.start()
    thread.join(120)
    assert len(spawned) == 3
    assert results == [spawned[2]] * 2
