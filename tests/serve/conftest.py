"""Shared harness for service tests: boot, discover, drain, kill.

The service under test always runs as a real subprocess in its own session
(``start_new_session=True``) so chaos tests can SIGKILL the whole process
group — service, its job forkserver *and* the job processes — exactly like
a machine loss, without orphaning workers into the test run.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).parents[2]


def _boot(argv, state_dir, wait_ready, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop("REPRO_JOBS", None)
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, cwd=str(REPO),
        start_new_session=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    if not wait_ready:
        return proc, None
    return proc, wait_for_ready(state_dir, proc, timeout=timeout)


def start_service(state_dir, *extra, wait_ready=True, timeout=60.0):
    """Boot ``repro serve`` on an OS-assigned port; returns (proc, client)."""
    return _boot(["-m", "repro", "serve", "--state-dir", str(state_dir),
                  "--port", "0", *extra], state_dir, wait_ready, timeout)


def start_service_with(state_dir, timeout=60.0, **config):
    """Boot ``run_service(ServiceConfig(...))`` directly on an OS-assigned
    port, for config fields ``repro serve`` has no flag for (such as
    ``poll_interval``); returns (proc, client)."""
    code = ("import sys\n"
            "from repro.serve.app import ServiceConfig, run_service\n"
            f"sys.exit(run_service(ServiceConfig(state_dir={str(state_dir)!r},"
            f" port=0, **{config!r})))\n")
    return _boot(["-c", code], state_dir, True, timeout)


def wait_for_ready(state_dir, proc=None, timeout=60.0):
    """Poll until ``readyz`` says ready; returns a connected client."""
    from repro.serve.client import ServiceClient

    info = pathlib.Path(state_dir) / "serve.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            raise AssertionError(
                f"service exited {proc.returncode} during startup:\n"
                f"{proc.stderr.read()}")
        if info.exists():
            try:
                client = ServiceClient.from_state_dir(state_dir, timeout=10.0)
                if client.readyz().get("ready"):
                    return client
            except Exception:
                pass  # stale serve.json from a previous boot, or not bound yet
        time.sleep(0.05)
    raise AssertionError(f"service not ready within {timeout:g}s")


def wait_for_journal_run(job_dir, timeout=60.0):
    """Block until the job's journal holds >= 1 completed-run record.

    The definition of "mid-sweep": the spawned job process is past its
    bootstrap, the journal header is durable, and at least one run result
    landed — so a kill/drain now provably interrupts in-flight work.
    """
    journal = pathlib.Path(job_dir) / "journal.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if journal.exists() and '"kind":"run"' in journal.read_text():
            return
        time.sleep(0.05)
    raise AssertionError(f"no run record in {journal} within {timeout:g}s")


def drain(proc, timeout=120.0):
    """SIGTERM the service and return its exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            kill_group(proc)


def kill_group(proc):
    """SIGKILL the service's whole process group (service + job children)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def process_table():
    """``{pid: (ppid, state, cmdline)}`` for every process in ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(
                    "utf-8", "replace")
        except OSError:
            continue  # raced with an exit
        # comm (field 2) may contain spaces: split after its closing paren.
        state, ppid = stat[stat.rindex(b")") + 2:].split()[:2]
        table[int(entry)] = (int(ppid), state.decode(), cmdline)
    return table


def descendants(pid, table=None):
    """``{pid: ppid}`` of every live descendant of ``pid``."""
    table = process_table() if table is None else table
    found, frontier = {}, [pid]
    while frontier:
        parent = frontier.pop()
        for child, (ppid, _state, _cmd) in table.items():
            if ppid == parent and child not in found:
                found[child] = ppid
                frontier.append(child)
    return found


def alive(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:].split()[0] != b"Z"


def wait_gone(pids, timeout=5.0):
    """Wait up to ``timeout`` for every pid to exit; returns the survivors."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [pid for pid in left if alive(pid)]
    return left
