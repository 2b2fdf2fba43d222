"""Process-tree helpers: descendants, peak resident memory, liveness.

Linux only: everything is read from ``/proc``.
"""

from __future__ import annotations

import os
import signal
from time import monotonic, sleep
from typing import List


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (over all of its threads)."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, breadth first."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        nxt: List[int] = []
        for parent in frontier:
            nxt.extend(children(parent))
        found.extend(nxt)
        frontier = nxt
    return found


def status_kb(pid: int, key: str = "VmHWM") -> int:
    """A ``/proc/<pid>/status`` memory field in KiB; 0 if the process is
    gone or a zombie (zombies report no memory fields)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def reap_children() -> None:
    """Collect the exit status of every child of this process that has
    ended, so none stays a zombie."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace: float, settle: float = 10.0) -> List[int]:
    """Wait up to ``grace`` seconds for every descendant of this process
    to end, SIGKILL the rest and wait up to ``settle`` seconds for them.

    Returns the pids that had to be killed: processes left running.
    """
    me = os.getpid()

    def live() -> List[int]:
        reap_children()
        return [pid for pid in descendants(me) if alive(pid)]

    deadline = monotonic() + grace
    left = live()
    while left and monotonic() < deadline:
        sleep(0.01)
        left = live()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = monotonic() + settle
    while live() and monotonic() < deadline:
        sleep(0.01)
    return left


class TreePeak:
    """Peak over samples of the summed peak RSS of a process tree.

    Each :meth:`sample` adds the ``VmHWM`` of the root and of every live
    descendant; the largest sum seen is the tree's peak.
    """

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak_kb = 0

    def sample(self) -> None:
        pids = [self.root] + descendants(self.root)
        self.peak_kb = max(self.peak_kb, sum(status_kb(pid) for pid in pids))

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
