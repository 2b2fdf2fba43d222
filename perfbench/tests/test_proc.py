"""Stopping what a run leaves behind."""

import subprocess
import sys

from perfbench import proc


def test_a_child_that_ends_in_time_is_not_left_behind():
    child = subprocess.Popen([sys.executable, "-c", "import time; "
                              "time.sleep(0.2)"])
    assert proc.stop_descendants(grace=30.0) == []
    assert not proc.alive(child.pid)


def test_a_child_still_running_after_the_grace_is_killed_and_reported():
    child = subprocess.Popen([sys.executable, "-c", "import time; "
                              "time.sleep(60)"])
    assert proc.stop_descendants(grace=0.2) == [child.pid]
    assert not proc.alive(child.pid)
    assert child.pid not in proc.descendants(proc.os.getpid())
