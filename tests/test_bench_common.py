"""The figure benchmarks' shared run cache (``benchmarks/common.py``)."""

import pytest

from benchmarks import common
from repro.config import TINY
from repro.sim.workload import Workload
from repro.workloads import mix_by_name


@pytest.fixture
def empty_caches(monkeypatch):
    monkeypatch.setattr(common, "_RUN_CACHE", {})
    monkeypatch.setattr(common, "_SYSTEM_CACHE", {})


def test_system_for_after_plain_run(empty_caches):
    # A figure that reads controller state after another figure already
    # ran the same key without keeping the system.
    workload = Workload.from_mix(mix_by_name("MIX 08"))
    result = common.run("morphcache", workload, config=TINY)
    system = common.system_for("morphcache", workload, config=TINY)
    # The kept system is the one behind the cached result.
    assert (system.controller.current_label()
            == result.epochs[-1].topology_label)
    assert common.run("morphcache", workload, config=TINY) is result
    assert common.system_for("morphcache", workload, config=TINY) is system
