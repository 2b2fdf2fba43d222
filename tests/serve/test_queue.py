"""Tests for multi-tenant admission control and weighted-fair dispatch.

Pure unit tests against stub items — the queue is deliberately duck-typed
(anything with ``id``/``tenant``/``seq``), so fairness, shedding and
determinism are provable without a service, a process or a socket.
"""

from dataclasses import dataclass

import pytest

from repro.resilience.errors import (
    ConfigError,
    QuotaExceededError,
    ServiceSaturatedError,
)
from repro.serve.queue import FairQueue, TenantQuota


@dataclass
class Item:
    id: str
    tenant: str
    seq: int


def _items(tenant, count, start=1):
    return [Item(id=f"{seq:06d}-{tenant}", tenant=tenant, seq=seq)
            for seq in range(start, start + count)]


def _drain(queue, releases=True):
    """Dispatch everything, releasing each slot immediately; tenant order."""
    order = []
    while True:
        item = queue.next_runnable()
        if item is None:
            return order
        order.append(item.tenant)
        if releases:
            queue.release(item.tenant)


class TestQuotaValidation:
    def test_bad_weight(self):
        with pytest.raises(ConfigError):
            TenantQuota(weight=0)

    def test_bad_caps(self):
        with pytest.raises(ConfigError):
            TenantQuota(max_queued=0)
        with pytest.raises(ConfigError):
            TenantQuota(max_running=0)

    def test_bad_global_bound(self):
        with pytest.raises(ConfigError):
            FairQueue(max_queued=0)


class TestAdmission:
    def test_global_saturation_sheds_typed_429(self):
        queue = FairQueue(max_queued=2,
                          default_quota=TenantQuota(max_queued=10))
        for item in _items("a", 2):
            queue.submit(item)
        with pytest.raises(ServiceSaturatedError) as excinfo:
            queue.submit(Item("x", "b", 3))
        assert excinfo.value.http_status == 429
        assert queue.depth == 2  # the shed submission was never stored

    def test_tenant_quota_sheds_typed_429(self):
        queue = FairQueue(max_queued=10,
                          default_quota=TenantQuota(max_queued=1))
        queue.submit(Item("a1", "a", 1))
        with pytest.raises(QuotaExceededError) as excinfo:
            queue.submit(Item("a2", "a", 2))
        assert excinfo.value.http_status == 429
        # Another tenant is unaffected by a's quota.
        queue.submit(Item("b1", "b", 3))
        assert queue.tenant_depth("a") == 1
        assert queue.tenant_depth("b") == 1

    def test_burst_memory_is_bounded_by_the_cap(self):
        queue = FairQueue(max_queued=4,
                          default_quota=TenantQuota(max_queued=100))
        shed = 0
        for item in _items("a", 1000):
            try:
                queue.submit(item)
            except ServiceSaturatedError:
                shed += 1
        assert queue.depth == 4
        assert shed == 996

    def test_restore_bypasses_caps(self):
        # Recovery re-admits jobs that were already admitted pre-crash;
        # bouncing them would turn a restart into data loss.
        queue = FairQueue(max_queued=1)
        for item in _items("a", 5):
            queue.restore(item)
        assert queue.tenant_depth("a") == 5


class TestFairness:
    def test_equal_weights_alternate(self):
        queue = FairQueue()
        for item in _items("a", 4, start=1):
            queue.submit(item)
        for item in _items("b", 4, start=10):
            queue.submit(item)
        order = _drain(queue)
        assert order == ["a", "b", "a", "b", "a", "b", "a", "b"]
        # Acceptance bar: each equal-quota tenant gets >= 40% of any window.
        for window in (2, 4, 6, 8):
            share_a = order[:window].count("a") / window
            assert 0.4 <= share_a <= 0.6

    def test_double_weight_gets_double_share(self):
        queue = FairQueue(quotas={"heavy": TenantQuota(weight=2.0)})
        for item in _items("heavy", 8, start=1):
            queue.submit(item)
        for item in _items("light", 8, start=100):
            queue.submit(item)
        order = _drain(queue)
        assert order[:6].count("heavy") == 4  # 2:1 in every window
        assert order[:6].count("light") == 2

    def test_late_arrival_cannot_bank_idle_credit(self):
        queue = FairQueue()
        for item in _items("a", 6, start=1):
            queue.submit(item)
        # a runs alone for a while...
        for _ in range(3):
            item = queue.next_runnable()
            assert item.tenant == "a"
            queue.release(item.tenant)
        # ...then b arrives: it must share from *now*, not claim the past.
        for item in _items("b", 6, start=100):
            queue.submit(item)
        order = _drain(queue)
        assert order[0] == "b"  # b starts at the current virtual time
        assert order[1] == "a"  # and then they alternate
        assert order[:6].count("a") >= 2

    def test_flood_cannot_starve_a_backlogged_tenant(self):
        queue = FairQueue(max_queued=1000,
                          default_quota=TenantQuota(max_queued=1000))
        for item in _items("quiet", 2, start=1):
            queue.submit(item)
        for item in _items("flood", 500, start=1000):
            queue.submit(item)
        order = _drain(queue)
        # The quiet tenant's two jobs both dispatch within the first four.
        assert order[:4].count("quiet") == 2


class TestDispatchMechanics:
    def test_within_tenant_fifo_by_seq(self):
        queue = FairQueue()
        queue.submit(Item("a2", "a", 2))
        queue.submit(Item("a5", "a", 5))
        queue.submit(Item("a7", "a", 7))
        ids = []
        while True:
            item = queue.next_runnable()
            if item is None:
                break
            ids.append(item.id)
            queue.release("a")
        assert ids == ["a2", "a5", "a7"]

    def test_max_running_gates_dispatch_until_release(self):
        queue = FairQueue(default_quota=TenantQuota(max_running=1))
        queue.submit(Item("a1", "a", 1))
        queue.submit(Item("a2", "a", 2))
        first = queue.next_runnable()
        assert first.id == "a1"
        assert queue.next_runnable() is None  # a is at its running cap
        queue.release("a")
        assert queue.next_runnable().id == "a2"

    def test_cancel_removes_only_the_target(self):
        queue = FairQueue()
        for item in _items("a", 3):
            queue.submit(item)
        cancelled = queue.cancel("000002-a")
        assert cancelled.seq == 2
        assert queue.cancel("000002-a") is None
        ids = []
        while True:
            item = queue.next_runnable()
            if item is None:
                break
            ids.append(item.seq)
            queue.release("a")
        assert ids == [1, 3]

    def test_deterministic_tie_break(self):
        # Same submissions -> same dispatch order, every time.
        def build():
            queue = FairQueue()
            queue.submit(Item("b1", "b", 4))
            queue.submit(Item("a1", "a", 2))
            queue.submit(Item("c1", "c", 9))
            return _drain(queue)

        assert build() == build() == ["a", "b", "c"]

    def test_snapshot_and_position(self):
        queue = FairQueue()
        for item in _items("a", 2):
            queue.submit(item)
        snap = queue.snapshot()
        assert snap["depth"] == 2
        assert snap["tenants"]["a"]["queued"] == ["000001-a", "000002-a"]
        assert queue.position("000002-a") == 1
        assert queue.position("nope") is None
