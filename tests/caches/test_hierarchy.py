"""Tests for the three-level inclusive hierarchy with merged groups."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import CacheHierarchy, HierarchyObserver
from repro.config import TINY
from repro.sim.engine import simulate
from repro.sim.experiment import build_system
from repro.sim.workload import Workload
from repro.workloads import MIXES


def private_topology(n=16):
    return [(i,) for i in range(n)]


def make_hierarchy(**kwargs):
    return CacheHierarchy(TINY, **kwargs)


class RecordingObserver(HierarchyObserver):
    def __init__(self):
        self.events = []

    def on_hit(self, level, slice_id, core, tag):
        self.events.append(("hit", level, slice_id, core, tag))

    def on_fill(self, level, slice_id, core, tag):
        self.events.append(("fill", level, slice_id, core, tag))

    def on_evict(self, level, slice_id, tag, owner=-1):
        self.events.append(("evict", level, slice_id, owner, tag))


class TestAccessPath:
    def test_cold_access_goes_to_memory(self):
        h = make_hierarchy()
        result = h.access(0, 0x1000)
        assert result.level == "mem"
        assert result.latency == TINY.latency.memory

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        h.access(0, 0x1000)
        result = h.access(0, 0x1000)
        assert result.level == "l1"
        assert result.latency == TINY.latency.l1_hit

    def test_l2_hit_after_l1_invalidation(self):
        h = make_hierarchy()
        h.access(0, 0x1000)
        h.l1s[0].invalidate(0x1000)
        result = h.access(0, 0x1000)
        assert result.level == "l2"
        assert result.latency == TINY.latency.l2_local_hit

    def test_l3_hit_after_l2_invalidation(self):
        h = make_hierarchy()
        h.access(0, 0x1000)
        h.l1s[0].invalidate(0x1000)
        h.l2s[0].invalidate(0x1000)
        result = h.access(0, 0x1000)
        assert result.level == "l3"
        assert result.latency == TINY.latency.l3_local_hit

    def test_fill_installs_at_all_levels(self):
        h = make_hierarchy()
        h.access(3, 0x2000)
        assert 0x2000 in h.l1s[3]
        assert 0x2000 in h.l2s[3]
        assert 0x2000 in h.l3s[3]

    def test_stats_count_accesses(self):
        h = make_hierarchy()
        for _ in range(3):
            h.access(5, 0x42)
        stats = h.stats.cores[5]
        assert stats.accesses == 3
        assert stats.memory_accesses == 1
        assert stats.l1_hits == 2


class TestMergedGroups:
    def merged_pair(self):
        h = make_hierarchy()
        l2 = [(0, 1)] + private_topology()[2:]
        l3 = [(0, 1)] + private_topology()[2:]
        h.set_topology(l2, l3)
        return h

    def test_remote_hit_pays_merged_latency(self):
        h = self.merged_pair()
        h.access(1, 0x3000)  # fills slice 1
        h.l1s[0].flush()
        result = h.access(0, 0x3000)
        assert result.level == "l2"
        assert result.remote
        assert result.latency == TINY.latency.l2_merged_hit

    def test_static_mode_charges_local_latency_for_remote_hit(self):
        h = CacheHierarchy(TINY, charge_remote_latency=False)
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        h.access(1, 0x3000)
        result = h.access(0, 0x3000)
        assert result.remote
        assert result.latency == TINY.latency.l2_local_hit

    def test_group_capacity_is_summed(self):
        """A merged pair holds twice the lines of one slice in a set."""
        h = self.merged_pair()
        ways = TINY.l2_slice.ways
        sets = TINY.l2_slice.sets
        # Fill 2*ways lines of the same L2 set from core 0.
        lines = [s * sets for s in range(2 * ways)]
        for line in lines:
            h.access(0, line)
        resident = set(h.l2s[0].resident_lines()) | set(h.l2s[1].resident_lines())
        assert set(lines) <= resident

    def test_private_slice_cannot_hold_group_capacity(self):
        h = make_hierarchy()
        ways = TINY.l2_slice.ways
        sets = TINY.l2_slice.sets
        lines = [s * sets for s in range(2 * ways)]
        for line in lines:
            h.access(0, line)
        assert h.l2s[0].occupancy() <= TINY.l2_slice.lines

    def test_topology_must_partition(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.set_topology([(0,)], private_topology())

    def test_l2_group_must_be_inside_l3_group(self):
        h = make_hierarchy()
        bad_l2 = [(0, 1)] + private_topology()[2:]
        with pytest.raises(ValueError):
            h.set_topology(bad_l2, private_topology())


class TestLazyInvalidation:
    def test_duplicates_resolved_on_hit(self):
        """After a merge, duplicate copies collapse to one on first touch."""
        h = make_hierarchy()
        # Same line cached privately by both cores (different address
        # spaces would never do this, but threads sharing memory do).
        h.access(0, 0x5000)
        h.access(1, 0x5000)
        # Merge the two slices; both L2 slices may hold a copy.
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        copies = int(0x5000 in h.l2s[0]) + int(0x5000 in h.l2s[1])
        if copies == 2:
            h.l1s[0].flush()
            h.access(0, 0x5000)
            copies_after = int(0x5000 in h.l2s[0]) + int(0x5000 in h.l2s[1])
            assert copies_after == 1
            total_lazy = sum(s.lazy_invalidations
                             for s in h.stats.l2_slices.values())
            assert total_lazy >= 1


class TestInclusion:
    def test_l3_eviction_back_invalidates_l2_and_l1(self):
        h = make_hierarchy()
        sets3 = TINY.l3_slice.sets
        ways3 = TINY.l3_slice.ways
        # Fill one L3 set beyond capacity from core 0.
        lines = [s * sets3 for s in range(ways3 + 1)]
        for line in lines:
            h.access(0, line)
        h.check_inclusion()

    def test_inclusion_after_random_traffic(self):
        import random
        rng = random.Random(7)
        h = make_hierarchy()
        for _ in range(3000):
            h.access(rng.randrange(16), rng.randrange(2000), rng.random() < 0.3)
        h.check_inclusion()

    def test_inclusion_after_merges_and_splits(self):
        import random
        rng = random.Random(9)
        h = make_hierarchy()
        topologies = [
            (private_topology(), private_topology()),
            ([(0, 1)] + private_topology()[2:], [(0, 1)] + private_topology()[2:]),
            ([(0, 1), (2, 3)] + private_topology()[4:],
             [(0, 1, 2, 3)] + private_topology()[4:]),
            (private_topology(), [(0, 1)] + private_topology()[2:]),
            (private_topology(), private_topology()),
        ]
        for l2, l3 in topologies:
            for _ in range(800):
                h.access(rng.randrange(16), rng.randrange(1500), rng.random() < 0.3)
            h.set_topology(l2, l3)
            h.check_inclusion()

    def test_repair_evicts_orphans_on_split(self):
        h = make_hierarchy()
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        # Force core 0 to overflow into slice 1.
        sets = TINY.l2_slice.sets
        ways = TINY.l2_slice.ways
        for s in range(2 * ways):
            h.access(0, s * sets)
        # Split back to private: core 0's lines in slice 1 are orphans.
        h.set_topology(private_topology(), private_topology())
        h.check_inclusion()
        for entry in h.l2s[1].entries():
            assert entry.owner == 1

    def test_reinstalling_the_installed_grouping_skips_repair(
            self, monkeypatch):
        # The controller reinstalls its grouping every epoch; only a change
        # walks the resident state, but every install is still counted.
        from repro.caches import hierarchy as hierarchy_module
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        monkeypatch.setattr(hierarchy_module.obs_metrics, "REGISTRY",
                            registry)
        h = make_hierarchy()
        repairs = []
        monkeypatch.setattr(h, "_repair_after_reconfiguration",
                            lambda: repairs.append(h.l2_groups))
        merged = [(0, 1)] + private_topology()[2:]
        h.set_topology(merged, merged)
        h.set_topology(merged, merged)
        h.set_topology(private_topology(), private_topology())
        h.set_topology(private_topology(), private_topology())
        assert repairs == [merged, private_topology()]
        assert registry.counter("repro_topology_changes_total").value == 5


class TestCoherence:
    def test_write_invalidates_other_l1_copies(self):
        h = make_hierarchy()
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        h.access(0, 0x7000)
        h.access(1, 0x7000)  # now both L1s hold it
        assert 0x7000 in h.l1s[0]
        assert 0x7000 in h.l1s[1]
        h.access(0, 0x7000, write=True)
        assert 0x7000 not in h.l1s[1]
        assert h.stats.cores[0].coherence_invalidations >= 1

    def test_writer_without_l1_copy_leaves_no_directory_entry(self):
        # Core 0's only L2 slice is offline, so it fills no L1; its write
        # still invalidates core 1's copy, and the line must leave the
        # directory (an empty holder set would be garbage only the
        # reconfiguration repair collects).
        h = make_hierarchy()
        h.access(1, 0x7000)
        h.set_faulted_slices("l2", {0})
        h.access(0, 0x7000, write=True)
        assert 0x7000 not in h.l1s[1]
        assert 0x7000 not in h._l1_directory

    def test_dirty_l1_eviction_marks_l2_copy(self):
        h = make_hierarchy()
        h.access(0, 0x100, write=True)
        l1 = h.l1s[0]
        # Evict the dirty line from L1 by filling its set.
        sets1 = TINY.l1.sets
        line = 0x100
        for k in range(1, TINY.l1.ways + 1):
            h.access(0, line + k * sets1)
        if line not in l1:
            entry = h.l2s[0].lookup(line)
            assert entry is not None and entry.dirty


class TestObserver:
    def test_events_fire_in_order(self):
        observer = RecordingObserver()
        h = CacheHierarchy(TINY, observer=observer)
        h.access(0, 0x123)
        kinds = [e[0] for e in observer.events]
        assert kinds.count("fill") == 2  # l3 then l2
        h.l1s[0].flush()
        observer.events.clear()
        h.access(0, 0x123)
        assert ("hit", "l2", 0, 0, 0x123) in observer.events


@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 500), st.booleans()),
    min_size=50, max_size=400,
))
@settings(max_examples=20, deadline=None)
def test_property_inclusion_invariant(accesses):
    """Inclusion holds under arbitrary interleaved traffic."""
    h = CacheHierarchy(TINY)
    h.set_topology(
        [(0, 1), (2, 3)] + [(i,) for i in range(4, 16)],
        [(0, 1, 2, 3)] + [(i,) for i in range(4, 16)],
    )
    for core, line, write in accesses:
        h.access(core, line, write)
    h.check_inclusion()


@pytest.mark.parametrize("engine", ["event", "batch"])
@pytest.mark.parametrize("scheme", ["(1:1:16)", "(16:1:1)", "morphcache"])
def test_hierarchy_freed_by_refcount(scheme, engine):
    """A finished run's hierarchy dies with its system, no GC pass needed.

    A method bound on the instance (``self.access = self._something``)
    would be a reference cycle that keeps every hierarchy alive until the
    cyclic collector runs.
    """
    workload = Workload.from_mix(MIXES[0])
    system = build_system(scheme, TINY, workload, seed=1)
    simulate(system, workload, TINY, seed=1, epochs=2, engine=engine)
    gc.disable()
    try:
        hierarchy = weakref.ref(system.hierarchy)
        del system
        assert hierarchy() is None
    finally:
        gc.enable()
