"""Tests for the PIPP baseline (Xie & Loh, extended to L2+L3)."""

import random

import pytest

from repro.baselines.pipp import (
    PippCache,
    PippSystem,
    UtilityMonitor,
    lookahead_partition,
)
from repro.config import TINY


class TestUtilityMonitor:
    def test_records_stack_distance_hits(self):
        monitor = UtilityMonitor(sets=4, ways=4, sample_every=1)
        monitor.observe(0)
        monitor.observe(0)  # MRU hit -> distance 0
        assert monitor.position_hits[0] == 1

    def test_deeper_reuse_hits_deeper_position(self):
        monitor = UtilityMonitor(sets=1, ways=4, sample_every=1)
        monitor.observe(0)
        monitor.observe(1)
        monitor.observe(0)  # distance 1
        assert monitor.position_hits[1] == 1

    def test_utility_curve_is_cumulative(self):
        monitor = UtilityMonitor(sets=1, ways=4, sample_every=1)
        monitor.position_hits = [3, 2, 1, 0]
        assert monitor.utility_curve() == [3, 5, 6, 6]

    def test_streaming_detection(self):
        monitor = UtilityMonitor(sets=1, ways=4, sample_every=1)
        for line in range(200):
            monitor.observe(line)
        assert monitor.is_streaming

    def test_reuse_is_not_streaming(self):
        monitor = UtilityMonitor(sets=1, ways=4, sample_every=1)
        for _ in range(100):
            monitor.observe(0)
        assert not monitor.is_streaming

    def test_unsampled_sets_ignored(self):
        monitor = UtilityMonitor(sets=4, ways=4, sample_every=4)
        monitor.observe(1)  # set 1 is not sampled
        assert monitor.accesses == 0

    def test_reset(self):
        monitor = UtilityMonitor(sets=1, ways=2, sample_every=1)
        monitor.observe(0)
        monitor.reset()
        assert monitor.accesses == 0
        assert monitor.position_hits == [0, 0]


class TestLookaheadPartition:
    def test_splits_by_marginal_utility(self):
        curves = [[10, 20, 30, 40], [1, 1, 1, 1]]
        allocation = lookahead_partition(curves, total_ways=4)
        assert allocation[0] > allocation[1]
        assert sum(allocation) == 4

    def test_minimum_allocation_honoured(self):
        curves = [[100, 200], [0, 0], [0, 0]]
        allocation = lookahead_partition(curves, total_ways=4, minimum=1)
        assert all(a >= 1 for a in allocation)

    def test_flat_curves_spread_round_robin(self):
        curves = [[0, 0, 0, 0]] * 2
        allocation = lookahead_partition(curves, total_ways=6)
        assert sum(allocation) == 6

    def test_rejects_insufficient_ways(self):
        with pytest.raises(ValueError):
            lookahead_partition([[1], [1]], total_ways=1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lookahead_partition([], total_ways=4)


class TestPippCache:
    def make_cache(self):
        return PippCache(sets=4, ways=8, n_cores=2, seed=1)

    def test_insert_at_partition_position(self):
        cache = self.make_cache()
        cache.partitions = [2, 6]
        # Fill the set with core 1's lines, then insert one for core 0.
        for k in range(8):
            cache.fill(1, k * 4)
        cache.fill(0, 999 * 4 )
        entries = cache._data[0]
        lines = [line for line, _ in entries]
        assert lines.index(999 * 4) == 2

    def test_victim_is_lowest_priority(self):
        cache = self.make_cache()
        for k in range(9):
            victim = cache.fill(0, k * 4)
        assert victim is not None

    def test_lookup_hit_and_miss_counted(self):
        cache = self.make_cache()
        cache.fill(0, 16)
        assert cache.lookup(0, 16)
        assert not cache.lookup(0, 20)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_owner_map_tracks_priority_lists(self):
        # Hits, fills and evictions over a few sets: the per-set owner map
        # always holds exactly the resident (line, owner) pairs.
        cache = self.make_cache()
        rng = random.Random(5)
        for _ in range(2000):
            core, line = rng.randrange(2), rng.randrange(64)
            if not cache.lookup(core, line):
                cache.fill(core, line)
        assert cache.hits and cache.misses
        for entries, owners in zip(cache._data, cache._owners):
            assert dict(entries) == owners
            assert len(entries) == len(owners)

    def test_promotion_moves_at_most_one_position(self):
        cache = self.make_cache()
        cache.fill(0, 0)
        for k in range(1, 8):
            cache.fill(1, k * 4)
        before = [line for line, _ in cache._data[0]]
        cache.lookup(0, 0)
        after = [line for line, _ in cache._data[0]]
        moved = before.index(0), after.index(0)
        assert moved[1] - moved[0] in (0, 1)

    def test_repartition_resets_monitors(self):
        cache = self.make_cache()
        for line in range(32):
            cache.lookup(0, line)
        partitions = cache.repartition()
        assert sum(partitions) <= cache.ways
        assert cache.monitors[0].accesses == 0


class TestPippSystem:
    def test_protocol(self):
        system = PippSystem(TINY, seed=3)
        latency = system.access(0, 0x100, False)
        assert latency == TINY.latency.memory
        assert system.access(0, 0x100, False) == TINY.latency.l1_hit
        assert system.end_epoch() == "pipp"
        assert system.miss_counts()[0] == 1

    def test_shared_cache_visible_to_all_cores(self):
        system = PippSystem(TINY, seed=3)
        system.access(0, 0x200, False)
        latency = system.access(1, 0x200, False)
        assert latency == TINY.latency.l2_local_hit

    def test_repartitions_on_epoch(self):
        system = PippSystem(TINY, seed=3)
        for line in range(50):
            system.access(0, line, False)
            system.access(1, 0, False)
        system.end_epoch()
        assert sum(system.l2.partitions) <= system.l2.ways
