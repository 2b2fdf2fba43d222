"""Tests for Active Cache Footprint Vectors and the per-core bank."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acfv import Acfv, AcfvBank


class TestAcfv:
    def test_set_and_count(self):
        acfv = Acfv(64)
        acfv.set(1)
        acfv.set(2)
        assert acfv.ones >= 1  # collisions possible

    def test_reset(self):
        acfv = Acfv(64)
        for tag in range(30):
            acfv.set(tag)
        acfv.reset()
        assert acfv.ones == 0

    def test_fraction(self):
        acfv = Acfv(4, hash_name="modulo")
        acfv.set(0)
        acfv.set(1)
        assert acfv.fraction == 0.5

    def test_estimated_lines_small_footprint_is_accurate(self):
        acfv = Acfv(256)
        for tag in range(20):
            acfv.set(tag)
        assert acfv.estimated_lines() == pytest.approx(20, rel=0.35)

    def test_estimated_lines_saturates_at_3x_bits(self):
        acfv = Acfv(8, hash_name="modulo")
        for tag in range(8):
            acfv.set(tag)
        assert acfv.estimated_lines() == 24.0

    def test_estimation_inverts_expected_population(self):
        """E[ones] = n(1 - (1 - 1/n)^F) and the inverse recovers F."""
        n, footprint = 128, 60
        expected_ones = n * (1 - (1 - 1 / n) ** footprint)
        acfv = Acfv(n)
        # Simulate the expectation directly through the math.
        estimate = -n * math.log(1 - expected_ones / n)
        assert estimate == pytest.approx(footprint, rel=0.05)

    def test_overlap_of_identical_sets(self):
        a, b = Acfv(64), Acfv(64)
        for tag in range(10):
            a.set(tag)
            b.set(tag)
        assert a.overlap_fraction(b) == 1.0

    def test_overlap_of_disjoint_sets_is_low(self):
        a, b = Acfv(512), Acfv(512)
        for tag in range(20):
            a.set(tag)
            b.set(1000 + tag)
        assert a.overlap_fraction(b) < 0.4

    def test_overlap_corrects_for_hash_collisions(self):
        """Two large independent footprints must not read as sharing."""
        a, b = Acfv(64), Acfv(64)
        for tag in range(40):
            a.set(tag * 7919)
            b.set((1 << 30) + tag * 104729)
        assert a.overlap_fraction(b) < 0.5

    def test_overlap_of_fully_saturated_vectors_is_uninformative(self):
        """All-ones vectors overlap with *anything*; the corrected measure
        reports 0 rather than fabricating sharing evidence."""
        a, b = Acfv(32), Acfv(32)
        for tag in range(100):
            a.set(tag)
            b.set(tag)
        assert a.overlap_fraction(b) == 0.0

    def test_overlap_with_empty_is_zero(self):
        a, b = Acfv(64), Acfv(64)
        a.set(1)
        assert a.overlap_fraction(b) == 0.0

    def test_rejects_non_positive_bits(self):
        with pytest.raises(ValueError):
            Acfv(0)


class TestAcfvBank:
    def make_bank(self):
        return AcfvBank(n_cores=4, l2_bits=64, l3_bits=128)

    def test_hit_sets_both_levels_for_l2(self):
        bank = self.make_bank()
        bank.on_hit("l2", 0, 1, 42)
        assert bank.acfv("l2", 1).ones == 1
        assert bank.acfv("l3", 1).ones == 1

    def test_l3_hit_sets_only_l3(self):
        bank = self.make_bank()
        bank.on_hit("l3", 0, 2, 42)
        assert bank.acfv("l2", 2).ones == 0
        assert bank.acfv("l3", 2).ones == 1

    def test_fill_does_not_count(self):
        bank = self.make_bank()
        bank.on_fill("l2", 0, 0, 42)
        assert bank.acfv("l2", 0).ones == 0

    def test_evict_ignored_by_default(self):
        bank = self.make_bank()
        bank.on_hit("l2", 0, 0, 42)
        bank.on_evict("l2", 0, 42, owner=0)
        assert bank.acfv("l2", 0).ones == 1

    def test_group_utilization_saturating_scale(self):
        bank = self.make_bank()
        # ~32 distinct tags into core 0's 64-bit L2 vector.
        for tag in range(32):
            bank.on_hit("l2", 0, 0, tag)
        util = bank.group_utilization("l2", (0,), slice_lines=64)
        # Demand ~= 32 lines over 64 -> u = 1 - exp(-0.5) ~= 39 %.
        assert util == pytest.approx(39.0, abs=12.0)

    def test_group_utilization_juxtaposes(self):
        bank = self.make_bank()
        for tag in range(32):
            bank.on_hit("l2", 0, 0, tag)
        alone = bank.group_utilization("l2", (0,), slice_lines=64)
        paired = bank.group_utilization("l2", (0, 1), slice_lines=64)
        assert paired < alone

    def test_group_utilization_requires_cores(self):
        with pytest.raises(ValueError):
            self.make_bank().group_utilization("l2", (), 64)

    def test_overlap_peak_pairwise(self):
        bank = self.make_bank()
        for tag in range(16):
            bank.on_hit("l3", 0, 0, tag)
            bank.on_hit("l3", 1, 1, tag)
        assert bank.overlap("l3", (0,), (1,)) == 1.0

    def test_reset_all(self):
        bank = self.make_bank()
        bank.on_hit("l2", 0, 0, 1)
        bank.on_hit("l3", 0, 3, 2)
        bank.reset_all()
        assert bank.acfv("l2", 0).ones == 0
        assert bank.acfv("l3", 3).ones == 0

    def test_record_hits_matches_on_hit(self):
        # L2-hit lines land in both vectors (inclusion), L3-hit lines in
        # the L3 vector only — the same state per-hit on_hit leaves, per
        # core, when one flush carries several cores (sets or arrays).
        l2_lines, l3_lines = {1, 9, 40}, {9, 77, 1 << 41}
        batched, per_hit = self.make_bank(), self.make_bank()
        batched.acfv("l3", 2).flip(5)
        per_hit.acfv("l3", 2).flip(5)
        batched.record_epoch_hits([
            (2, l2_lines, l3_lines),
            (0, np.array(sorted(l3_lines), dtype=np.int64), set())])
        for line in l2_lines:
            per_hit.on_hit("l2", 2, 2, line)
        for line in l3_lines:
            per_hit.on_hit("l3", 2, 2, line)
            per_hit.on_hit("l2", 0, 0, line)
        for level in ("l2", "l3"):
            for core in range(4):
                assert batched.acfv(level, core).as_int() \
                    == per_hit.acfv(level, core).as_int(), (level, core)

    def test_record_hits_empty_is_noop(self):
        bank = self.make_bank()
        bank.record_epoch_hits([(0, set(), set())])
        bank.record_epoch_hits([])
        assert bank.acfv("l2", 0).ones == 0
        assert bank.acfv("l3", 0).ones == 0

    def test_rejects_non_positive_cores(self):
        with pytest.raises(ValueError):
            AcfvBank(0, 8, 8)


@given(st.sets(st.integers(0, 10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_ones_bounded_by_distinct_tags(tags):
    acfv = Acfv(256)
    for tag in tags:
        acfv.set(tag)
    assert acfv.ones <= len(tags)
    assert acfv.ones >= 1


@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["l2", "l3"]),
                          st.integers(min_value=0, max_value=2**62)),
                max_size=80),
       st.sampled_from([2, 8, 32, 64, 100, 128, 256, 512]),
       st.sampled_from([8, 100, 512]),
       st.sampled_from(["xor", "modulo"]))
@settings(max_examples=200, deadline=None)
def test_property_record_epoch_hits_matches_on_hit(hits, l2_bits, l3_bits,
                                                   name):
    """One flush of every core's hit lines (duplicates included) leaves
    exactly the vectors per-hit ``on_hit`` calls leave, for any vector
    length and either hash."""
    batched = AcfvBank(4, l2_bits, l3_bits, name)
    per_hit = AcfvBank(4, l2_bits, l3_bits, name)
    for core, level, tag in hits:
        per_hit.on_hit(level, core, core, tag)
    batched.record_epoch_hits([
        (core, [t for c, lvl, t in hits if c == core and lvl == "l2"],
         [t for c, lvl, t in hits if c == core and lvl == "l3"])
        for core in range(4)])
    for level in ("l2", "l3"):
        for core in range(4):
            assert batched.acfv(level, core).as_int() \
                == per_hit.acfv(level, core).as_int(), (level, core)
