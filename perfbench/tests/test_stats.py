"""Percentile, sample-count and failure-accounting helpers."""

import pytest

from perfbench.stats import (Tally, median, min_samples, nearest_rank,
                             percentile, samples_beyond)


def test_nearest_rank_percentiles():
    values = list(range(1, 41))  # 1..40
    assert percentile(values, 0.50) == 20
    assert percentile(values, 0.75) == 30
    assert percentile(values, 1.0) == 40
    assert percentile([7.0], 0.75) == 7.0
    assert percentile([3, 1, 2, 4], 0.5) == 2  # lower middle, unsorted in


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank(0, 0.5)
    with pytest.raises(ValueError):
        nearest_rank(10, 0.0)
    with pytest.raises(ValueError):
        median([])


def test_samples_beyond_and_min_samples():
    assert samples_beyond(40, 0.75) == 10
    assert samples_beyond(39, 0.75) == 9
    assert samples_beyond(4, 0.75) == 1
    assert min_samples(0.75) == 40
    assert min_samples(0.5) == 20
    assert min_samples(0.9) == 100
    for q in (0.5, 0.75, 0.9):
        n = min_samples(q)
        assert samples_beyond(n, q) >= 10 > samples_beyond(n - 1, q)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert not tally.correct  # nothing attempted is not a pass
    tally.record(True)
    tally.record(False, "mismatch")
    tally.record(True)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.reasons == ["mismatch"]
    assert not tally.correct
    clean = Tally()
    clean.record(True)
    assert clean.correct


def test_tally_keeps_only_the_first_reasons():
    tally = Tally()
    for i in range(50):
        tally.record(False, f"r{i}")
    assert tally.failed == 50
    assert tally.reasons[:2] == ["r0", "r1"] and len(tally.reasons) == 20
