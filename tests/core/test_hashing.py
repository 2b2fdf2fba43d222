"""Tests for the ACFV hash functions (Section 2.1, Figure 5)."""

import contextlib
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import ModuloHash, XorFoldHash, make_hash


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail (rather than hang) if the body runs longer than ``seconds``."""
    def _expired(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestXorFoldHash:
    def test_range(self):
        hash_ = XorFoldHash(64)
        for tag in [0, 1, 63, 64, 12345, 2**40 + 17]:
            assert 0 <= hash_(tag) < 64

    def test_deterministic(self):
        hash_ = XorFoldHash(128)
        assert hash_(0xDEADBEEF) == hash_(0xDEADBEEF)

    def test_mixes_high_bits(self):
        """Tags differing only in high bits map to different indices."""
        hash_ = XorFoldHash(64)
        indices = {hash_(base << 20) for base in range(1, 33)}
        assert len(indices) > 16

    def test_non_power_of_two_bits(self):
        hash_ = XorFoldHash(100)
        assert all(0 <= hash_(t) < 100 for t in range(1000))

    def test_spreads_sequential_tags(self):
        hash_ = XorFoldHash(64)
        covered = {hash_(t) for t in range(64)}
        assert len(covered) >= 48

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            XorFoldHash(0)

    def test_rejects_negative_tag(self):
        # Regression: ``value >>= width`` stalls at -1, so a negative tag
        # used to spin forever.  Under the deadline a hang fails the test
        # instead of wedging the suite.
        hash_ = XorFoldHash(64)
        with _deadline(5):
            with pytest.raises(ValueError):
                hash_(-5)
            with pytest.raises(ValueError):
                hash_.many(np.array([3, -5, 7], dtype=np.int64))


class TestModuloHash:
    def test_is_modulo(self):
        hash_ = ModuloHash(32)
        assert hash_(37) == 5
        assert hash_(32) == 0

    def test_aliases_strided_tags(self):
        """The weakness Figure 5 exposes: stride == bits collapses to one
        index."""
        hash_ = ModuloHash(16)
        indices = {hash_(base * 16) for base in range(100)}
        assert indices == {0}

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ModuloHash(-1)


class TestMakeHash:
    def test_builds_both(self):
        assert isinstance(make_hash("xor", 8), XorFoldHash)
        assert isinstance(make_hash("modulo", 8), ModuloHash)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_hash("sha", 8)


@given(st.integers(min_value=0, max_value=2**48), st.sampled_from([2, 8, 32, 128, 512]))
@settings(max_examples=100, deadline=None)
def test_property_both_hashes_in_range(tag, bits):
    assert 0 <= XorFoldHash(bits)(tag) < bits
    assert 0 <= ModuloHash(bits)(tag) < bits


# -- the vectorised form ----------------------------------------------------

BITS = [2, 8, 32, 64, 100, 128, 256, 512]
TAGS = st.lists(st.integers(min_value=0, max_value=2**62), max_size=60)


@given(TAGS, st.sampled_from(BITS), st.sampled_from(["xor", "modulo"]),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_property_many_matches_scalar(tags, bits, name, duplicate):
    if duplicate:
        tags = tags + tags[: len(tags) // 2]
    hash_ = make_hash(name, bits)
    out = hash_.many(np.array(tags, dtype=np.int64))
    assert out.tolist() == [hash_(t) for t in tags]


def test_many_empty_and_input_untouched():
    tags = np.array([2**40 + 17, 5, 0], dtype=np.int64)
    before = tags.copy()
    for name in ("xor", "modulo"):
        hash_ = make_hash(name, 100)
        assert hash_.many(np.array([], dtype=np.int64)).tolist() == []
        hash_.many(tags)
        assert np.array_equal(tags, before)
