"""Deterministic seed derivation, shared by sweeps and the service client."""

from __future__ import annotations


def derive_seed(base_seed: int, index: int) -> int:
    """A stable, collision-free per-run seed for run ``index`` of a sweep.

    Uses splitmix64 so neighbouring indices give uncorrelated seeds (plain
    ``base + index`` makes run *i* of seed *s* collide with run *i-1* of
    seed *s+1* across sweeps).
    """
    z = (base_seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


__all__ = ["derive_seed"]
