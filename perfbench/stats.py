"""Percentiles, sample counts and failure accounting for the benchmark."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Sequence

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` (0 < q <= 1) among ``n``."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return max(1, math.ceil(q * n - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q of all at or
    below it (so p50 of an even count is the lower middle sample)."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` sample."""
    return n - nearest_rank(n, q)


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which percentile ``q`` has ``beyond`` above it."""
    n = beyond + 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


@dataclass
class Tally:
    """Operations attempted and failed, with the first reasons kept."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason or "failed")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
