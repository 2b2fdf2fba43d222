"""Statistics collected by the cache hierarchy.

Per-core counters drive the timing model and the paper's metrics
(throughput, weighted/fair speedup); per-slice counters drive the QoS
throttling of Section 5.3 (miss counts before/after a merge) and the
diagnostic output of the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CoreStats:
    """Per-core access counters and accumulated memory cycles."""

    accesses: int = 0
    l1_hits: int = 0
    l2_local_hits: int = 0
    l2_remote_hits: int = 0
    l3_local_hits: int = 0
    l3_remote_hits: int = 0
    memory_accesses: int = 0
    coherence_invalidations: int = 0
    memory_cycles: int = 0
    instructions: int = 0
    cycles: float = 0.0

    @property
    def l2_hits(self) -> int:
        return self.l2_local_hits + self.l2_remote_hits

    @property
    def l3_hits(self) -> int:
        return self.l3_local_hits + self.l3_remote_hits

    @property
    def misses(self) -> int:
        """Accesses that went to main memory."""
        return self.memory_accesses

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the counted window."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def add_access_counts(self, accesses: int, l1_hits: int,
                          l2_local_hits: int, l3_local_hits: int,
                          memory_accesses: int, memory_cycles: int,
                          l2_remote_hits: int = 0,
                          l3_remote_hits: int = 0) -> None:
        """Fold a batch of per-level access counts into the counters.

        The batch engine counts levels in plain local integers during its
        kernel loop and flushes once per epoch; integer addition commutes,
        so the totals are identical to per-access increments.  The remote
        counts only arise under merged topologies (the group kernel); the
        per-core kernel and all-private epochs leave them at the default 0.
        """
        self.accesses += accesses
        self.l1_hits += l1_hits
        self.l2_local_hits += l2_local_hits
        self.l2_remote_hits += l2_remote_hits
        self.l3_local_hits += l3_local_hits
        self.l3_remote_hits += l3_remote_hits
        self.memory_accesses += memory_accesses
        self.memory_cycles += memory_cycles

    def reset_window(self) -> None:
        """Zero every counter (start of a measurement window)."""
        self.accesses = 0
        self.l1_hits = 0
        self.l2_local_hits = 0
        self.l2_remote_hits = 0
        self.l3_local_hits = 0
        self.l3_remote_hits = 0
        self.memory_accesses = 0
        self.coherence_invalidations = 0
        self.memory_cycles = 0
        self.instructions = 0
        self.cycles = 0.0


@dataclass
class SliceStats:
    """Per-slice hit/miss/eviction counters for one cache level."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    lazy_invalidations: int = 0

    def add_probe_counts(self, hits: int, misses: int) -> None:
        """Fold a batch of lookup outcomes into the counters."""
        self.hits += hits
        self.misses += misses

    def reset_window(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.lazy_invalidations = 0


@dataclass
class HierarchyStats:
    """All statistics of one hierarchy: per-core and per-level/per-slice."""

    cores: Dict[int, CoreStats] = field(default_factory=dict)
    l2_slices: Dict[int, SliceStats] = field(default_factory=dict)
    l3_slices: Dict[int, SliceStats] = field(default_factory=dict)

    @classmethod
    def for_machine(cls, n_cores: int) -> "HierarchyStats":
        return cls(
            cores={i: CoreStats() for i in range(n_cores)},
            l2_slices={i: SliceStats() for i in range(n_cores)},
            l3_slices={i: SliceStats() for i in range(n_cores)},
        )

    def reset_window(self) -> None:
        for group in (self.cores, self.l2_slices, self.l3_slices):
            for stats in group.values():
                stats.reset_window()
