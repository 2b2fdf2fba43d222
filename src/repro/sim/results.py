"""What a run is asked for and what it returns: engine names and results.

Plain data with no simulator behind it, so the service, the journal and
the client read and write runs without importing numpy or the kernels.
:mod:`repro.sim.engine` re-exports every name here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Valid values for :func:`~repro.sim.engine.simulate`'s ``engine``
#: argument.  Both engines are bit-identical on supported systems (the
#: batch engine falls back to the event engine otherwise), so checkpoints
#: do not record the engine and a run may switch engines across a resume.
ENGINES = ("event", "batch")

#: The engine every entry point uses unless told otherwise: runs, sweeps
#: (:class:`~repro.sim.parallel.RunSpec`) and service jobs.  ``"event"``
#: stays the per-access reference the batch engine is checked against.
DEFAULT_ENGINE = "batch"


@dataclass(frozen=True)
class EpochResult:
    """Measurements of one epoch."""

    epoch: int
    ipcs: Dict[int, float]
    """Per-active-core IPC."""

    misses: Dict[int, int]
    """Per-active-core main-memory accesses during the epoch."""

    topology_label: Optional[str]
    """Topology in force after the epoch's reconfiguration (if reported)."""

    @property
    def throughput(self) -> float:
        return sum(self.ipcs.values())


@dataclass
class RunResult:
    """All epochs of one (scheme, workload) run."""

    workload_name: str
    scheme_name: str
    epochs: List[EpochResult] = field(default_factory=list)

    @property
    def mean_throughput(self) -> float:
        if not self.epochs:
            return 0.0
        return sum(e.throughput for e in self.epochs) / len(self.epochs)

    def mean_ipcs(self) -> Dict[int, float]:
        """Per-core IPC averaged over the epochs in which the core ran.

        The core set is the *union* across epochs, and each core averages
        over its own active epochs only — a core that goes inactive (or
        joins) mid-run still gets a correct mean instead of a ``KeyError``
        or a silently dropped entry.
        """
        totals: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for e in self.epochs:
            for core, ipc in e.ipcs.items():
                totals[core] = totals.get(core, 0.0) + ipc
                counts[core] = counts.get(core, 0) + 1
        return {core: totals[core] / counts[core] for core in sorted(totals)}

    def throughput_series(self) -> List[float]:
        return [e.throughput for e in self.epochs]


__all__ = ["DEFAULT_ENGINE", "ENGINES", "EpochResult", "RunResult"]
