"""Baseline schemes the paper compares MorphCache against.

- :mod:`~repro.baselines.static_topologies` — the five fixed ``(x:y:z)``
  configurations of Section 5.
- :mod:`~repro.baselines.pipp` — promotion/insertion pseudo-partitioning
  (Xie & Loh [28]) extended to both L2 and L3 (Figure 17).
- :mod:`~repro.baselines.dsr` — dynamic spill-receive (Qureshi [18])
  extended to both levels (Figure 17).
- :mod:`~repro.baselines.offline_ideal` — the per-epoch-best static oracle
  of Figure 15.
"""

from repro.baselines.static_topologies import STATIC_LABELS, BASELINE_LABEL
from repro.baselines.pipp import PippCache, PippSystem, UtilityMonitor, lookahead_partition
from repro.baselines.dsr import DsrLevel, DsrSystem
from repro.baselines.offline_ideal import ideal_offline

__all__ = [
    "STATIC_LABELS",
    "BASELINE_LABEL",
    "PippCache",
    "PippSystem",
    "UtilityMonitor",
    "lookahead_partition",
    "DsrLevel",
    "DsrSystem",
    "ideal_offline",
]
