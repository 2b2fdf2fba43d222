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

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first use (PEP 562).
_EXPORTS = {
    "STATIC_LABELS": "repro.baselines.static_topologies",
    "BASELINE_LABEL": "repro.baselines.static_topologies",
    "PippCache": "repro.baselines.pipp",
    "PippSystem": "repro.baselines.pipp",
    "UtilityMonitor": "repro.baselines.pipp",
    "lookahead_partition": "repro.baselines.pipp",
    "DsrLevel": "repro.baselines.dsr",
    "DsrSystem": "repro.baselines.dsr",
    "ideal_offline": "repro.baselines.offline_ideal",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
