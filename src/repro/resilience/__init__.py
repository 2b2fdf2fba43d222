"""Resilience subsystem: faults, invariant guards, checkpoint/resume.

- :mod:`~repro.resilience.errors` — the typed exception taxonomy
  (:class:`ReproError` and its per-class CLI exit codes).
- :mod:`~repro.resilience.faults` — deterministic seeded fault plans and the
  injector that applies them (ACFV bit flips, slice failures, bus stalls,
  topology corruption).
- :mod:`~repro.resilience.guards` — machine-checked topology invariants and
  the degradation ladder (roll back → freeze → static fallback).
- :mod:`~repro.resilience.checkpoint` — replay-verified checkpoint/resume
  for long sweeps.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first use (PEP 562).
_EXPORTS = {
    "ReproError": "repro.resilience.errors",
    "ConfigError": "repro.resilience.errors",
    "TopologyInvariantError": "repro.resilience.errors",
    "FaultInjectedError": "repro.resilience.errors",
    "CheckpointError": "repro.resilience.errors",
    "WorkerCrashError": "repro.resilience.errors",
    "SweepInterrupted": "repro.resilience.errors",
    "PoolError": "repro.resilience.errors",
    "LeaseLostError": "repro.resilience.errors",
    "PoolCorruptError": "repro.resilience.errors",
    "FAULT_KINDS": "repro.resilience.faults",
    "FaultEvent": "repro.resilience.faults",
    "FaultRule": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "FaultInjector": "repro.resilience.faults",
    "parse_fault_spec": "repro.resilience.faults",
    "TopologyGuard": "repro.resilience.guards",
    "GuardEvent": "repro.resilience.guards",
    "validate_topology": "repro.resilience.guards",
    "state_digest": "repro.resilience.checkpoint",
    "save_checkpoint": "repro.resilience.checkpoint",
    "load_checkpoint": "repro.resilience.checkpoint",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
