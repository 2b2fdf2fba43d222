"""Simulation harness: workloads onto systems, epoch by epoch.

- :mod:`~repro.sim.workload` — bind benchmarks to cores (multiprogrammed
  mixes, 16-thread PARSEC runs, single-benchmark alone runs).
- :mod:`~repro.sim.engine` — the epoch-driven trace simulation loop.
- :mod:`~repro.sim.results` / :mod:`~repro.sim.seeds` — engine names, run
  results and seed derivation: plain data the service and client share
  without importing the simulator.
- :mod:`~repro.sim.oracle` — the one-to-one footprint estimator of Figure 5.
- :mod:`~repro.sim.experiment` — scheme registry, run orchestration and the
  alone-IPC cache used by the speedup metrics.
- :mod:`~repro.sim.parallel` — the process-parallel sweep runner.
- :mod:`~repro.sim.supervisor` — supervised, crash-safe sweep execution:
  timeouts, retries, quarantine, and resumable run journals.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first use (PEP 562).
_EXPORTS = {
    "Workload": "repro.sim.workload",
    "EpochResult": "repro.sim.results",
    "RunResult": "repro.sim.results",
    "simulate": "repro.sim.engine",
    "OracleFootprint": "repro.sim.oracle",
    "SCHEME_BUILDERS": "repro.sim.experiment",
    "build_system": "repro.sim.experiment",
    "run_scheme": "repro.sim.experiment",
    "alone_ipcs": "repro.sim.experiment",
    "RunSpec": "repro.sim.parallel",
    "run_many": "repro.sim.parallel",
    "SweepPolicy": "repro.sim.supervisor",
    "SweepReport": "repro.sim.supervisor",
    "run_supervised": "repro.sim.supervisor",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
