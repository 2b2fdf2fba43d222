"""MorphCache reproduction: a reconfigurable adaptive multi-level cache
hierarchy (Srikantaiah et al., HPCA 2011), rebuilt as a pure-Python library.

Quick start::

    from repro import config, Workload, run_scheme, mix_by_name

    machine = config.preset("small")
    workload = Workload.from_mix(mix_by_name("MIX 05"))
    morph = run_scheme("morphcache", workload, machine, seed=1)
    base = run_scheme("(16:1:1)", workload, machine, seed=1)
    print(morph.mean_throughput / base.mean_throughput)

Packages:

- :mod:`repro.config` — Table 3 machine descriptions and scale presets.
- :mod:`repro.workloads` — synthetic SPEC/PARSEC models (Table 4/5).
- :mod:`repro.caches` — slices, merged groups, the inclusive hierarchy.
- :mod:`repro.interconnect` — segmented bus, arbiters, Table 1/2 timing.
- :mod:`repro.core` — MorphCache itself: ACFVs, topology, decisions, QoS.
- :mod:`repro.baselines` — static topologies, PIPP, DSR, ideal offline.
- :mod:`repro.cpu` / :mod:`repro.sim` — core timing and the epoch engine.
- :mod:`repro.metrics` — throughput, weighted/fair speedup, correlation.
- :mod:`repro.resilience` — fault injection, invariant guards,
  checkpoint/resume, and the typed error taxonomy.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining module, imported on first use (PEP 562), so
#: ``import repro.serve.client`` does not load the simulator.
_EXPORTS = {
    "config": "repro.config",
    "preset": "repro.config",
    "MachineConfig": "repro.config",
    "MorphConfig": "repro.config",
    "MsatConfig": "repro.config",
    "MorphCacheController": "repro.core.controller",
    "CmpSystem": "repro.cpu.cmp",
    "Workload": "repro.sim.workload",
    "RunResult": "repro.sim.results",
    "run_scheme": "repro.sim.experiment",
    "simulate": "repro.sim.engine",
    "alone_ipcs": "repro.sim.experiment",
    "throughput": "repro.metrics.speedups",
    "weighted_speedup": "repro.metrics.speedups",
    "fair_speedup": "repro.metrics.speedups",
    "MIXES": "repro.workloads.mixes",
    "mix_by_name": "repro.workloads.mixes",
    "SPEC_BENCHMARKS": "repro.workloads.spec",
    "PARSEC_BENCHMARKS": "repro.workloads.parsec",
    "ReproError": "repro.resilience.errors",
    "ConfigError": "repro.resilience.errors",
    "TopologyInvariantError": "repro.resilience.errors",
    "FaultInjectedError": "repro.resilience.errors",
    "CheckpointError": "repro.resilience.errors",
    "FaultPlan": "repro.resilience.faults",
    "parse_fault_spec": "repro.resilience.faults",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
