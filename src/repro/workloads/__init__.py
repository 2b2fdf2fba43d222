"""Workload substrate: synthetic SPEC CPU 2006 / PARSEC reference streams.

The paper drives a full-system simulator with SPEC CPU 2006 (reference
inputs) and PARSEC (simlarge).  Those binaries and traces are unavailable, so
this package provides parameterised synthetic address-stream models whose
active cache footprints (ACFs) are calibrated to the per-benchmark values of
the paper's Table 4 — see DESIGN.md for why that substitution preserves the
behaviour MorphCache depends on.

Public API:

- :class:`~repro.workloads.trace.EpochTrace` — one epoch of line-granular
  memory references for one thread.
- :class:`~repro.workloads.footprint.FootprintModel` /
  :class:`~repro.workloads.synthetic.SyntheticThread` — the reuse model.
- :mod:`~repro.workloads.spec` — the 29 SPEC benchmark models (Table 4 left).
- :mod:`~repro.workloads.parsec` — the 12 PARSEC models (Table 4 right).
- :mod:`~repro.workloads.mixes` — the 12 multiprogrammed mixes (Table 5).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first use (PEP 562).
_EXPORTS = {
    "EpochTrace": "repro.workloads.trace",
    "interleave_round_robin": "repro.workloads.trace",
    "FootprintModel": "repro.workloads.footprint",
    "SyntheticThread": "repro.workloads.synthetic",
    "SPEC_BENCHMARKS": "repro.workloads.spec",
    "SpecBenchmark": "repro.workloads.spec",
    "spec_benchmark": "repro.workloads.spec",
    "PARSEC_BENCHMARKS": "repro.workloads.parsec",
    "ParsecBenchmark": "repro.workloads.parsec",
    "parsec_benchmark": "repro.workloads.parsec",
    "MIXES": "repro.workloads.mixes",
    "Mix": "repro.workloads.mixes",
    "mix_by_name": "repro.workloads.mixes",
    "RecordedThread": "repro.workloads.tracefile",
    "save_traces": "repro.workloads.tracefile",
    "load_traces": "repro.workloads.tracefile",
    "record_workload": "repro.workloads.tracefile",
    "recorded_threads": "repro.workloads.tracefile",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
