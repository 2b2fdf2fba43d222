"""Trace-overhead benchmark: the observability layer must be free when off.

Times full ``simulate()`` runs (morphcache on MIX 01, the shared bench
config) on the default batch engine — the path users run — three ways:

- ``off`` — no tracer, registry disabled;
- ``trace`` — a :class:`~repro.obs.trace.TraceRecorder` writing JSONL;
- ``trace+metrics`` — tracing plus the enabled metrics registry.

All trace/metrics hook sites sit on epoch (or coarser) boundaries, so the
*on* overhead should be a few percent and the *off* path should be
indistinguishable from a tree without the observability layer — the CI
``trace-overhead`` job checks the latter by comparing the fresh
``BENCH_trace.json`` against the committed one at a 2% threshold.
The numbers go to ``BENCH_trace.json`` at the repo root (and a table to
stdout), never to the byte-pinned ``benchmarks/results/``; the traced
runs' results are also
asserted identical to the untraced run's (observation must not perturb the
simulation).
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time

from benchmarks.common import BENCH_CONFIG, SEED, format_rows
from repro.obs import REGISTRY
from repro.obs.trace import TraceRecorder
from repro.sim.engine import simulate
from repro.sim.experiment import build_system
from repro.sim.workload import Workload
from repro.workloads import MIXES

PASSES = 3  # runs per mode; best-of to shed scheduler noise

#: Mode name -> (trace, metrics).
MODES = {"off": (False, False), "trace": (True, False),
         "trace+metrics": (True, True)}

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_trace.json"


def _one_run(trace_path=None, metrics=False):
    """One full simulate() run; returns (seconds, mean_throughput)."""
    workload = Workload.from_mix(MIXES[0])
    system = build_system("morphcache", BENCH_CONFIG, workload, seed=SEED)
    tracer = TraceRecorder(trace_path) if trace_path is not None else None
    if metrics:
        REGISTRY.reset()
        REGISTRY.enable()
    try:
        start = time.perf_counter()
        result = simulate(system, workload, BENCH_CONFIG, seed=SEED,
                          tracer=tracer)
        elapsed = time.perf_counter() - start
    finally:
        if metrics:
            REGISTRY.disable()
        if tracer is not None:
            tracer.close()
    return elapsed, result.mean_throughput


def measure():
    """Best-of-PASSES accesses/second per mode, and each mode's result.

    Every pass runs each mode once, and the order rotates by one mode per
    pass, so each mode runs first, second and last equally often: no mode
    is always the one that pays for a cold start or a busy neighbour.
    """
    accesses = (BENCH_CONFIG.accesses_per_core_per_epoch * BENCH_CONFIG.cores
                * (BENCH_CONFIG.epochs + 1))  # +1 warmup epoch
    names = list(MODES)
    best = {name: float("inf") for name in names}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(PASSES):
            shift = i % len(names)
            for j, name in enumerate(names[shift:] + names[:shift]):
                trace, metrics = MODES[name]
                path = (pathlib.Path(tmp) / f"pass{i}-{j}.jsonl"
                        if trace else None)
                elapsed, results[name] = _one_run(path, metrics)
                best[name] = min(best[name], elapsed)
    return {name: accesses / best[name] for name in names}, results


def test_trace_overhead(benchmark):
    def all_modes():
        rates, results = measure()
        # Observation must not perturb the simulation: identical results.
        assert results["trace"] == results["off"]
        assert results["trace+metrics"] == results["off"]
        return rates

    rates = benchmark.pedantic(all_modes, rounds=1, iterations=1)
    overhead = {mode: 1.0 - rates[mode] / rates["off"] for mode in rates}

    rows = [[mode, f"{rates[mode]:.0f}", f"{100 * overhead[mode]:+.1f}%"]
            for mode in rates]
    table = format_rows(["mode", "acc/s", "overhead vs off"], rows)
    print("\nObservability overhead: simulate() accesses/second by mode "
          "(morphcache, MIX 01, small preset, batch engine, seed 2011, "
          f"best of {PASSES}, mode order rotated each pass)\n{table}\n\n"
          "The off row is the untraced default path; the CI "
          "trace-overhead job additionally holds it within 2% of the "
          "committed BENCH_trace.json baseline.")

    JSON_PATH.write_text(json.dumps({
        "config": "SMALL(accesses_per_core_per_epoch=2000, epochs=3)",
        "workload": "MIX 01",
        "seed": SEED,
        "passes": PASSES,
        "unit": "accesses/second",
        "after": rates,
        "overhead_fraction": overhead,
    }, indent=2) + "\n")

    # Epoch-boundary hooks only: tracing a run must never cost a large
    # fraction of it.  Loose floor (the job is non-gating; shared runners
    # are noisy) — the real 2% off-path check is the committed-baseline
    # comparison in CI.
    assert rates["trace"] >= 0.5 * rates["off"], rates
    assert rates["trace+metrics"] >= 0.5 * rates["off"], rates
