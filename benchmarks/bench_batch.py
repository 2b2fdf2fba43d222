"""Batch-engine benchmark: event vs batch accesses/second, same epochs.

Times one epoch of MIX 01 through both engines on the three topologies that
exercise the batch engine's dispatch tiers:

- ``private`` ``(1:1:16)`` — disjoint per-core address spaces, so the
  per-core specialised kernel (``batch-private-percore``) handles the whole
  epoch;
- ``merged`` ``(4:4:1)`` — multi-slice search groups on the slice-group
  kernel (``batch-merged``): aggregate per-group residency maps instead of
  per-access probes of every slice, and a per-set recency index that
  yields the group-wide LRU victim in O(1) instead of a scan per fill;
- ``shared`` ``(16:1:1)`` — one machine-wide search group, the same kernel
  under its ``batch-shared`` tag.

A second, stretch-scale section re-times merged/shared on a **64-core**
machine (``(4:4:4)`` and ``(64:1:1)``, MIX 01 tiled ×4) — the group kernel's
advantage *grows* with group size because the event engine's per-access
group probe is O(slices) while the kernel's residency lookup is O(1).

Both engines consume identical traces and produce bit-identical state (the
differential suite in ``tests/sim/test_batch_equivalence.py`` proves it);
this benchmark records only the throughput ratio.  Each topology is
measured best-of-``PASSES`` to damp scheduler noise.  The numbers go to
``BENCH_batch.json`` at the repo root (and a table to stdout), never to
the byte-pinned ``benchmarks/results/``.  CI gates on the committed private/merged/shared
speedups via ``benchmarks/compare_baseline.py --gate`` (a >20% drop fails
the job).

The timed region is purely the epoch runner: trace generation, timer
construction and ``end_epoch`` happen outside the clock.
"""

from __future__ import annotations

import json
import pathlib
import time

from benchmarks.common import BENCH_CONFIG, SEED, format_rows
from repro.cpu.cmp import CmpSystem
from repro.cpu.core_model import CoreTimingModel
from repro.sim.batch import (MERGED_KERNEL, PRIVATE_PERCORE, SHARED_KERNEL,
                             run_epoch_batch)
from repro.sim.engine import run_epoch
from repro.sim.workload import Workload
from repro.workloads import MIXES

TOPOLOGIES = {"private": "(1:1:16)", "merged": "(4:4:1)", "shared": "(16:1:1)"}

#: The dispatch tier each topology must land on — a silent fall-through to a
#: slower tier would otherwise masquerade as a perf regression.
EXPECTED_TAGS = {"private": PRIVATE_PERCORE, "merged": MERGED_KERNEL,
                 "shared": SHARED_KERNEL}

#: Stretch benchmark: the same merged/shared shapes at 64 cores.
SCALED_TOPOLOGIES = {"merged64": "(4:4:4)", "shared64": "(64:1:1)"}
SCALED_TAGS = {"merged64": MERGED_KERNEL, "shared64": SHARED_KERNEL}
SCALED_CONFIG = BENCH_CONFIG.with_(cores=64,
                                   accesses_per_core_per_epoch=500)

EPOCHS = 4   # epoch 0 doubles as cache warm-up; all epochs are timed
PASSES = 3   # best-of-N passes per (topology, engine)
SCALED_PASSES = 2  # the 64-core event runs are slow; keep CI tractable

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_batch.json"


def _bench_workload(config) -> Workload:
    """MIX 01, tiled across however many cores the config has."""
    base = Workload.from_mix(MIXES[0])
    reps = config.cores // len(base.models)
    if reps == 1:
        return base
    return Workload(name=f"{base.name} x{reps}", models=base.models * reps)


def _measure_once(label: str, engine: str, expected_tag: str,
                  config) -> float:
    """Accesses/second for one engine over EPOCHS epochs of MIX 01."""
    workload = _bench_workload(config)
    system = CmpSystem(config, static_label=label)
    threads = workload.build_threads(config, seed=SEED)
    active = [core for core, thread in enumerate(threads) if thread is not None]
    n = config.accesses_per_core_per_epoch
    total_accesses = 0
    total_time = 0.0
    for _ in range(EPOCHS):
        traces = {core: threads[core].generate(n) for core in active}
        timers = {core: CoreTimingModel(config.issue_width,
                                        memory_latency=config.latency.memory)
                  for core in active}
        start = time.perf_counter()
        if engine == "batch":
            tag = run_epoch_batch(system, traces, timers, n)
        else:
            run_epoch(system, traces, timers, n)
            tag = None
        total_time += time.perf_counter() - start
        total_accesses += n * len(active)
        system.end_epoch()
        if tag is not None:
            assert tag == expected_tag, (label, tag, expected_tag)
    return total_accesses / total_time


def measure(label: str, engine: str, expected_tag: str,
            config=BENCH_CONFIG, passes: int = PASSES) -> float:
    return max(_measure_once(label, engine, expected_tag, config)
               for _ in range(passes))


def test_batch_engine(benchmark):
    def sweep():
        rates = {}
        for name, label in TOPOLOGIES.items():
            rates[name] = {
                engine: measure(label, engine, EXPECTED_TAGS[name])
                for engine in ("event", "batch")
            }
        return rates

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    speedups = {name: rates[name]["batch"] / rates[name]["event"]
                for name in TOPOLOGIES}

    scaled_rates = {
        name: {engine: measure(label, engine, SCALED_TAGS[name],
                               config=SCALED_CONFIG, passes=SCALED_PASSES)
               for engine in ("event", "batch")}
        for name, label in SCALED_TOPOLOGIES.items()
    }
    scaled_speedups = {name: scaled_rates[name]["batch"]
                       / scaled_rates[name]["event"]
                       for name in SCALED_TOPOLOGIES}

    rows = [[name, TOPOLOGIES[name], EXPECTED_TAGS[name],
             f"{rates[name]['event']:.0f}", f"{rates[name]['batch']:.0f}",
             f"{speedups[name]:.2f}x"]
            for name in TOPOLOGIES]
    rows += [[name, SCALED_TOPOLOGIES[name], SCALED_TAGS[name],
              f"{scaled_rates[name]['event']:.0f}",
              f"{scaled_rates[name]['batch']:.0f}",
              f"{scaled_speedups[name]:.2f}x"]
             for name in SCALED_TOPOLOGIES]
    table = format_rows(
        ["path", "topology", "batch tier", "event acc/s", "batch acc/s",
         "speedup"], rows)
    print("\nBatch engine vs event engine: accesses/second per epoch "
          "(MIX 01, small preset, seed 2011; *64 rows: 64-core stretch, "
          "MIX 01 x4)\n"
          f"{table}\n\n"
          "Both engines are bit-identical (tests/sim/"
          "test_batch_equivalence.py); best-of-"
          f"{PASSES} passes per cell ({SCALED_PASSES} at 64 cores).")

    JSON_PATH.write_text(json.dumps({
        "config": "SMALL(accesses_per_core_per_epoch=2000, epochs=3)",
        "workload": "MIX 01",
        "seed": SEED,
        "epochs_timed": EPOCHS,
        "passes": PASSES,
        "unit": "accesses/second",
        "event": {name: rates[name]["event"] for name in TOPOLOGIES},
        "batch": {name: rates[name]["batch"] for name in TOPOLOGIES},
        "speedup": speedups,
        "scaled64": {
            "config": "SMALL(cores=64, accesses_per_core_per_epoch=500)",
            "workload": "MIX 01 x4",
            "passes": SCALED_PASSES,
            "event": {n: scaled_rates[n]["event"] for n in SCALED_TOPOLOGIES},
            "batch": {n: scaled_rates[n]["batch"] for n in SCALED_TOPOLOGIES},
            "speedup": scaled_speedups,
        },
    }, indent=2) + "\n")

    # Loud-regression floors, chosen so a noisy/loaded runner doesn't flake
    # while a real regression (e.g. a silent fall-through to batch-general,
    # which the per-epoch tag asserts above also catch) still fails.  The
    # committed baselines are the real ratchet: compare_baseline.py --gate
    # fails CI when private/merged/shared drop >20% below BENCH_batch.json.
    assert speedups["private"] >= 2.0, speedups
    assert speedups["merged"] >= 1.5, speedups
    assert speedups["shared"] >= 1.5, speedups
    assert all(s >= 0.9 for s in speedups.values()), speedups
    assert all(s >= 1.5 for s in scaled_speedups.values()), scaled_speedups
