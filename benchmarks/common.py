"""Shared infrastructure for the per-figure/per-table benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
``small`` scale preset (1/32 machine, short epochs) and writes its output to
``benchmarks/results/<name>.txt`` in the same rows/series layout the paper
uses.  Absolute numbers differ from the paper (different substrate — see
EXPERIMENTS.md); the benchmarks assert only coarse *shape* properties so a
regression that inverts a headline comparison fails loudly while normal
statistical wobble does not.

Scheme runs are cached per (scheme, workload, seed) for the lifetime of the
pytest session: Figures 13, 14, 15 and 17 share the same static-topology
runs, which keeps the whole suite tractable.
"""

from __future__ import annotations

import math
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SMALL, MachineConfig, MorphConfig
from repro.sim.engine import RunResult, simulate
from repro.sim.experiment import build_system
from repro.sim.parallel import RunSpec, resolve_jobs
from repro.sim.supervisor import SweepPolicy, run_supervised
from repro.sim.workload import Workload
from repro.workloads import MIXES, PARSEC_BENCHMARKS

#: The machine every benchmark runs on.
BENCH_CONFIG: MachineConfig = SMALL.with_(
    accesses_per_core_per_epoch=2000, epochs=3
)

#: Epochs recorded per run (after 1 warm-up epoch).
EPOCHS = BENCH_CONFIG.epochs

SEED = 2011  # the paper's publication year, for flavour

#: The five static configurations of Figures 2/13/16.
STATICS = ["(16:1:1)", "(1:1:16)", "(4:4:1)", "(8:2:1)", "(1:16:1)"]
BASELINE = "(16:1:1)"

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_RUN_CACHE: Dict[Tuple, RunResult] = {}
_SYSTEM_CACHE: Dict[Tuple, object] = {}


def run(scheme: str, workload: Workload, epochs: Optional[int] = None,
        seed: int = SEED, morph: Optional[MorphConfig] = None,
        config: Optional[MachineConfig] = None,
        keep_system: bool = False) -> RunResult:
    """Run (or fetch from cache) one scheme on one workload.

    ``keep_system`` also caches the simulated system; a run cached without
    it is simulated again to get one (runs are deterministic, so the cached
    result stays valid and is kept).
    """
    config = config or BENCH_CONFIG
    key = (scheme, workload.name, seed, epochs, morph, config)
    if key not in _RUN_CACHE or (keep_system and key not in _SYSTEM_CACHE):
        system = build_system(scheme, config, workload, seed=seed, morph=morph)
        result = simulate(system, workload, config, seed=seed, epochs=epochs)
        result.scheme_name = scheme
        _RUN_CACHE.setdefault(key, result)
        if keep_system:
            _SYSTEM_CACHE[key] = system
    return _RUN_CACHE[key]


def system_for(scheme: str, workload: Workload, epochs: Optional[int] = None,
               seed: int = SEED, morph: Optional[MorphConfig] = None,
               config: Optional[MachineConfig] = None):
    """The system object of a cached run (for controller statistics)."""
    config = config or BENCH_CONFIG
    key = (scheme, workload.name, seed, epochs, morph, config)
    if key not in _SYSTEM_CACHE:
        run(scheme, workload, epochs=epochs, seed=seed, morph=morph,
            config=config, keep_system=True)
    return _SYSTEM_CACHE[key]


def run_batch(pairs: Sequence[Tuple[str, Workload]],
              epochs: Optional[int] = None, seed: int = SEED,
              morph: Optional[MorphConfig] = None,
              config: Optional[MachineConfig] = None,
              jobs: Optional[int] = None,
              run_timeout: Optional[float] = None,
              retries: int = 0) -> List[RunResult]:
    """Run many (scheme, workload) pairs, optionally across processes.

    Worker count comes from ``jobs``, else the ``REPRO_JOBS`` environment
    variable, else 1 — with one worker this is exactly a loop over
    :func:`run`.  Cached runs are reused; fresh results land in the same
    session cache, so a parallel warm-up benefits every later :func:`run`
    call.  Results come back in the order of ``pairs``.

    The pool path runs under the sweep supervisor
    (:func:`repro.sim.supervisor.run_supervised`): ``run_timeout`` kills
    hung workers, ``retries`` re-attempts failures (bit-identical — the
    run seed is reused), and every run that *did* complete is cached
    before the first unrecoverable failure is re-raised, so a retried
    batch only recomputes the runs that actually failed.
    """
    config = config or BENCH_CONFIG
    keys = [(scheme, workload.name, seed, epochs, morph, config)
            for scheme, workload in pairs]
    missing = [i for i, key in enumerate(keys) if key not in _RUN_CACHE]
    if missing and resolve_jobs(jobs) > 1:
        specs = [RunSpec(scheme=pairs[i][0], workload=pairs[i][1],
                         config=config, seed=seed, epochs=epochs, morph=morph)
                 for i in missing]
        policy = SweepPolicy(run_timeout=run_timeout, retries=retries)
        report = run_supervised(specs, jobs=jobs, policy=policy)
        for i, result in zip(missing, report.results):
            if result is not None:  # salvage completions before raising
                _RUN_CACHE[keys[i]] = result
        report.raise_first()
    return [run(scheme, workload, epochs=epochs, seed=seed, morph=morph,
                config=config)
            for scheme, workload in pairs]


def mix_workloads() -> List[Workload]:
    """All 12 Table 5 mixes as workloads."""
    return [Workload.from_mix(mix) for mix in MIXES]


def parsec_workloads() -> List[Workload]:
    """All 12 PARSEC benchmarks as 16-thread workloads."""
    return [Workload.from_parsec(name) for name in PARSEC_BENCHMARKS]


def normalized(results: Dict[str, RunResult], baseline: str = BASELINE) -> Dict[str, float]:
    """Mean throughput of each scheme normalised to the baseline scheme."""
    base = results[baseline].mean_throughput
    return {scheme: result.mean_throughput / base
            for scheme, result in results.items()}


def geometric_mean(values: List[float]) -> float:
    """Geometric mean computed in the log domain.

    The naive running product under/overflows for long value lists (and
    loses precision long before that); summing logs is exact to within one
    rounding per element.  The empty list keeps returning 0.0.
    """
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def report(name: str, text: str) -> None:
    """Write a result table to benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] -> {path}\n{text}")


def format_rows(header: List[str], rows: List[List[str]]) -> str:
    """Simple fixed-width table formatting."""
    table = [header] + rows
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[col])
                               for col, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * widths[col]
                                   for col in range(len(header))))
    return "\n".join(lines)
