"""Process-parallel sweep runner.

Every figure/table of the paper is a sweep over (scheme × workload) pairs,
and every run in a sweep is independent: the simulator is deterministic
given (scheme, workload, config, seed), so the runs can execute in any
order, on any worker, and still produce exactly the results a serial sweep
would.  :func:`run_many` exploits that with a
:class:`~concurrent.futures.ProcessPoolExecutor`:

- **Deterministic seeds** — each :class:`RunSpec` carries its own seed;
  :func:`derive_seed` provides a stable per-index derivation for callers
  that want ``n`` distinct seeded runs from one base seed.  Nothing about
  seeding depends on worker scheduling.
- **Ordered collection** — results return in input order (``executor.map``
  semantics), so ``run_many(specs)[i]`` always belongs to ``specs[i]``.
- **Failures surface** — a worker exception propagates to the caller when
  its result is collected; the pool is shut down rather than left hanging.
- ``jobs=1`` (or a single spec) runs serially in-process: bit-identical to
  the pool path and friendlier to debuggers and coverage tools.

The multi-process path delegates to :mod:`repro.sim.supervisor` in strict
mode, which preserves the raise-on-first-failure contract above while
adding crash containment (a dead worker surfaces as a typed
:class:`~repro.resilience.errors.WorkerCrashError` instead of a raw
``BrokenProcessPool`` traceback) and, when asked, timeouts, retries,
quarantine and a resumable run journal — see :func:`run_many`'s
supervision parameters and :func:`repro.sim.supervisor.run_supervised`.

The number of workers comes from the ``jobs`` argument, else the
``REPRO_JOBS`` environment variable, else 1 (serial).  Anything spawned in
a worker inherits only the spec — no shared mutable state — which is what
makes the results independent of parallelism.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import MachineConfig, MorphConfig
from repro.resilience.errors import ConfigError
from repro.resilience.faults import FaultPlan
from repro.sim.engine import DEFAULT_ENGINE, RunResult
from repro.sim.workload import Workload

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"


@dataclass(frozen=True)
class RunSpec:
    """One (scheme, workload) run of a sweep — everything a worker needs.

    The spec is picklable by construction (frozen dataclasses of plain
    values), which is the contract that lets it cross a process boundary.
    """

    scheme: str
    workload: Workload
    config: MachineConfig
    seed: int = 0
    epochs: Optional[int] = None
    accesses_per_core: Optional[int] = None
    warmup_epochs: int = 1
    morph: Optional[MorphConfig] = None
    engine: str = DEFAULT_ENGINE
    fault_plan: Optional[FaultPlan] = None
    trace_path: Optional[str] = None
    """JSONL trace output for this run (observability side channel; it does
    not affect results and is deliberately excluded from the journal's
    :func:`~repro.sim.supervisor.spec_key`, so tracing a sweep does not
    invalidate its resumable journal)."""


def derive_seed(base_seed: int, index: int) -> int:
    """A stable, collision-free per-run seed for run ``index`` of a sweep.

    Uses splitmix64 so neighbouring indices give uncorrelated seeds (plain
    ``base + index`` makes run *i* of seed *s* collide with run *i-1* of
    seed *s+1* across sweeps).
    """
    z = (base_seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count to use: argument, else ``REPRO_JOBS``, else 1.

    Raises:
        ConfigError: ``jobs < 1``, or ``REPRO_JOBS`` is malformed/out of
            range — named after the offending source so ``REPRO_JOBS=0
            repro compare`` exits with the config exit code and a message
            pointing at the variable.  (``ConfigError`` is a ``ValueError``
            subclass, so existing ``except ValueError`` guards still work.)
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "1") or "1"
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(JOBS_ENV, f"must be an integer, got {raw!r}") from None
        if jobs < 1:
            raise ConfigError(JOBS_ENV, f"must be >= 1, got {jobs}")
    elif jobs < 1:
        raise ConfigError("jobs", f"must be >= 1, got {jobs}")
    return jobs


def _run_spec(spec: RunSpec) -> RunResult:
    """Worker entry point: one deterministic simulation run."""
    from repro.sim.experiment import run_scheme  # local: keep import cheap

    return run_scheme(
        spec.scheme,
        spec.workload,
        spec.config,
        seed=spec.seed,
        epochs=spec.epochs,
        accesses_per_core=spec.accesses_per_core,
        warmup_epochs=spec.warmup_epochs,
        morph=spec.morph,
        engine=spec.engine,
        fault_plan=spec.fault_plan,
        trace_path=spec.trace_path,
    )


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    policy=None,
    journal=None,
    resume: bool = False,
) -> List[RunResult]:
    """Run a sweep, parallel across processes, results in input order.

    Args:
        specs: the runs to perform.
        jobs: worker processes; defaults to ``REPRO_JOBS`` (else serial).
            The pool never exceeds the number of specs.
        policy: optional :class:`~repro.sim.supervisor.SweepPolicy` adding
            per-run timeouts and retries (retried runs reuse their original
            seed, so results stay bit-identical to a serial sweep).
        journal: optional path of a crash-safe JSONL run journal; with
            ``resume=True`` completed runs are loaded from it and only the
            missing ones execute.

    Returns:
        One :class:`RunResult` per spec, in the order given — identical,
        run for run, to executing the specs serially.

    Raises:
        Whatever a worker raised (e.g. ``ValueError`` for an unknown
        scheme); the pool is torn down, no run is silently dropped.  A
        worker that *dies* raises
        :class:`~repro.resilience.errors.WorkerCrashError` instead of a raw
        ``BrokenProcessPool``.  For quarantine-and-continue semantics call
        :func:`repro.sim.supervisor.run_supervised` directly.
    """
    specs = list(specs)
    jobs = min(resolve_jobs(jobs), max(len(specs), 1))
    if jobs <= 1 and policy is None and journal is None:
        return [_run_spec(spec) for spec in specs]
    from repro.sim.supervisor import run_supervised  # local: avoid cycle

    report = run_supervised(specs, jobs=jobs, policy=policy, journal=journal,
                            resume=resume, strict=True)
    return report.results


# -- alone-run IPC priming --------------------------------------------------

def _alone_ipc_spec(name: str, config: MachineConfig, seed: int,
                    epochs: int) -> RunSpec:
    return RunSpec(
        scheme="(16:1:1)",
        workload=Workload.alone(name, cores=config.cores),
        config=config,
        seed=seed,
        epochs=epochs,
    )


def prime_alone_ipcs(
    benchmark_names: Sequence[str],
    config: MachineConfig,
    seed: int = 0,
    epochs: int = 2,
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Compute (and cache) the alone-run IPCs for many benchmarks at once.

    The weighted/fair speedup metrics normalise every mix against each
    benchmark's alone run; serially those runs dominate sweep start-up.
    This computes the *missing* ones in the worker pool and seeds
    :mod:`repro.sim.experiment`'s cache with the results, so subsequent
    :func:`~repro.sim.experiment.alone_ipc` calls are hits — the cache is
    populated from worker *results* in the parent, never mutated from
    inside a worker (worker processes see copies).

    Failures do not discard siblings: every alone run that *did* complete
    seeds the cache before the first failure is re-raised, so a retried
    priming pass recomputes only the benchmark(s) that actually failed.
    """
    from repro.sim import experiment
    from repro.sim.supervisor import run_supervised  # local: avoid cycle

    names: List[str] = []
    for name in benchmark_names:  # preserve order, drop duplicates
        if name not in names:
            names.append(name)
    missing = [n for n in names
               if not experiment.alone_ipc_cached(n, config, seed, epochs)]
    report = run_supervised(
        [_alone_ipc_spec(n, config, seed, epochs) for n in missing],
        jobs=jobs) if missing else None
    if report is not None:
        for name, result in zip(missing, report.results):
            if result is not None:
                experiment.seed_alone_cache(name, config, seed, epochs,
                                            result.mean_ipcs()[0])
        report.raise_first()  # after salvage, surface the first failure
    return {n: experiment.alone_ipc(n, config, seed=seed, epochs=epochs)
            for n in names}


__all__ = [
    "RunSpec",
    "run_many",
    "derive_seed",
    "resolve_jobs",
    "prime_alone_ipcs",
    "JOBS_ENV",
]
