"""The simulation workloads: mix-morph, parsec-morph and static-sweep.

A run derives a few sub-seeds from ``--seed`` so that its figures average
over inputs instead of following one seed's luck.  On mix-morph and
parsec-morph the timed operation is one pass: one batch-engine simulation
per sub-seed.  On static-sweep it is one supervised sweep of the five
static topologies times the sub-seeds.  Every run's per-epoch IPCs, misses
and topology labels and its final ``state_digest`` are compared with an
event-engine run of the same scheme and seed, made after the timed region.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import proc, tracing
from perfbench.stats import Tally, median, percentile, samples_beyond

PRESET = "small"

#: The five static topologies of Figs 2/13/16.
STATIC_TOPOLOGIES = ("(16:1:1)", "(1:1:16)", "(4:4:1)", "(8:2:1)",
                     "(1:16:1)")

#: Dispatch tiers that run a specialised kernel (the fast tiers).
FAST_TIERS = ("batch-private-percore", "batch-private", "batch-merged",
              "batch-shared")
ALL_TIERS = FAST_TIERS + ("batch-general", "event")

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Longest an event-engine reference run may take.
REFERENCE_TIMEOUT_S = 120.0

#: Fewest untraced passes a run times, however short ``--seconds`` is.
MIN_PASSES = 3


@dataclass(frozen=True)
class SimCase:
    workload: str
    schemes: Tuple[str, ...]
    epochs: int
    seeds: int
    """Sub-seeds simulated per timed operation."""

    sweep: bool = False


CASES = {
    "mix-morph": SimCase("MIX 01", ("morphcache",), epochs=1, seeds=8),
    "parsec-morph": SimCase("canneal", ("morphcache",), epochs=2, seeds=4),
    "static-sweep": SimCase("MIX 01", STATIC_TOPOLOGIES, epochs=1, seeds=1,
                            sweep=True),
}


def derive_seeds(seed: int, count: int) -> List[int]:
    """``count`` input seeds for benchmark seed ``seed``; distinct seeds
    give disjoint sets."""
    return [seed * count + i for i in range(count)]


@dataclass
class Outcome:
    """What one benchmark run measured."""

    tally: Tally
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    table: str = ""
    tracer: Optional[tracing.Tracer] = None


def summarize(result, digest: str) -> Tuple:
    """The outputs the check compares, bit for bit."""
    return (tuple((e.epoch, tuple(sorted(e.ipcs.items())),
                   tuple(sorted(e.misses.items())), e.topology_label)
                  for e in result.epochs), digest)


def accesses_per_run(config, workload, epochs: int,
                     warmup_epochs: int = 1) -> int:
    """Simulated memory accesses of one run, warm-up included."""
    return ((epochs + warmup_epochs) * config.accesses_per_core_per_epoch
            * len(workload.active_cores))


def simulate_once(scheme: str, workload_name: str, epochs: int, seed: int,
                  engine: str, tracer: Optional[tracing.Tracer] = None):
    """Build and run one system; returns (result, digest, seconds).

    ``build_system`` is set-up and stays outside the returned time; the
    digest is taken after it.
    """
    from repro.config import preset
    from repro.resilience.checkpoint import state_digest
    from repro.sim.engine import simulate
    from repro.sim.experiment import build_system
    from repro.sim.workload import Workload

    config = preset(PRESET)
    workload = Workload.from_name(workload_name)
    system = build_system(scheme, config, workload, seed=seed)
    span = (tracer.span("run", run=f"{scheme}@{seed}") if tracer is not None
            else contextlib.nullcontext())
    with span:
        start = perf_counter()
        result = simulate(system, workload, config, seed=seed, epochs=epochs,
                          engine=engine)
        seconds = perf_counter() - start
    return result, state_digest(system), seconds


@dataclass
class SweepRun:
    """One sweep run as returned from a supervisor worker process."""

    summary: Tuple
    pid: int
    peak_kb: int
    trace: Optional[Dict[str, Any]] = None


def sweep_worker(traced: bool, spec) -> SweepRun:
    """The per-spec worker handed to ``run_supervised``."""
    tracer = tracing.Tracer() if traced else None
    with (tracing.instrument(tracer) if traced
          else contextlib.nullcontext()):
        result, digest, _ = simulate_once(spec.scheme, spec.workload.name,
                                          spec.epochs, spec.seed,
                                          spec.engine, tracer)
    return SweepRun(summary=summarize(result, digest), pid=os.getpid(),
                    peak_kb=proc.status_kb(os.getpid()),
                    trace=tracer.export() if traced else None)


def reference_run(workload_name: str, epochs: int, scheme: str,
                  seed: int) -> Tuple:
    """The event-engine run the batch results must match."""
    result, digest, _ = simulate_once(scheme, workload_name, epochs, seed,
                                      "event")
    return summarize(result, digest)


def child_env(root) -> Dict[str, str]:
    """Environment for a child interpreter that imports the simulator and
    the benchmark."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))


def references(root, case: SimCase,
               pairs: List[Tuple[str, int]]) -> Dict[Tuple[str, int], Tuple]:
    """Event-engine reference per (scheme, seed), ``nproc`` at a time.

    Each runs in a child interpreter (``perfbench.reference``) that this
    process waits for; on any way out, children still running are killed
    and waited for.
    """
    workers = min(os.cpu_count() or 1, len(pairs))
    queue = list(pairs)
    running: List[Tuple[Tuple[str, int], subprocess.Popen]] = []
    out: Dict[Tuple[str, int], Tuple] = {}
    try:
        while queue or running:
            while queue and len(running) < workers:
                scheme, seed = pair = queue.pop(0)
                running.append((pair, subprocess.Popen(
                    [sys.executable, "-m", "perfbench.reference",
                     case.workload, str(case.epochs), scheme, str(seed)],
                    cwd=str(root), env=child_env(root),
                    stdout=subprocess.PIPE)))
            pair, child = running[0]
            data, _ = child.communicate(timeout=REFERENCE_TIMEOUT_S)
            running.pop(0)
            if child.returncode != 0:
                raise RuntimeError(f"reference run {pair} failed "
                                   f"(exit {child.returncode})")
            out[pair] = pickle.loads(data)
    finally:
        for _, child in running:
            child.kill()
            child.wait()
    return out


def setup_seconds(root, name: str, seed: int) -> List[float]:
    """Process start to ready-to-run, for fresh interpreters."""
    env = child_env(root)
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.setup_probe", name, str(seed)],
            cwd=str(root), env=env, stdout=subprocess.PIPE, text=True)
        with child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            rest = child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): "
                               f"{line}{rest}")
        times.append(elapsed)
    return times


def run(root, name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    case = CASES[name]
    setups = setup_seconds(root, name, seed)

    from repro.config import preset
    from repro.sim.workload import Workload

    seeds = derive_seeds(seed, case.seeds)
    pairs = [(scheme, s) for s in seeds for scheme in case.schemes]
    config = preset(PRESET)
    per_run = accesses_per_run(config, Workload.from_name(case.workload),
                               case.epochs)
    tracer = tracing.Tracer() if trace else None
    measure = _measure_sweep if case.sweep else _measure_single
    timed = measure(case, seeds, seconds, tracer)

    refs = references(root, case, pairs)
    tally = Tally()
    for pair, summary in timed["outputs"]:
        tally.record(summary == refs[pair],
                     f"{pair[0]} seed {pair[1]}: batch output differs from "
                     "the event engine")
    for reason in timed["failures"]:
        tally.record(False, reason)

    jobs = timed["jobs"]
    label = "sweep" if case.sweep else "run"
    accesses = per_run * len(pairs)
    notes = [f"workload {name}: {case.workload}, {PRESET} preset, "
             f"{case.epochs}+1 epochs, batch engine, schemes "
             f"{' '.join(case.schemes)}, seeds {seeds}",
             f"setup_s: median of {len(setups)} fresh set-ups",
             f"sim_accesses_per_s: {accesses} accesses per pass over "
             f"{len(pairs)} (scheme, seed) pairs; {timed['basis']}",
             f"job_latency: {len(jobs)} {label}s, "
             f"{samples_beyond(len(jobs), 0.75)} beyond p75"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "sim_accesses_per_s": (accesses / timed["op_seconds"], "1/s"),
        "peak_rss_mb": (timed["peak_kb"] / 1024.0, "MB"),
        "jobs_per_s": (len(jobs) / sum(jobs), "1/s"),
        "job_latency_p50_s": (percentile(jobs, 0.50), "s"),
        "job_latency_p75_s": (percentile(jobs, 0.75), "s"),
    }
    outcome = Outcome(tally=tally, metrics=metrics, notes=notes)
    if tracer is not None:
        untraced, traced = timed["untraced"], timed["traced"]
        outcome.notes.append(
            f"tracing overhead: sim_accesses_per_s "
            f"{accesses / median(traced):.6g} traced vs "
            f"{accesses / median(untraced):.6g} untraced "
            f"({100.0 * (median(traced) / median(untraced) - 1.0):+.1f}% "
            f"host time; {len(traced)} traced, {len(untraced)} untraced "
            "passes, alternating)")
        ops = len(traced) * (1 if case.sweep else len(pairs))
        outcome.metrics = layer_metrics(tracer, ops, timed["sweeps"])
        outcome.table = tracing.render_table(tracer, ops, label)
        outcome.tracer = tracer
    return outcome


def _repeat(step: Callable[[bool], float], seconds: float,
            tracer: Optional[tracing.Tracer]) -> Tuple[List[float],
                                                       List[float]]:
    """Repeat ``step`` (one pass) for ``seconds`` and ``MIN_PASSES``.

    A traced run alternates untraced and traced passes so both halves see
    the same machine.  Returns the untraced and the traced pass times.
    """
    untraced: List[float] = []
    traced: List[float] = []
    started = perf_counter()
    index = 0
    while True:
        use_trace = tracer is not None and index % 2 == 1
        (traced if use_trace else untraced).append(step(use_trace))
        index += 1
        if (perf_counter() - started >= seconds
                and len(untraced) >= MIN_PASSES
                and (tracer is None or traced)):
            return untraced, traced


def _measure_single(case: SimCase, seeds: List[int], seconds: float,
                    tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """Repeat a pass over the sub-seeds for ``seconds``.

    The first run is an untimed warm-up (lazy imports, allocator); its
    output is still checked.  A pass's time is estimated as the sum over
    sub-seeds of each one's median run time.
    """
    scheme = case.schemes[0]
    out: Dict[str, Any] = {"outputs": [], "failures": [], "sweeps": []}
    times: Dict[int, List[float]] = {s: [] for s in seeds}

    def run_one(s: int, traced: bool) -> float:
        result, digest, elapsed = simulate_once(
            scheme, case.workload, case.epochs, s, "batch",
            tracer if traced else None)
        out["outputs"].append(((scheme, s), summarize(result, digest)))
        return elapsed

    def step(traced: bool) -> float:
        total = 0.0
        for s in seeds:
            elapsed = run_one(s, traced)
            if not traced:
                times[s].append(elapsed)
            total += elapsed
        return total

    with (tracing.instrument(tracer) if tracer is not None
          else contextlib.nullcontext()):
        run_one(seeds[0], False)
        out["untraced"], out["traced"] = _repeat(step, seconds, tracer)
    out["peak_kb"] = proc.status_kb(os.getpid())
    out["op_seconds"] = sum(median(t) for t in times.values())
    out["jobs"] = [t for per_seed in times.values() for t in per_seed]
    out["basis"] = (f"sum over seeds of each seed's median of "
                    f"{len(out['untraced'])} untraced runs")
    return out


def _measure_sweep(case: SimCase, seeds: List[int], seconds: float,
                   tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """Repeat the supervised sweep for ``seconds`` at ``jobs=nproc``.

    A one-run sweep first warms up untimed; its output is still checked.
    """
    from repro.config import preset
    from repro.sim.parallel import RunSpec
    from repro.sim.supervisor import run_supervised
    from repro.sim.workload import Workload

    config = preset(PRESET)
    workload = Workload.from_name(case.workload)
    specs = [RunSpec(scheme=scheme, workload=workload, config=config,
                     seed=s, epochs=case.epochs, engine="batch")
             for s in seeds for scheme in case.schemes]
    jobs = os.cpu_count() or 1
    out: Dict[str, Any] = {"outputs": [], "failures": [], "sweeps": [],
                           "peak_kb": 0}

    def sweep(batch, traced: bool) -> float:
        span = (tracer.span("sweep", run=f"sweep{len(out['sweeps'])}")
                if traced else contextlib.nullcontext())
        with span as sweep_span:
            start = perf_counter()
            report = run_supervised(batch, jobs=jobs,
                                    worker=partial(sweep_worker, traced))
            elapsed = perf_counter() - start
        workers: Dict[int, int] = {}
        for spec, outcome, run in zip(batch, report.outcomes,
                                      report.results):
            if run is None:
                out["failures"].append(
                    f"{spec.scheme} seed {spec.seed}: {outcome.status} "
                    f"({outcome.error})")
                continue
            out["outputs"].append(((spec.scheme, spec.seed), run.summary))
            workers[run.pid] = max(workers.get(run.pid, 0), run.peak_kb)
            if traced:
                tracer.merge(run.trace, parent=sweep_span["id"])
        out["peak_kb"] = max(out["peak_kb"], sum(workers.values()))
        if traced:
            run_seconds = [o.elapsed for o in report.outcomes
                           if o.status == "ok"]
            latency = report.latency()
            out["sweeps"].append((latency["p50"], latency["max"],
                                  sum(run_seconds) / (elapsed * jobs)))
        return elapsed

    sweep(specs[:1], False)
    out["untraced"], out["traced"] = _repeat(partial(sweep, specs), seconds,
                                             tracer)
    out["peak_kb"] += proc.status_kb(os.getpid())
    out["op_seconds"] = median(out["untraced"])
    out["jobs"] = out["untraced"]
    out["basis"] = f"median of {len(out['untraced'])} untraced sweeps"
    return out


def layer_metrics(tracer: tracing.Tracer, ops: int,
                  sweeps: List[Tuple[float, float, float]]
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced operations, per operation."""
    def per_op(value: float) -> float:
        return value / ops

    counts = tracer.counts
    tiers = {tier: counts.get("batch.epochs." + tier, 0)
             for tier in ALL_TIERS}
    epochs = sum(tiers.values())
    fast = sum(tiers[tier] for tier in FAST_TIERS)
    metrics: Dict[str, Tuple[float, str]] = {
        "workloads.generate_s": (
            per_op(tracing.total_time(tracer, "workloads.generate")), "s"),
        "batch.epoch_s": (
            per_op(tracing.total_time(tracer, "batch.epoch")), "s"),
        "batch.fast_tier_ratio": (fast / epochs if epochs else 0.0,
                                  "ratio"),
        "acfv.on_hit_calls": (per_op(counts.get("acfv.on_hit", 0)),
                              "count"),
        "acfv.on_fill_calls": (per_op(counts.get("acfv.on_fill", 0)),
                               "count"),
        "acfv.observer_s": (per_op(sum(tracer.leaf_time.values())), "s"),
        "timing.account_s": (
            per_op(tracing.total_time(tracer, "timing.account")), "s"),
        "controller.end_epoch_s": (
            per_op(tracing.total_time(tracer, "controller.end_epoch")), "s"),
        "controller.reconfigurations": (
            per_op(counts.get("controller.reconfigurations", 0)), "count"),
        "hierarchy.set_topology_s": (
            per_op(tracing.total_time(tracer, "hierarchy.set_topology")),
            "s"),
    }
    for tier, n in tiers.items():
        metrics["batch.epochs." + tier] = (per_op(n), "count")
    for key, column in (("sweep.run_p50_s", 0), ("sweep.run_max_s", 1),
                        ("sweep.worker_busy_ratio", 2)):
        values = [sweep[column] for sweep in sweeps]
        metrics[key] = (median(values) if values else 0.0,
                        "ratio" if column == 2 else "s")
    return metrics
