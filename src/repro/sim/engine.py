"""The epoch-driven simulation loop.

Per epoch: each active core generates its trace, the traces interleave
round-robin into the shared hierarchy, per-core timing accumulates, and the
system's ``end_epoch`` hook fires (for MorphCache this is the
reconfiguration point).  Results are collected per epoch so the time-series
figures (Fig 2(a), Fig 15's per-epoch oracle) fall out directly.

Two resilience hooks thread through the loop (both default to off):

- a :class:`~repro.resilience.faults.FaultPlan` injects deterministic,
  seeded faults at each epoch boundary *before* any access;
- ``checkpoint_path`` writes a resumable checkpoint every
  ``checkpoint_every`` epochs; ``resume=True`` loads it, fast-forward
  replays the completed epochs (deterministic given the seed) and verifies
  the rebuilt RNG and cache state against the checkpoint before continuing,
  so a resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import MachineConfig
from repro.cpu.core_model import CoreTimingModel
from repro.obs import metrics as obs_metrics
from repro.obs.trace import SCHEMA_VERSION, hierarchy_delta, snapshot_hierarchy
from repro.resilience.checkpoint import (
    epoch_from_json,
    load_checkpoint,
    run_fingerprint,
    save_checkpoint,
    state_digest,
    verify_replay,
)
from repro.resilience.errors import CheckpointError
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.sim.results import (  # noqa: F401 -- re-exported
    DEFAULT_ENGINE,
    ENGINES,
    EpochResult,
    RunResult,
)
from repro.sim.workload import Workload


def run_epoch(system, traces: Dict[int, object], timers: Dict[int, CoreTimingModel],
              n_accesses: int) -> None:
    """Drive one epoch's traces through ``system``, round-robin interleaved.

    This is the event engine: every access goes through ``system.access``
    (for a CMP system, :meth:`~repro.caches.hierarchy.CacheHierarchy.access`),
    the reference the batch kernels are tested against.  All per-access
    conversion work is hoisted out of the inner loop: the numpy trace
    arrays are converted to plain Python lists once per epoch (``tolist``
    yields the same ``int``/``bool`` values the old per-access
    ``int()``/``bool()`` casts produced, so results are bit-identical) and
    the per-core bound methods and columns are resolved once.
    ``bench_batch.py`` times this exact function as the event side of its
    speedups.
    """
    columns = [
        (core, timers[core].account,
         trace.lines.tolist(), trace.writes.tolist(), trace.gaps.tolist())
        for core, trace in traces.items()
    ]
    access = system.access
    for i in range(n_accesses):
        for core, account, lines, writes, gaps in columns:
            account(gaps[i], access(core, lines[i], writes[i]))


def simulate(
    system,
    workload: Workload,
    config: MachineConfig,
    seed: int = 0,
    epochs: Optional[int] = None,
    accesses_per_core: Optional[int] = None,
    warmup_epochs: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_path=None,
    checkpoint_every: int = 5,
    resume: bool = False,
    engine: str = DEFAULT_ENGINE,
    tracer=None,
) -> RunResult:
    """Run ``workload`` on ``system`` for the configured number of epochs.

    ``system`` implements the CmpSystem protocol (``access``, ``end_epoch``,
    ``miss_counts``).  The first ``warmup_epochs`` epochs warm the caches
    (and let MorphCache take its first reconfiguration steps); they are
    simulated but not recorded, mirroring the paper's warmed-up region of
    interest.

    Args:
        fault_plan: deterministic fault schedule applied at each epoch
            boundary (warmup included) before any access.
        checkpoint_path: when set, write a resumable checkpoint here every
            ``checkpoint_every`` epochs and after the final epoch.
        checkpoint_every: checkpoint cadence in (global) epochs.
        resume: load ``checkpoint_path``, fast-forward replay the completed
            epochs and verify the rebuilt state against it before
            continuing.  Raises :class:`~repro.resilience.errors.
            CheckpointError` if the checkpoint is absent, corrupt, belongs
            to a different run, or the replay diverges.
        engine: ``"batch"`` (default, :data:`DEFAULT_ENGINE`) resolves each
            epoch with the set-partitioned array engine
            (:mod:`repro.sim.batch`), which falls back to the event engine
            for systems it cannot batch; ``"event"`` drives accesses one at
            a time through :func:`run_epoch` and is the reference the batch
            engine is tested bit-identical against.  Checkpoints are
            engine-agnostic.
        tracer: optional :class:`~repro.obs.trace.TraceRecorder`.  All trace
            emission happens at epoch boundaries in this shared loop (plus
            the controller's in-boundary reconfig hook), so both engines
            emit byte-identical traces for the same run.  During a resume's
            fast-forward replay the tracer is suspended, leaving exactly the
            post-resume records in a resumed trace.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}: choose one of {ENGINES}")
    if engine == "batch":
        from repro.sim.batch import run_epoch_batch as epoch_runner
    else:
        epoch_runner = run_epoch
    n_epochs = epochs if epochs is not None else config.epochs
    n_accesses = (accesses_per_core if accesses_per_core is not None
                  else config.accesses_per_core_per_epoch)
    threads = workload.build_threads(config, seed=seed)
    active = [core for core, thread in enumerate(threads) if thread is not None]
    result = RunResult(workload_name=workload.name,
                       scheme_name=getattr(system, "label", type(system).__name__))
    injector = FaultInjector(fault_plan) if fault_plan else None

    fingerprint = None
    if checkpoint_path is not None:
        fingerprint = run_fingerprint(workload, config, result.scheme_name,
                                      seed, n_epochs, n_accesses, warmup_epochs)
        if fault_plan:
            fingerprint["faults"] = repr(fault_plan)

    replay_until = 0  # epochs [0, replay_until) are re-run without recording
    payload = None
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requires a checkpoint path")
        payload = load_checkpoint(checkpoint_path, fingerprint)
        replay_until = int(payload["next_epoch"])
        result.epochs = [epoch_from_json(e) for e in payload["epochs"]]

    # Observability wiring.  Everything below is epoch-granular: the access
    # hot loop (run_epoch / the batch kernels) is never touched, which is
    # what keeps the tracing-off overhead at zero.
    controller = getattr(system, "controller", None)
    hierarchy = getattr(system, "hierarchy", None)
    hier_stats = getattr(hierarchy, "stats", None)
    guard_log = (getattr(getattr(controller, "guard", None), "events", None)
                 if controller is not None else None)
    reg = obs_metrics.REGISTRY
    if reg.enabled:
        reg.counter("repro_sim_runs_total", "Simulation runs started",
                    labels=("engine",)).labels(engine=engine).inc()
    if tracer is not None:
        tracer.emit("run-start", schema=SCHEMA_VERSION,
                    workload=workload.name, scheme=result.scheme_name,
                    seed=seed, epochs=n_epochs, accesses_per_core=n_accesses,
                    warmup_epochs=warmup_epochs, cores=active,
                    faults=repr(fault_plan) if fault_plan else None)
        tracer.suspended = replay_until > 0
        if controller is not None:
            controller.tracer = tracer

    previous_misses = system.miss_counts()
    total = warmup_epochs + n_epochs
    try:
        for epoch in range(total):
            if injector is not None:
                faults_before = len(injector.log)
                injector.begin_epoch(epoch, system)
                if tracer is not None:
                    for fault in injector.log[faults_before:]:
                        tracer.emit("fault", epoch=epoch, fault=fault.kind,
                                    level=fault.level, target=fault.target,
                                    duration=fault.duration, bits=fault.bits,
                                    penalty=fault.penalty)
            timers = {
                core: CoreTimingModel(config.issue_width,
                                      memory_latency=config.latency.memory)
                for core in active
            }
            traces = {core: threads[core].generate(n_accesses)
                      for core in active}
            guard_before = len(guard_log) if guard_log is not None else 0
            stats_before = (snapshot_hierarchy(hier_stats)
                            if tracer is not None and not tracer.suspended
                            and hier_stats is not None else None)
            epoch_runner(system, traces, timers, n_accesses)

            label = system.end_epoch()
            current_misses = system.miss_counts()
            if tracer is not None:
                if guard_log is not None:
                    for guard_event in guard_log[guard_before:]:
                        tracer.emit("guard", epoch=epoch,
                                    action=guard_event.action,
                                    violation=str(guard_event.violation),
                                    mode_after=guard_event.mode_after)
                record = {
                    "epoch": epoch,
                    "measured": (epoch - warmup_epochs
                                 if epoch >= warmup_epochs else None),
                    "label": label,
                    "ipcs": {str(core): timers[core].ipc for core in active},
                    "misses": {str(core): current_misses.get(core, 0)
                               - previous_misses.get(core, 0)
                               for core in active},
                }
                if stats_before is not None:
                    record["stats"] = hierarchy_delta(
                        stats_before, snapshot_hierarchy(hier_stats))
                    record["bus_penalty"] = hierarchy.bus_penalty
                    record["topology"] = {
                        lvl: [list(g) for g in groups]
                        for lvl, groups in hierarchy.topology().items()}
                if tracer.epoch_digests:
                    record["digest"] = state_digest(system)
                tracer.emit("epoch", **record)
            if reg.enabled:
                reg.counter("repro_sim_epochs_total",
                            "Epochs simulated (warmup included)").inc()
                reg.counter("repro_sim_accesses_total",
                            "Memory accesses driven through the engines"
                            ).inc(n_accesses * len(active))
            if epoch >= replay_until and epoch >= warmup_epochs:
                result.epochs.append(EpochResult(
                    epoch=epoch - warmup_epochs,
                    ipcs={core: timers[core].ipc for core in active},
                    misses={
                        core: current_misses.get(core, 0)
                        - previous_misses.get(core, 0)
                        for core in active
                    },
                    topology_label=label,
                ))
            previous_misses = current_misses

            if payload is not None and epoch + 1 == replay_until:
                # Replay complete: prove the rebuilt state matches the
                # checkpoint before recording a single new epoch.
                verify_replay(payload, threads, system, checkpoint_path)
                payload = None
                if tracer is not None:
                    tracer.suspended = False
            if (checkpoint_path is not None and epoch + 1 > replay_until
                    and ((epoch + 1) % checkpoint_every == 0
                         or epoch + 1 == total)):
                save_checkpoint(checkpoint_path, fingerprint, epoch + 1,
                                result.epochs, threads, system)
    finally:
        if tracer is not None and controller is not None:
            controller.tracer = None
    if tracer is not None:
        tracer.suspended = False
        footer = {
            "epochs": len(result.epochs),
            "mean_throughput": result.mean_throughput,
            "digest": state_digest(system),
        }
        if controller is not None:
            footer["reconfigurations"] = controller.reconfigurations
        tracer.emit("run-end", **footer)
        tracer.flush()
    return result
