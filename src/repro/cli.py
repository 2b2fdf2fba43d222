"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``table3 [--preset P]`` — print the machine description.
- ``table2`` — print the arbiter synthesis table.
- ``list`` — available mixes, PARSEC benchmarks and schemes.
- ``run --workload W [--scheme S] [--preset P] [--epochs N] [--seed K]
  [--engine {event,batch}] [--faults SPEC] [--trace PATH] [--metrics PATH]
  [--checkpoint PATH [--checkpoint-every N] [--resume]]`` —
  simulate one scheme on one workload (``MIX 01``.. / a PARSEC name / an
  ``alone:<spec>`` benchmark) and print per-epoch results.  ``--engine``
  picks the epoch engine: the set-partitioned ``batch`` engine (default)
  or the per-access ``event`` reference it is bit-identical to.  ``--trace``
  records a structured JSONL trace of the run (render it with ``repro
  trace``); ``--metrics`` enables the metrics registry for the run and
  writes the Prometheus text exposition (or a JSON dump when the path ends
  in ``.json``).
- ``trace PATH`` — render the reconfiguration timeline of a recorded
  trace: which cores merged/split at which epoch, why (the triggering
  ACFV/decision inputs), plus faults, guard interventions and the
  throughput trend.
- ``compare --workload W [--preset P] [--jobs N] [--engine {event,batch}]
  [--trace DIR]
  [--run-timeout S] [--retries N] [--sweep-journal PATH [--resume-sweep]]``
  — run the Figure 13
  scheme set on one workload (optionally across N worker processes; the
  results are identical at any job count, and on either engine — batch by
  default) and print normalised throughput.
  The supervision flags run the sweep under
  :func:`repro.sim.supervisor.run_supervised`: hung runs are killed after
  ``--run-timeout`` seconds, failures retry up to ``--retries`` times
  (bit-identical — retries reuse the run's seed), a spec that keeps
  failing is quarantined while the rest of the sweep completes, and
  ``--sweep-journal`` records every finished run so a killed sweep resumes
  with ``--resume-sweep``, rerunning only the missing runs.
- ``journal PATH [--json]`` — validate and summarize a sweep journal:
  completed/quarantined/retried runs, resume count, wall-clock latency,
  whether the tail is torn (a mid-write kill), and whether the sweep is
  resumable.  Exits 6 (``CheckpointError``) when the journal is unreadable.
- ``serve --state-dir DIR [--host H] [--port P] [--max-jobs N]
  [--max-queued N] [--job-timeout S] [--quota TENANT=W[:QUEUED[:RUNNING]]]
  [--workers N]``
  — run the crash-tolerant multi-tenant simulation service (see DESIGN.md
  §10): jobs over HTTP, per-tenant quotas with weighted-fair scheduling,
  bounded queues with 429 load shedding, SSE progress streams, and
  restart-time recovery from DIR.  SIGTERM drains gracefully: exits 0 when
  nothing was interrupted, 8 when resumable jobs remain in DIR.  With
  ``--workers N`` the state dir becomes a shared worker pool (DESIGN.md
  §11): N ``repro worker`` processes pull jobs via fenced leases, a
  SIGKILLed worker's jobs are adopted bit-identically by its peers, and
  external workers pointed at the same DIR join the pool.
- ``worker --pool DIR [--worker-id ID] [--drain] [--max-jobs N]`` — run
  one pool worker against DIR: claim a job's lease, heartbeat it, execute
  the sweep with the lease token fenced into every journal/status write,
  repeat.  ``--drain`` exits once every job in the pool is terminal.
  Exits 8 on SIGTERM mid-sweep (journal flushed, lease released) and 10
  (``LeaseLostError``) if a peer reclaimed its lease — the fencing that
  makes zombie writes safe.
- ``pool status DIR [--json]`` — inspect a pool: per-job state with lease
  owner/fence/ages/reclaims, worker heartbeats, aggregate counts.

Errors from the simulator exit with a distinct code per class so sweep
scripts can tell failures apart: ``ConfigError`` 3,
``TopologyInvariantError`` 4, ``FaultInjectedError`` 5, ``CheckpointError``
6, ``WorkerCrashError`` 7, ``SweepInterrupted`` 8 (SIGINT/SIGTERM after
draining in-flight runs and flushing the journal), ``ServiceError`` 9,
``PoolError`` 10 (a worker's lease was reclaimed, or the pool dir is
unusable), any other ``ReproError`` 2.  The consolidated table lives in
README ("Exit codes").  A supervised ``compare`` that finishes with
quarantined runs prints what it salvaged and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional

from repro.baselines.static_topologies import STATIC_LABELS
from repro.config import format_table3, preset
from repro.interconnect.timing import ArbiterTimingModel
from repro.obs import REGISTRY
from repro.render import render_series
from repro.resilience import ConfigError, ReproError, parse_fault_spec
from repro.sim.engine import DEFAULT_ENGINE, ENGINES
from repro.sim.experiment import run_scheme
from repro.sim.parallel import RunSpec, resolve_jobs, run_many
from repro.sim.supervisor import SweepPolicy, run_supervised
from repro.sim.workload import Workload
from repro.workloads import MIXES, PARSEC_BENCHMARKS, SPEC_BENCHMARKS


def _workload_from_name(name: str) -> Workload:
    # One resolver for the CLI and the service: a bad name is a ConfigError
    # (exit 3 here, HTTP 400 at the service's admission boundary).
    return Workload.from_name(name)


def cmd_table3(args: argparse.Namespace) -> int:
    print(format_table3(preset(args.preset)))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    print(ArbiterTimingModel().format_table2())
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("mixes:")
    for mix in MIXES:
        print(f"  {mix.name}  type {mix.type_counts}")
    print(f"\nPARSEC: {', '.join(sorted(PARSEC_BENCHMARKS))}")
    print(f"\nSPEC (for alone:<name>): {', '.join(sorted(SPEC_BENCHMARKS))}")
    print(f"\nschemes: morphcache, pipp, dsr, {', '.join(STATIC_LABELS)}")
    return 0


def _write_metrics(path: str) -> None:
    """Dump the registry: Prometheus text, or JSON for ``*.json`` paths."""
    if path.endswith(".json"):
        payload = json.dumps(REGISTRY.dump_json(), indent=2, sort_keys=True)
    else:
        payload = REGISTRY.expose_text()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def trace_filename(scheme: str) -> str:
    """A filesystem-safe trace filename for one scheme of a sweep."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", scheme).strip("-") + ".jsonl"


def cmd_run(args: argparse.Namespace) -> int:
    machine = preset(args.preset)
    if args.epochs is not None:
        machine = machine.with_(epochs=args.epochs)
    workload = _workload_from_name(args.workload)
    fault_plan = parse_fault_spec(args.faults) if args.faults else None
    if args.metrics:
        REGISTRY.reset()
        REGISTRY.enable()
    try:
        result = run_scheme(args.scheme, workload, machine, seed=args.seed,
                            epochs=args.epochs,
                            fault_plan=fault_plan,
                            checkpoint_path=args.checkpoint,
                            checkpoint_every=args.checkpoint_every,
                            resume=args.resume,
                            engine=args.engine,
                            trace_path=args.trace)
    finally:
        if args.metrics:
            REGISTRY.disable()
    print(f"{args.scheme} on {workload.name} "
          f"({args.preset} preset, seed {args.seed})")
    if fault_plan:
        print(f"fault plan: {fault_plan.name} (seed {fault_plan.seed})")
    for epoch in result.epochs:
        print(f"  epoch {epoch.epoch}: throughput {epoch.throughput:.3f}  "
              f"topology {epoch.topology_label}")
    print(render_series(result.throughput_series(), label="  trend "))
    print(f"mean throughput: {result.mean_throughput:.3f}")
    if args.trace:
        print(f"trace written: {args.trace} (render with 'repro trace')")
    if args.metrics:
        _write_metrics(args.metrics)
        print(f"metrics written: {args.metrics}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.timeline import render_timeline
    from repro.obs.trace import load_trace

    try:
        records = load_trace(args.path)
    except (OSError, ValueError) as exc:
        raise ConfigError("trace", f"cannot read {args.path}: {exc}")
    print(render_timeline(records))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    machine = preset(args.preset)
    workload = _workload_from_name(args.workload)
    fault_plan = parse_fault_spec(args.faults) if args.faults else None
    schemes = STATIC_LABELS + ["morphcache"]
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
    specs = [RunSpec(scheme=scheme, workload=workload, config=machine,
                     seed=args.seed, epochs=args.epochs, engine=args.engine,
                     fault_plan=fault_plan,
                     trace_path=(os.path.join(args.trace,
                                              trace_filename(scheme))
                                 if args.trace else None))
             for scheme in schemes]
    jobs = resolve_jobs(args.jobs)
    if args.resume_sweep and not args.sweep_journal:
        raise ConfigError("--resume-sweep", "requires --sweep-journal PATH")
    supervised = (args.run_timeout is not None or args.retries > 0
                  or args.sweep_journal is not None)
    report = None
    if supervised:
        policy = SweepPolicy(run_timeout=args.run_timeout,
                             retries=args.retries)
        report = run_supervised(specs, jobs=args.jobs, policy=policy,
                                journal=args.sweep_journal,
                                resume=args.resume_sweep)
        results = {scheme: result
                   for scheme, result in zip(schemes, report.results)
                   if result is not None}
    else:
        results = dict(zip(schemes, run_many(specs, jobs=args.jobs)))
    baseline = results.get("(16:1:1)")
    base = baseline.mean_throughput if baseline is not None else None
    suffix = f", {jobs} jobs" if jobs > 1 else ""
    print(f"{workload.name} ({args.preset} preset{suffix})")
    for scheme, result in sorted(results.items(),
                                 key=lambda kv: -kv[1].mean_throughput):
        relative = (f"{result.mean_throughput / base:6.3f}x"
                    if base else "   n/a")
        print(f"  {scheme:12} {result.mean_throughput:8.3f}  {relative}")
    if args.trace:
        print(f"traces written: {args.trace}/ (render with 'repro trace')")
    if report is not None:
        for index in report.quarantined:
            outcome = report.outcomes[index]
            print(f"  {schemes[index]:12} quarantined after "
                  f"{outcome.attempts} attempt(s): {outcome.error}",
                  file=sys.stderr)
        print(f"sweep: {report.summary()}")
        return 0 if report.ok else 1
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    from repro.sim.supervisor import inspect_journal

    summary = inspect_journal(args.path)
    if args.json:
        print(json.dumps(summary.to_json(), indent=2, sort_keys=True))
    else:
        print(summary.render())
    return 0


def _parse_quota(text: str):
    """``TENANT=WEIGHT[:QUEUED[:RUNNING]]`` -> (tenant, TenantQuota)."""
    from repro.serve.queue import TenantQuota

    tenant, sep, rest = text.partition("=")
    if not sep or not tenant:
        raise ConfigError(
            "--quota", f"expected TENANT=WEIGHT[:QUEUED[:RUNNING]], got {text!r}")
    parts = rest.split(":")
    if len(parts) > 3 or not parts[0]:
        raise ConfigError(
            "--quota", f"expected TENANT=WEIGHT[:QUEUED[:RUNNING]], got {text!r}")
    try:
        weight = float(parts[0])
        max_queued = int(parts[1]) if len(parts) > 1 else 8
        max_running = int(parts[2]) if len(parts) > 2 else 1
    except ValueError:
        raise ConfigError(
            "--quota", f"non-numeric quota in {text!r}") from None
    return tenant, TenantQuota(weight=weight, max_queued=max_queued,
                               max_running=max_running)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServiceConfig, TenantQuota, run_service

    quotas = dict(_parse_quota(q) for q in args.quota or ())
    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        max_concurrent_jobs=args.max_jobs,
        max_queued=args.max_queued,
        default_quota=TenantQuota(max_queued=args.max_queued_per_tenant,
                                  max_running=args.max_running_per_tenant),
        quotas=quotas,
        job_timeout=args.job_timeout,
        drain_grace=args.drain_grace,
        workers=args.workers,
        worker_heartbeat=args.worker_heartbeat,
        worker_misses=args.worker_misses,
    )
    mode = (f"{args.workers} pool worker(s)" if args.workers
            else f"{args.max_jobs} concurrent job(s)")
    print(f"repro serve: state dir {args.state_dir}, {mode}; "
          f"the bound address lands in "
          f"{os.path.join(args.state_dir, 'serve.json')}", file=sys.stderr)
    return run_service(config)


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.serve.pool import SharedPool, run_worker

    worker_id = args.worker_id or f"worker-{os.getpid()}"
    if args.init:
        SharedPool.ensure(args.pool, heartbeat=args.heartbeat,
                          misses=args.misses)
    done = run_worker(args.pool, worker_id, drain=args.drain,
                      max_jobs=args.max_jobs)
    print(f"worker {worker_id}: {done} job(s) completed", file=sys.stderr)
    return 0


def cmd_pool(args: argparse.Namespace) -> int:
    from repro.serve.pool import pool_status

    status = pool_status(args.pool_dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    config = status["config"]
    print(f"pool {status['pool']}: heartbeat {config['heartbeat']:g}s, "
          f"ttl {config['ttl']:g}s, "
          f"{status['reclaims']} reclaim(s) recorded")
    counts = ", ".join(f"{state}: {count}"
                       for state, count in sorted(status["counts"].items()))
    print(f"jobs: {counts or 'none'}")
    for job in status["jobs"]:
        lease = job.get("lease")
        if lease is None:
            detail = "unclaimed"
        elif lease["released"]:
            detail = (f"lease released by {lease['owner']} "
                      f"(fence {lease['fence']})")
        else:
            detail = (f"lease {lease['owner']} fence {lease['fence']} "
                      f"hb {lease['heartbeat_age']:.1f}s ago, "
                      f"{lease['reclaims']} reclaim(s)")
        print(f"  {job['id']:24} {job['state']:12} {detail}")
    for worker in status["workers"]:
        running = worker.get("running") or "idle"
        print(f"  worker {worker.get('worker', '?'):16} "
              f"pid {worker.get('pid')} {running}, "
              f"{worker.get('jobs_done', 0)} done, "
              f"seen {worker.get('age', 0.0):.1f}s ago")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MorphCache (HPCA 2011) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table3", help="print the machine description") \
        .add_argument("--preset", default="small")
    sub.add_parser("table2", help="print the arbiter synthesis table")
    sub.add_parser("list", help="list workloads and schemes")

    run_parser = sub.add_parser("run", help="simulate one scheme")
    run_parser.add_argument("--workload", required=True)
    run_parser.add_argument("--scheme", default="morphcache")
    run_parser.add_argument("--preset", default="small")
    run_parser.add_argument("--epochs", type=int, default=4)
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec, e.g. "
             "'disable-slice:every=10:level=l3,flip-acfv:at=5:bits=8,seed=7'")
    run_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint to PATH during the run")
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="N",
        help="checkpoint cadence in epochs (default 5)")
    run_parser.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint PATH (verified bit-identical replay)")
    run_parser.add_argument(
        "--engine", choices=ENGINES, default=DEFAULT_ENGINE,
        help="epoch engine: the set-partitioned batch engine (default) or "
             "the per-access event loop it is bit-identical to (the "
             "reference)")
    run_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured JSONL trace of the run to PATH (render "
             "the reconfiguration timeline with 'repro trace PATH')")
    run_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="enable the metrics registry for the run and write the "
             "Prometheus text exposition to PATH (JSON dump if PATH ends "
             "in .json)")

    trace_parser = sub.add_parser(
        "trace", help="render the timeline of a recorded trace")
    trace_parser.add_argument("path", help="JSONL trace from 'run --trace'")

    compare_parser = sub.add_parser("compare",
                                    help="compare the Figure 13 scheme set")
    compare_parser.add_argument("--workload", required=True)
    compare_parser.add_argument("--preset", default="small")
    compare_parser.add_argument("--epochs", type=int, default=3)
    compare_parser.add_argument("--seed", type=int, default=1)
    compare_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the scheme sweep (default: $REPRO_JOBS "
             "or 1); results are identical at any job count")
    compare_parser.add_argument(
        "--engine", choices=ENGINES, default=DEFAULT_ENGINE,
        help="epoch engine for every run of the sweep: batch (default) or "
             "the event reference (bit-identical)")
    compare_parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec applied to every run of the sweep "
             "(same syntax as 'run --faults')")
    compare_parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="record one JSONL trace per scheme into DIR "
             "(e.g. DIR/morphcache.jsonl, DIR/16-1-1.jsonl)")
    compare_parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="S",
        help="wall-clock seconds per run before the supervisor kills the "
             "hung worker and retries/quarantines the run")
    compare_parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="attempts beyond the first before a failing run is "
             "quarantined (retries reuse the run's seed: bit-identical)")
    compare_parser.add_argument(
        "--sweep-journal", default=None, metavar="PATH",
        help="append each completed run to a crash-safe JSONL journal; a "
             "killed sweep resumes from it with --resume-sweep")
    compare_parser.add_argument(
        "--resume-sweep", action="store_true",
        help="load completed runs from --sweep-journal and execute only "
             "the missing ones (bit-identical to an uninterrupted sweep)")

    journal_parser = sub.add_parser(
        "journal", help="validate and summarize a sweep journal")
    journal_parser.add_argument("path", help="JSONL sweep journal")
    journal_parser.add_argument("--json", action="store_true",
                                help="machine-readable summary")

    serve_parser = sub.add_parser(
        "serve", help="run the multi-tenant simulation service")
    serve_parser.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable service state: job specs, journals, results; the "
             "service recovers from DIR at startup")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = OS-assigned; see DIR/serve.json)")
    serve_parser.add_argument(
        "--max-jobs", type=int, default=2, metavar="N",
        help="concurrently running jobs across all tenants (default 2)")
    serve_parser.add_argument(
        "--max-queued", type=int, default=64, metavar="N",
        help="global queue bound; beyond it submissions shed with 429")
    serve_parser.add_argument(
        "--max-queued-per-tenant", type=int, default=8, metavar="N",
        help="default per-tenant queue quota (default 8)")
    serve_parser.add_argument(
        "--max-running-per-tenant", type=int, default=1, metavar="N",
        help="default per-tenant running cap (default 1)")
    serve_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="S",
        help="default per-job wall-clock watchdog; a job's 'max_seconds' "
             "overrides it (default: no limit)")
    serve_parser.add_argument(
        "--quota", action="append", metavar="TENANT=W[:QUEUED[:RUNNING]]",
        help="per-tenant override: dispatch weight, queue quota, running "
             "cap (repeatable)")
    serve_parser.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="S",
        help="seconds a drain waits for SIGTERM'd jobs to checkpoint "
             "before SIGKILLing them (default 10)")
    serve_parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="pool mode: spawn N 'repro worker' processes that pull jobs "
             "from DIR via fenced leases; a killed worker's jobs are "
             "adopted bit-identically by its peers (default 0 = run jobs "
             "in service-owned children)")
    serve_parser.add_argument(
        "--worker-heartbeat", type=float, default=1.0, metavar="S",
        help="pool lease heartbeat interval (set once at pool creation)")
    serve_parser.add_argument(
        "--worker-misses", type=int, default=3, metavar="N",
        help="missed heartbeats before a peer may reclaim a lease")

    worker_parser = sub.add_parser(
        "worker", help="run one shared-pool worker")
    worker_parser.add_argument(
        "--pool", required=True, metavar="DIR",
        help="the pool directory (a 'serve --workers' state dir, or one "
             "initialised with --init)")
    worker_parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable identity for leases/heartbeats (default: worker-PID)")
    worker_parser.add_argument(
        "--drain", action="store_true",
        help="exit once every job in the pool is terminal")
    worker_parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="execute at most N jobs, then exit")
    worker_parser.add_argument(
        "--init", action="store_true",
        help="create the pool directory if it does not exist yet")
    worker_parser.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="S",
        help="lease heartbeat interval when creating the pool with --init "
             "(an existing pool's timing always wins)")
    worker_parser.add_argument(
        "--misses", type=int, default=3, metavar="N",
        help="missed heartbeats before reclaim, when creating with --init")

    pool_parser = sub.add_parser(
        "pool", help="inspect a shared worker pool")
    pool_sub = pool_parser.add_subparsers(dest="pool_command", required=True)
    pool_status_parser = pool_sub.add_parser(
        "status", help="per-job lease state, worker heartbeats, counts")
    pool_status_parser.add_argument("pool_dir", metavar="DIR")
    pool_status_parser.add_argument("--json", action="store_true",
                                    help="machine-readable status")
    return parser


COMMANDS = {
    "table3": cmd_table3,
    "table2": cmd_table2,
    "list": cmd_list,
    "run": cmd_run,
    "trace": cmd_trace,
    "compare": cmd_compare,
    "journal": cmd_journal,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "pool": cmd_pool,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        # Each error class carries its own exit code (see module docstring)
        # so sweep scripts can distinguish failure modes.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # `repro trace ... | head` closes stdout early; exit quietly like
        # any well-behaved filter instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
