"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mix-morph --seed 1 --seconds 15 \\
        --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of a separate traced run, whose self-time table and tracing
overhead are printed above it and whose spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``).  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
from functools import partial
from typing import Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: How long a process started by the run may outlive it before it is
#: killed and counted as a failure.
LINGER_S = 5.0

WORKLOADS = ("mix-morph", "parsec-morph", "static-sweep", "serve-jobs")

END_TO_END = ("setup_s", "sim_accesses_per_s", "peak_rss_mb", "jobs_per_s",
              "job_latency_p50_s", "job_latency_p75_s")

#: Every per-layer metric and its unit; a workload that does not reach a
#: layer reports 0 for it.
PER_LAYER = {
    "workloads.generate_s": "s",
    "batch.epoch_s": "s",
    "batch.epochs.batch-private-percore": "count",
    "batch.epochs.batch-private": "count",
    "batch.epochs.batch-merged": "count",
    "batch.epochs.batch-shared": "count",
    "batch.epochs.batch-general": "count",
    "batch.epochs.event": "count",
    "batch.fast_tier_ratio": "ratio",
    "acfv.on_hit_calls": "count",
    "acfv.on_fill_calls": "count",
    "acfv.observer_s": "s",
    "timing.account_s": "s",
    "controller.end_epoch_s": "s",
    "controller.reconfigurations": "count",
    "hierarchy.set_topology_s": "s",
    "sweep.run_p50_s": "s",
    "sweep.run_max_s": "s",
    "sweep.worker_busy_ratio": "ratio",
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.result_s": "s",
    "serve.shed": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def result_line(outcome, trace: bool) -> Dict:
    """The final JSON object; every metric of the mode, by name."""
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name in names:
        value, unit = outcome.metrics.get(
            name, (0.0, PER_LAYER.get(name, "")))
        metrics[name] = {"value": value, "unit": unit}
    tally = outcome.tally
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def report(outcome, line: Dict) -> None:
    for note in outcome.notes:
        print(note)
    if outcome.table:
        print(outcome.table)
    for reason in outcome.tally.reasons:
        print(f"FAILED: {reason}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")


def on_sigterm(owner: int, signum: int, _frame) -> None:
    """Unwind a terminated run through its teardown, so it still stops
    what it started.  A forked sweep worker inherits this handler; it dies
    as it would by default."""
    if os.getpid() != owner:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    from perfbench import proc

    signal.signal(signal.SIGTERM, partial(on_sigterm, os.getpid()))
    trace = bool(args.trace)
    try:
        if args.workload == "serve-jobs":
            from perfbench import serve
            outcome = serve.run(ROOT, args.seed, args.seconds, trace)
        else:
            from perfbench import sim
            outcome = sim.run(ROOT, args.workload, args.seed, args.seconds,
                              trace)
    finally:
        left = proc.stop_descendants(LINGER_S)
    for pid in left:
        outcome.tally.record(False, f"process {pid} was still running "
                             "after the run")
    if outcome.tracer is not None:
        outcome.tracer.dump(
            out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    line = result_line(outcome, trace)
    report(outcome, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
