"""Same-process A/B of the batch kernels against another revision.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/kernel_ab.py --against REV \
        [--schemes "(16:1:1)" "(4:4:1)" ...] [--rounds N] \
        [--workload "MIX 01"]

Loads ``git show REV:src/repro/sim/batch.py`` and the working tree's
``src/repro/sim/batch.py`` as two modules of their own, built the same way
(everything they import is the working tree's), then, for each scheme and
round, runs both on fresh systems over the same traces (SMALL preset,
seed 2011, one warm-up and one timed epoch), alternating which goes first.
Only the timed epoch's ``run_epoch_batch`` call is on the clock; the
warm-up epoch runs untimed through the same module.  Each pair's outputs —
dispatch tags, per-core ``cycles``, topology labels, miss counts and the
final ``state_digest`` — must be equal, or the script stops with an error.
It prints, per scheme, the median of the per-pair ratios (REV time /
working-tree time, so above 1 means the working tree is faster) and how
many pairs the working tree won.

Both variants share one interpreter, so they see the same CPU frequency,
cache warmth and allocator state, which makes a pair's ratio far steadier
than two separate runs on a noisy host.  Both are compiled from source
here rather than one of them being the imported ``repro.sim.batch``: with
identical code on both sides, that asymmetry alone read 0.92-0.94x on a
per-core MorphCache epoch.  The script gates nothing, and pytest does not
collect it (``python_files`` is ``test_*.py`` and ``bench_*.py``).
"""

from __future__ import annotations

import argparse
import gc
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from repro.config import preset
from repro.cpu.core_model import CoreTimingModel
from repro.resilience.checkpoint import state_digest
from repro.sim.experiment import build_system
from repro.sim.workload import Workload

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SCHEMES = ("(16:1:1)", "(4:4:1)", "(8:2:1)", "(1:16:1)")
PRESET = "small"
SEED = 2011
WARM_EPOCHS = 1
TIMED_EPOCHS = 1

BATCH = "src/repro/sim/batch.py"


def load_module(name: str, source: str, filename: str) -> types.ModuleType:
    """``source`` compiled and run as a module of its own named ``name``."""
    module = types.ModuleType(name)
    module.__file__ = filename
    sys.modules[name] = module
    exec(compile(source, filename, "exec"), module.__dict__)
    return module


def load_revision(rev: str) -> types.ModuleType:
    """``src/repro/sim/batch.py`` at ``rev``, as a module of its own."""
    source = subprocess.run(["git", "show", f"{rev}:{BATCH}"], cwd=ROOT,
                            capture_output=True, text=True,
                            check=True).stdout
    return load_module("repro.sim._batch_at_rev", source, f"{rev}:{BATCH}")


def load_tree() -> types.ModuleType:
    """The working tree's ``src/repro/sim/batch.py``, loaded like
    :func:`load_revision` loads a revision's."""
    path = ROOT / BATCH
    return load_module("repro.sim._batch_in_tree", path.read_text(),
                       str(path))


def run(module, scheme: str, workload: Workload, config):
    """One fresh run: (seconds in timed epochs, outputs to compare)."""
    system = build_system(scheme, config, workload, seed=SEED)
    threads = workload.build_threads(config, seed=SEED)
    active = [core for core, thread in enumerate(threads)
              if thread is not None]
    n = config.accesses_per_core_per_epoch
    outputs = []
    elapsed = 0.0
    for epoch in range(WARM_EPOCHS + TIMED_EPOCHS):
        traces = {core: threads[core].generate(n) for core in active}
        timers = {core: CoreTimingModel(config.issue_width,
                                        memory_latency=config.latency.memory)
                  for core in active}
        gc.collect()
        start = time.perf_counter()
        tag = module.run_epoch_batch(system, traces, timers, n)
        if epoch >= WARM_EPOCHS:
            elapsed += time.perf_counter() - start
        label = system.end_epoch()
        outputs.append((tag, label, system.miss_counts(),
                        {core: repr(timers[core].cycles) for core in active}))
    outputs.append(state_digest(system))
    return elapsed, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision whose batch.py is the baseline")
    parser.add_argument("--schemes", nargs="+", default=list(DEFAULT_SCHEMES))
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--workload", default="MIX 01")
    args = parser.parse_args(argv)

    baseline = load_revision(args.against)
    config = preset(PRESET)
    workload = Workload.from_name(args.workload)
    variants = {"rev": baseline, "tree": load_tree()}
    print(f"{args.workload}, {PRESET} preset, seed {SEED}, "
          f"{WARM_EPOCHS}+{TIMED_EPOCHS} epochs, {args.rounds} rounds; "
          f"ratio = {args.against} time / working-tree time")
    for scheme in args.schemes:
        ratios = []
        for round_ in range(args.rounds):
            order = ("rev", "tree") if round_ % 2 == 0 else ("tree", "rev")
            results = {name: run(variants[name], scheme, workload, config)
                       for name in order}
            if results["rev"][1] != results["tree"][1]:
                print(f"{scheme}: round {round_} outputs differ between "
                      f"{args.against} and the working tree",
                      file=sys.stderr)
                return 1
            ratios.append(results["rev"][0] / results["tree"][0])
        wins = sum(ratio > 1 for ratio in ratios)
        print(f"{scheme:>10}  median {statistics.median(ratios):.3f}x  "
              f"wins {wins}/{len(ratios)}  "
              f"[{' '.join(f'{r:.2f}' for r in ratios)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
