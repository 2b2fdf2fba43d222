"""Set-up of one simulation workload in a fresh interpreter.

``python -m perfbench.setup_probe <workload> <seed>`` imports the
simulator, builds each (scheme, input seed) system and its per-core
threads, then prints ``ready``: the work a run does between process start
and its first timed operation.  The parent times it from spawn to that
line.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    from repro.config import preset
    from repro.sim.experiment import build_system
    from repro.sim.workload import Workload

    from perfbench.sim import CASES, PRESET, derive_seeds

    case = CASES[name]
    config = preset(PRESET)
    workload = Workload.from_name(case.workload)
    for run_seed in derive_seeds(seed, case.seeds):
        for scheme in case.schemes:
            build_system(scheme, config, workload, seed=run_seed)
            workload.build_threads(config, seed=run_seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
