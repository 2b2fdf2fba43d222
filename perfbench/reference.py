"""One event-engine reference run in a fresh interpreter.

``python -m perfbench.reference <workload> <epochs> <scheme> <seed>``
runs the scheme on the event engine and writes the pickled output summary
(:func:`perfbench.sim.summarize`) to standard output.  The benchmark runs
a few of these at once and waits for each.
"""

from __future__ import annotations

import pickle
import sys


def main(argv) -> int:
    workload, epochs, scheme, seed = argv[0], int(argv[1]), argv[2], \
        int(argv[3])
    from perfbench.sim import reference_run

    summary = reference_run(workload, epochs, scheme, seed)
    sys.stdout.buffer.write(pickle.dumps(summary))
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
