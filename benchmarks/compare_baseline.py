"""Compare a freshly measured BENCH_*.json against the committed baseline.

Usage::

    python benchmarks/compare_baseline.py BASELINE.json FRESH.json \
        [--threshold FRACTION] [--gate PATH ...]

Walks both JSON trees and compares every shared numeric leaf that is a
throughput measurement (no segment of its path is a metadata key).  When a
fresh number falls more than the threshold (default ``THRESHOLD``) below the
committed baseline it emits a GitHub Actions ``::warning::`` annotation so
the regression is visible on the PR without gating it — shared runners are
too noisy for a hard fail on raw throughput.

``--gate PATH`` (repeatable, dotted leaf path such as ``speedup.merged``)
promotes specific leaves to a **ratchet**: a gated leaf that regresses
beyond the threshold — or is missing from the fresh measurement entirely —
is an ``::error::`` and the script exits 1.  Gates are meant for
*ratios* (batch-vs-event speedups), which divide out runner speed and are
stable where absolute accesses/second are not; CI gates the batch engine's
private/merged/shared speedups this way so neither the per-core nor the
slice-group kernel can silently lose its advantage.  Without ``--gate`` the script always exits 0.  The
trace-overhead smoke job passes ``--threshold 0.02``: the observability
layer's contract is that the disabled path stays within 2% of the
committed ``BENCH_trace.json`` baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Fractional drop below baseline that trips a warning annotation.
THRESHOLD = 0.20

#: Keys that describe the measurement rather than report one, at any depth
#: (``scaled64.passes`` is as much metadata as a top-level ``passes``).
#: ``overhead_fraction`` is derived and lower-is-better, so the
#: higher-is-better throughput comparison below must not touch it.
METADATA_KEYS = {"config", "workload", "seed", "epochs_timed", "passes",
                 "unit", "before", "overhead_fraction"}


def _leaves(tree, prefix=""):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield prefix, float(tree)


def compare(baseline: dict, fresh: dict, label: str,
            threshold: float = THRESHOLD) -> list:
    """Paths whose fresh value regressed >threshold below the baseline."""
    fresh_map = dict(_leaves(fresh))
    regressions = []
    for path, base_value in _leaves(baseline):
        if METADATA_KEYS.intersection(path.split(".")) or base_value <= 0:
            continue
        got = fresh_map.get(path)
        if got is not None and got < base_value * (1.0 - threshold):
            regressions.append((label, path, base_value, got))
    return regressions


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_baseline", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("fresh", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=THRESHOLD,
                        metavar="FRACTION",
                        help="fractional drop below baseline that trips a "
                             f"warning (default {THRESHOLD})")
    parser.add_argument("--gate", action="append", default=[],
                        metavar="PATH",
                        help="dotted leaf path (e.g. speedup.merged) whose "
                             "regression beyond the threshold, or absence "
                             "from the fresh file, fails the run (exit 1); "
                             "repeatable")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 2
    baseline_path, fresh_path = args.baseline, args.fresh
    if not baseline_path.exists():
        print(f"no committed baseline at {baseline_path}; skipping comparison")
        return 0
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    regressions = compare(baseline, fresh, baseline_path.stem,
                          threshold=args.threshold)
    gated = set(args.gate)
    failures = []
    for label, path, base_value, got in regressions:
        drop = 100.0 * (1.0 - got / base_value)
        severity = "error" if path in gated else "warning"
        print(f"::{severity} title=bench regression ({label})::"
              f"{path}: {got:.2f} vs committed {base_value:.2f} "
              f"(-{drop:.0f}%, threshold {args.threshold:.0%})")
        if path in gated:
            failures.append(path)
    base_map = dict(_leaves(baseline))
    fresh_map = dict(_leaves(fresh))
    for path in sorted(gated):
        # A gate over a leaf that vanished (renamed topology, dropped
        # section) must fail loudly, not silently stop ratcheting.
        if path not in base_map:
            print(f"::error title=bench gate::{path} not in committed "
                  f"baseline {baseline_path.name}")
            failures.append(path)
        elif path not in fresh_map:
            print(f"::error title=bench gate::{path} missing from fresh "
                  f"measurement {fresh_path.name}")
            failures.append(path)
    if not regressions and not failures:
        print(f"{baseline_path.name}: all measurements within "
              f"{args.threshold:.0%} of the committed baseline"
              + (f" (gated: {', '.join(sorted(gated))})" if gated else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
