"""End-to-end benchmark of the MorphCache reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/NOTES.md`` explains
the workloads and metrics.
"""
