"""Steady end-to-end benchmark of the Path ORAM reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` lists the
workloads, the metrics and the layer each per-layer metric belongs to.
"""
