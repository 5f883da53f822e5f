"""Benchmark of the raydedup engine: seeded workloads on the dedup
pipeline and the checkpointed runner, with oracle-checked outputs.

Entry point: ``python3 dedupbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root (see README.md).
"""
