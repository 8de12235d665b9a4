"""Benchmark for the hsc command line: seeded workloads, output checks and
a per-layer tracer.  Run it with ``python3 bench/run.py --help``."""
