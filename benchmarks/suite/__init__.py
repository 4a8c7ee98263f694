"""One benchmark for the fleet stack: four workloads, end-to-end
throughput and memory, and outside-in per-layer spans.

    PYTHONPATH=src python -m benchmarks.suite --seed 1

See ``benchmarks/suite/README.md`` for the metrics, the workloads and
how to compare two commits.
"""
