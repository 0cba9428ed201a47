"""Benchmark for corpusaudit: seeded workloads, end-to-end and per-layer metrics."""
