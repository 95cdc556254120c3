"""Benchmark for the sort engine: workloads, reference checks, layer traces."""
