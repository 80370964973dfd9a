"""Benchmark of the hlk verdict batteries; run perfbench/run.py."""
