"""Benchmark of the suppscan package; entry point perfbench/run.py."""
