"""Benchmark of the subelliptic engine; `python3 perfbench/run.py --help`."""
