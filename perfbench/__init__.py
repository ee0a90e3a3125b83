"""The ovc benchmark: workloads, oracles and the traced per-layer run.
Entry point: python3 perfbench/run.py (see README.md beside it)."""
