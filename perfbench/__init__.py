"""Benchmark for the iimaid solver stack; run ``perfbench/run.py``."""
