"""Seeded closed-loop benchmark for plabel; run it as `python3 perfbench/run.py`."""
