"""Seeded end-to-end benchmark for dynamis; run it with ``python3 perfbench/run.py``."""
