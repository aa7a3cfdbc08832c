"""Benchmark for finsemi; see README.md in this directory."""
