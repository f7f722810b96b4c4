"""System benchmark: pcap -> durable store -> served answer.

See ``README.md`` in this directory.  ``run.py`` is the entry point the
benchmark contract (``BENCHMARK.json``) names; ``python -m
benchmarks.e2e`` is the same program.
"""
