"""The PPChecker benchmark: three seeded workloads, one command.

Run it from the root of a checkout with ``python3 perfbench/run.py``;
see ``perfbench/README.md`` for the workloads, metrics and modes.
"""

#: the workloads, in the order ``BENCHMARK.json`` lists them
WORKLOADS = ("study", "serve-recheck", "cluster-recheck")
