"""E21 measurement spine: six named workloads, campaign spec to verified result.

See ``README.md`` in this directory.  ``run.py`` measures one workload in
one process (the contract ``BENCHMARK.json`` describes);
``python -m benchmarks.e21`` runs all of them and compares result sets.
"""
