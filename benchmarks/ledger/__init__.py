"""The perf ledger: host-calibrated end-to-end and per-layer benchmark.

Four closed-loop, single-client workloads, three gated end-to-end
metrics on each, and a traced run that attributes host time to the
layers underneath.  ``README.md`` in this directory is the definition;
``BENCHMARK.json`` at the repository root is the contract the numbers
are judged by.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.ledger run --workload world_churn --seed 14
    PYTHONPATH=src python -m benchmarks.ledger run --all
    PYTHONPATH=src python -m benchmarks.ledger selfcheck
    python3 benchmarks/ledger/run.py --workload world_churn --seed 14 --seconds 18 --trace 0
"""
