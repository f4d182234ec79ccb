"""Layer ledger: end-to-end and per-layer performance of the QNTN reproduction.

Four named workloads (three ``repro serve`` shapes and the offline
Table III sweep), each run in its own process; untraced runs report the
end-to-end metrics, traced runs the per-layer calls and self times.
``BENCHMARK.json`` at the repository root declares every metric;
``README.md`` here explains them.

    PYTHONPATH=src python -m benchmarks.ledger run [--workload W] [--seed N] [--trace]
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json
"""
