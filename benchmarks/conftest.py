"""Shared fixtures for the benchmark suite.

Every paper-experiment benchmark regenerates one paper table/claim (see
the experiment index in ``repro.experiments.registry``) through the
``regenerate`` fixture, which times a single full run of the
experiment, prints the resulting table, and asserts that every shape
check reproduced the paper's claim.

Benchmarks run experiments at ``smoke`` scale so the suite stays fast;
``python -m repro.experiments all`` produces the ``full``-scale numbers.

The system benchmarks (``bench_batch_sketch``, ``bench_serving``,
``bench_query_plane``, ``bench_parallel_serving``,
``bench_quantised_store``, ``bench_load``, ``bench_maintenance`` and
``bench_routed_search``) are gates: each asserts its correctness and
threshold checks and prints a summary, and CI runs each file in its
own process.  Performance over time is measured by the repository
benchmark (``perfbench/``) and recorded in ``bench-history/`` with
``tools/ledger.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_experiment


@pytest.fixture
def regenerate(benchmark):
    """Time one experiment run and assert its claims reproduced."""

    def run(experiment_id: str, scale: str = "smoke", seed: int = 0):
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": scale, "seed": seed},
            rounds=1,
            iterations=1,
        )
        failing = [name for name, ok in result.checks.items() if not ok]
        assert result.passed, f"{experiment_id} failed checks: {failing}"
        print()
        print(result.render())
        return result

    return run
