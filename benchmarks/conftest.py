"""Shared fixtures for the benchmark suite.

Every benchmark file regenerates one paper table/claim (see the
experiment index in ``repro.experiments.registry``) through the
``regenerate`` fixture, which times a single full run of the
experiment, prints the resulting table, and asserts that every shape
check reproduced the paper's claim.

Benchmarks run experiments at ``smoke`` scale so the suite stays fast;
``python -m repro.experiments all`` produces the ``full``-scale numbers.

The ``bench_record`` fixture is the perf ledger: every system benchmark
writes one machine-readable ``BENCH_<name>.json`` (timings, speedups,
rows/s, store bytes — whatever it measured) next to the working
directory (or under ``$BENCH_JSON_DIR``).  CI uploads the files as
artifacts and ``benchmarks/trajectory.py`` prints them as one table, so
the perf trajectory is tracked per commit instead of lost in job logs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.registry import run_experiment


@pytest.fixture
def bench_record():
    """Write one ``BENCH_<name>.json`` perf record; returns its path.

    ``fields`` is a flat-ish JSON-serialisable mapping — by convention
    ``timings`` (seconds), ``speedups`` (ratios), ``rates`` (rows/s or
    q/s) and ``sizes`` (bytes) sub-dicts, plus anything else worth
    tracking.  The commit comes from ``$GITHUB_SHA`` when CI sets it.
    """

    def write(name: str, **fields) -> Path:
        record = {
            "benchmark": name,
            "commit": os.environ.get("GITHUB_SHA"),
            **fields,
        }
        out_dir = Path(os.environ.get("BENCH_JSON_DIR", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path

    return write


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
