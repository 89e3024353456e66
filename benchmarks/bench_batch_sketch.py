"""Batch sketching + pairwise estimation vs the per-row Python loop.

The PR's acceptance target: on a 512 x 4096 batch, ``sketch_batch`` +
``pairwise_sq_distances`` must be at least 10x faster than the
equivalent Python loop (one ``sketch`` call per row, one
``estimate_sq_distance`` call per pair), while producing the same
numbers to within 1e-9 per entry.

Run directly: ``PYTHONPATH=src python -m pytest benchmarks/bench_batch_sketch.py -v -s``
"""

import os
import time

import numpy as np
import pytest

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.hashing import prg

_N, _D, _K, _S = 512, 4096, 128, 4

#: The speedup gate.  10x is the acceptance target on a quiet machine;
#: shared CI runners override this down (timing there is noisy-neighbor
#: bound) while the 1e-9 agreement assertions stay hard everywhere.
_MIN_SPEEDUP = float(os.environ.get("BATCH_BENCH_MIN_SPEEDUP", "10"))


def _sketcher() -> PrivateSketcher:
    return PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )


def _loop_pipeline(sk, X, seed_context):
    """The pre-batch-API workload: scalar sketches, per-pair estimates."""
    generator = prg.derive_rng(42, seed_context)
    sketches = [sk.sketch(x, noise_rng=generator) for x in X]
    n = len(sketches)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            est = estimators.estimate_sq_distance(sketches[i], sketches[j])
            matrix[i, j] = matrix[j, i] = est
    return sketches, matrix


def _batch_pipeline(sk, X, seed_context):
    batch = sk.sketch_batch(X, noise_rng=prg.derive_rng(42, seed_context))
    return batch, estimators.pairwise_sq_distances(batch)


def _best_of(pipeline, sk, X, rounds=5):
    """Fastest of ``rounds`` runs (same treatment for both paths)."""
    result, best = None, float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = pipeline(sk, X, "bench")
        best = min(best, time.perf_counter() - start)
    return result, best


def test_batch_matches_loop_and_is_10x_faster():
    sk = _sketcher()
    X = np.random.default_rng(0).standard_normal((_N, _D))

    # warm both paths so caches (hash tables, sparse projector) and BLAS
    # threads are initialised before timing
    _batch_pipeline(sk, X[:4], "warmup")
    _loop_pipeline(sk, X[:4], "warmup")

    (sketches, loop_matrix), loop_seconds = _best_of(_loop_pipeline, sk, X)
    (batch, batch_matrix), batch_seconds = _best_of(_batch_pipeline, sk, X)

    # correctness first: same noise stream -> per-row sketches agree, and
    # the batched pairwise matrix agrees with the per-pair loop
    row_error = max(
        float(np.max(np.abs(batch.values[i] - sketches[i].values))) for i in range(_N)
    )
    matrix_error = float(np.max(np.abs(batch_matrix - loop_matrix)))
    assert row_error < 1e-9, f"per-row sketch mismatch: {row_error:g}"
    assert matrix_error < 1e-9, f"pairwise estimate mismatch: {matrix_error:g}"

    speedup = loop_seconds / batch_seconds
    print(
        f"\nloop:  {loop_seconds:8.3f}s  ({_N / loop_seconds:9.1f} rows/s)"
        f"\nbatch: {batch_seconds:8.3f}s  ({_N / batch_seconds:9.1f} rows/s)"
        f"\nspeedup: {speedup:.1f}x  (max row err {row_error:.2e}, "
        f"max matrix err {matrix_error:.2e})"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"batch path only {speedup:.1f}x faster than the loop "
        f"(threshold {_MIN_SPEEDUP:g}x)"
    )


@pytest.mark.parametrize("rows", [64, 512])
def test_sketch_batch_throughput(benchmark, rows):
    """Rows/sec of the batch sketching path alone (no estimation)."""
    sk = _sketcher()
    X = np.random.default_rng(1).standard_normal((rows, _D))
    sk.sketch_batch(X[:2], noise_rng=0)  # warm the sparse projector
    batch = benchmark(sk.sketch_batch, X, noise_rng=0)
    assert batch.values.shape == (rows, _K)
