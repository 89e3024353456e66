"""Shard-parallel + memory-mapped serving vs the serial in-RAM path.

Three configurations answer the same top-k / cross workload over a
105k-row store:

* **serial** — the PR-2 path: one thread streams all shards;
* **threaded** — ``ExecutionPolicy(workers=4)``: per-shard distance
  blocks run on a thread pool (BLAS releases the GIL);
* **mmap** — the same store reloaded with ``mmap=True``: shards are
  lazy memory maps, materialised only when a query touches them.

Gate: identical answers across all three (hard — bit-for-bit), the
mmap store must answer without eagerly materialising shards at load
time (hard), and the threaded path must beat serial by
``PARALLEL_SERVING_MIN_SPEEDUP`` (soft: defaults to 1.1 on machines
with >= 4 cores and is waived on smaller ones — thread parallelism
cannot win on a single core; CI pins its own threshold).

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/bench_parallel_serving.py -v -s``
"""

import os
import time

import numpy as np

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    ShardedSketchStore,
    TopKQuery,
)

_D, _K, _S = 128, 64, 4
_ROWS = 105_000        # stored rows (>= 1e5 per the acceptance gate)
_CHUNK = 15_000        # sketching chunk, bounds peak memory
_SHARD = 8_192         # 13 shards -> enough per-shard blocks to overlap
_QUERIES = 32          # batched queries amortise the merge
_TOP = 10
_REPEATS = 3           # best-of timing

_MIN_SPEEDUP = float(
    os.environ.get(
        "PARALLEL_SERVING_MIN_SPEEDUP",
        "1.1" if (os.cpu_count() or 1) >= 4 else "0",
    )
)


def _build():
    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    rng = np.random.default_rng(0)
    store = ShardedSketchStore(shard_capacity=_SHARD)
    for start in range(0, _ROWS, _CHUNK):
        X = rng.standard_normal((min(_CHUNK, _ROWS - start), _D))
        store.add_batch(sketcher.sketch_batch(X, noise_rng=start))
    queries = sketcher.sketch_batch(
        rng.standard_normal((_QUERIES, _D)), noise_rng=999_983
    )
    return sketcher, store, queries


def _time_workload(service, queries):
    best = float("inf")
    result = None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        top = service.execute(TopKQuery(queries=queries, k=_TOP)).payload
        cross = service.execute(CrossQuery(queries=queries[:4])).payload
        best = min(best, time.perf_counter() - t0)
        result = (top, cross)
    return best, result


def _rank(row, k):
    """The top ``k`` of one full cross row, ranked as ``execute()`` ranks.

    By estimate, then row position (the store's labels are its
    positions), with the reported estimates clamped at zero.
    """
    order = np.lexsort((np.arange(row.size), row))[:k]
    return [(int(i), estimators.clamp_sq_estimates(row[i])) for i in order]


def test_threaded_serving_matches_serial_at_105k(tmp_path):
    _, store, queries = _build()
    serial = DistanceService(store, ExecutionPolicy(workers=1))
    serial_seconds, (serial_top, serial_cross) = _time_workload(serial, queries)
    # the unbounded reference: every shard through the same kernel
    full = serial.execute(CrossQuery(queries=queries)).payload
    assert serial_top == [_rank(row, _TOP) for row in full]

    with DistanceService(store, ExecutionPolicy(workers=4)) as threaded:
        threaded_seconds, (threaded_top, threaded_cross) = _time_workload(
            threaded, queries
        )

    # correctness is hard: bit-identical rankings and matrices
    assert threaded_top == serial_top
    np.testing.assert_array_equal(threaded_cross, serial_cross)

    # -- mmap: reload the same store lazily and answer from the maps -------
    store.save(tmp_path / "store")
    mapped_store = ShardedSketchStore.load(tmp_path / "store", mmap=True)
    assert mapped_store.resident_shards == 0  # nothing read at load time
    with DistanceService(mapped_store, ExecutionPolicy(workers=4)) as mapped:
        mapped_seconds, (mapped_top, mapped_cross) = _time_workload(mapped, queries)
    assert mapped_top == serial_top
    np.testing.assert_array_equal(mapped_cross, serial_cross)

    speedup = serial_seconds / threaded_seconds
    print(
        f"\nstore: {len(store)} rows, k={_K}, {store.n_shards} shards, "
        f"{os.cpu_count()} cores"
        f"\nserial   (1 thread):          {serial_seconds * 1e3:8.1f} ms/workload"
        f"\nthreaded (4 workers):         {threaded_seconds * 1e3:8.1f} ms/workload"
        f"\nmmap     (4 workers, lazy):   {mapped_seconds * 1e3:8.1f} ms/workload"
        f"\nthreaded speedup: {speedup:.2f}x (gate {_MIN_SPEEDUP:g}x)"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"threaded serving only {speedup:.2f}x over serial "
        f"(threshold {_MIN_SPEEDUP:g}x)"
    )


def test_prefilter_skips_work_on_separable_stores():
    """Norm-separated shards: the norm bound must cut shards scanned, not results.

    The unbounded side is the cross query over every shard — the same
    kernel the bounded top-k runs, with no bound and nothing skipped.
    """
    import dataclasses

    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    rng = np.random.default_rng(1)
    template = sketcher.sketch_batch(rng.standard_normal((1, _D)), noise_rng=0)
    n, shards = 40_000, 10
    values = rng.standard_normal((n, _K))
    values[:, 0] += np.repeat(np.arange(shards) * 1e4, n // shards)  # separated norms
    batch = dataclasses.replace(template, values=values, labels=())
    store = ShardedSketchStore(shard_capacity=n // shards)
    store.add_batch(batch)
    query = dataclasses.replace(template.row(0), values=values[0].copy())

    service = DistanceService(store, ExecutionPolicy(workers=1))
    cross = CrossQuery(queries=query)
    top_k = TopKQuery(queries=query, k=_TOP)
    t0 = time.perf_counter()
    rows_off = [service.execute(cross).payload[0] for _ in range(20)]
    off_seconds = time.perf_counter() - t0
    hits_off = [_rank(row, _TOP) for row in rows_off]
    t0 = time.perf_counter()
    results_on = [service.execute(top_k) for _ in range(20)]
    on_seconds = time.perf_counter() - t0
    hits_on = [result.payload[0] for result in results_on]
    assert hits_on == hits_off  # exactness is hard
    # the stats must show the norm bound actually skipping shards
    assert all(result.stats.shards_pruned >= shards // 2 for result in results_on)
    print(
        f"\nfull scan (cross): {off_seconds * 1e3:7.1f} ms / 20 queries"
        f"\nbounded top-k:     {on_seconds * 1e3:7.1f} ms / 20 queries "
        f"({off_seconds / on_seconds:.1f}x)"
    )
    # soft sanity: skipping 9 of 10 shards should never be slower
    assert on_seconds <= off_seconds * 1.5
