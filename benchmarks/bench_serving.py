"""Sharded serving vs the old rebuild-the-world index at 100k+ rows.

The workload this PR targets: a store that keeps *growing* while it
serves top-k queries.  The legacy ``PrivateNeighborIndex`` kept every
insert as a chunk and re-``np.concatenate``d all of them into one
matrix whenever a query followed an insert, then ranked with a full
``np.argsort`` over all ``n`` rows — O(n) copied bytes per add-then-
query cycle and O(n log n) per query.  The sharded store appends into
preallocated buffers (only the new rows are copied), reuses cached
per-shard norms, and selects top-k with ``argpartition``.

Gate: identical query answers (hard), and the serving path must beat
the legacy path by ``SERVING_BENCH_MIN_SPEEDUP`` (soft default 3x for
noisy CI; quiet machines see far more) on an interleaved
add + query workload over >= 100k stored sketches.

Run directly: ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -v -s``
"""

import os
import time

import numpy as np

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import DistanceService, ShardedSketchStore, TopKQuery

_D, _K, _S = 128, 64, 4
_SEED_ROWS = 100_000   # rows in the store before the timed workload
_ROUNDS = 5            # interleaved (add, query...) cycles
_ADD_ROWS = 1_000      # rows appended per cycle
_QUERIES = 8           # top-k queries per cycle
_TOP = 10

_MIN_SPEEDUP = float(os.environ.get("SERVING_BENCH_MIN_SPEEDUP", "3"))


class _LegacyIndex:
    """The pre-serving ``PrivateNeighborIndex`` internals, verbatim.

    Chunks are concatenated lazily into one matrix; any insert
    invalidates the cache, so an add-then-query cycle recopies every
    stored row.  Queries run a full stable argsort over all rows.
    """

    def __init__(self, template):
        self._template = template
        self._chunks: list[np.ndarray] = []
        self._size = 0
        self._stacked_cache = None

    def add_batch(self, values: np.ndarray) -> None:
        self._chunks.append(values)
        self._size += values.shape[0]
        self._stacked_cache = None  # concatenated matrix is stale

    def _stacked(self) -> np.ndarray:
        if self._stacked_cache is None:
            self._stacked_cache = (
                self._chunks[0]
                if len(self._chunks) == 1
                else np.concatenate(self._chunks)
            )
        return self._stacked_cache

    def query(self, query_values: np.ndarray, top: int):
        stored = self._stacked()
        correction = estimators.sq_distance_correction(self._template)
        sq_a = np.einsum("ij,ij->i", stored, stored)
        sq_b = float(query_values @ query_values)
        est = sq_a + sq_b - 2.0 * (stored @ query_values) - correction
        order = np.argsort(est, kind="stable")[:top]
        return [(int(i), float(est[i])) for i in order]


def _workload(sketcher):
    """Pre-sketched seed rows, per-round additions and queries."""
    rng = np.random.default_rng(0)
    chunks = []
    for start in range(0, _SEED_ROWS, 20_000):  # chunked to bound memory
        X = rng.standard_normal((20_000, _D))
        chunks.append(sketcher.sketch_batch(X, noise_rng=start).values)
    seed_values = np.concatenate(chunks)
    adds = [
        sketcher.sketch_batch(rng.standard_normal((_ADD_ROWS, _D)), noise_rng=1000 + r)
        for r in range(_ROUNDS)
    ]
    queries = [
        sketcher.sketch(rng.standard_normal(_D), noise_rng=2000 + i)
        for i in range(_QUERIES)
    ]
    return seed_values, adds, queries


def test_serving_beats_legacy_rebuild_at_100k():
    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    seed_values, adds, queries = _workload(sketcher)
    template = adds[0][0:0]  # zero-row batch carrying the metadata
    seed_batch = adds[0].__class__(
        values=seed_values,
        input_dim=template.input_dim,
        output_dim=template.output_dim,
        perturbation=template.perturbation,
        noise_spec=template.noise_spec,
        noise_second_moment=template.noise_second_moment,
        guarantee=template.guarantee,
        config_digest=template.config_digest,
    )

    # -- legacy: chunk list + full concatenate rebuild + full sort ---------
    legacy = _LegacyIndex(template)
    legacy.add_batch(seed_values)
    legacy._stacked()  # pre-build so the timed loop measures *re*builds
    legacy_results = []
    start = time.perf_counter()
    for r in range(_ROUNDS):
        legacy.add_batch(np.asarray(adds[r].values))
        for q in queries:
            legacy_results.append(legacy.query(np.asarray(q.values), _TOP))
    legacy_seconds = time.perf_counter() - start

    # -- serving: sharded store + cached norms + argpartition top-k --------
    store = ShardedSketchStore(shard_capacity=32_768)
    store.add_batch(seed_batch)
    service = DistanceService(store)
    serving_results = []
    start = time.perf_counter()
    for r in range(_ROUNDS):
        store.add_batch(adds[r])
        for q in queries:
            serving_results.append(
                service.execute(TopKQuery(queries=q, k=_TOP)).payload[0]
            )
    serving_seconds = time.perf_counter() - start

    # correctness is hard: same winners, same estimates (ulp-level BLAS
    # differences aside; the query plane clamps reported estimates at 0),
    # regardless of how the rows are laid out
    assert len(serving_results) == len(legacy_results)
    for served, legacy_row in zip(serving_results, legacy_results):
        assert [label for label, _ in served] == [label for label, _ in legacy_row]
        for (_, est_a), (_, est_b) in zip(served, legacy_row):
            assert abs(est_a - max(est_b, 0.0)) < 1e-6

    n_final = _SEED_ROWS + _ROUNDS * _ADD_ROWS
    per_query_legacy = legacy_seconds / len(legacy_results)
    per_query_serving = serving_seconds / len(serving_results)
    speedup = legacy_seconds / serving_seconds
    print(
        f"\nstore size: {n_final} rows, k={_K}, {store.n_shards} shards"
        f"\nlegacy  (rebuild + full sort): {legacy_seconds:8.3f}s "
        f"({per_query_legacy * 1e3:7.2f} ms/query)"
        f"\nserving (shards + cached norms): {serving_seconds:8.3f}s "
        f"({per_query_serving * 1e3:7.2f} ms/query)"
        f"\nspeedup: {speedup:.1f}x"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"serving path only {speedup:.1f}x faster than the legacy rebuild "
        f"(threshold {_MIN_SPEEDUP:g}x)"
    )


def test_incremental_add_copies_only_new_rows():
    """Appending a chunk must not scale with rows already stored."""
    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    rng = np.random.default_rng(1)
    chunk = sketcher.sketch_batch(rng.standard_normal((1_000, _D)), noise_rng=0)

    def add_time(prefill_rows: int) -> float:
        store = ShardedSketchStore(shard_capacity=32_768)
        if prefill_rows:
            big = sketcher.sketch_batch(
                rng.standard_normal((prefill_rows, _D)), noise_rng=1
            )
            store.add_batch(big)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            store.add_batch(chunk)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = add_time(0), add_time(60_000)
    print(f"\nappend 1000 rows: empty store {small * 1e3:.2f} ms, "
          f"60k-row store {large * 1e3:.2f} ms")
    # the legacy path would recopy all 60k rows; shards copy only the new
    # 1000.  Allow generous slack for allocator noise.
    assert large < 50 * max(small, 1e-4)
