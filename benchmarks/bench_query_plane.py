"""Local ``execute()`` vs HTTP round-trip throughput at 100k rows.

The query-plane redesign makes local and remote backends speak one
protocol: a :class:`~repro.serving.queries.TopKQuery` executed by a
:class:`~repro.serving.service.DistanceService` and by a
:class:`~repro.serving.client.DistanceClient` (against a
:class:`~repro.serving.server.SketchQueryServer` over the same saved,
memory-mapped store) must return **bit-identical** payloads.  This
benchmark pins that equality at 105k stored rows (hard) and reports the
throughput cost of the HTTP hop — wire encoding, one TCP round trip,
server-side decode — for single queries and for batched
``execute_many`` round trips, which amortise the hop across queries.

Timing is informational except for one sanity gate: a batched remote
round trip must beat issuing the same queries one-by-one remotely
(``QUERY_PLANE_MANY_MIN_SPEEDUP``, default 1.05x — the entire point
of ``/query-many`` is amortising the hop, though the keep-alive
connection pool shrank batching's edge by removing the per-request
TCP setup that one-by-one used to pay).  Each arm's time is its best of
nine windows of about 70 ms, the one-by-one and ``/query-many`` windows
taken in turn, so neither a slow stretch of the host nor the warm-up
after the server starts lands on one arm only.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/bench_query_plane.py -v -s``
"""

import os
import time

import numpy as np

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    RadiusQuery,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
)

_D, _K, _S = 128, 64, 4
_ROWS = 105_000
_CHUNK = 15_000
_SHARD = 8_192
_TOP = 10
_SINGLE_QUERIES = 24      # one-at-a-time round trips
_MANY_BATCH = 24          # queries per /query-many round trip
_WINDOWS = 9              # timed windows per arm, the arms taken in turn

# the pooled keep-alive client narrowed this: one-by-one no longer pays
# a TCP setup per request, so batching's edge is the round trips alone
_MANY_MIN_SPEEDUP = float(os.environ.get("QUERY_PLANE_MANY_MIN_SPEEDUP", "1.05"))


def _build(tmp_path):
    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    rng = np.random.default_rng(0)
    store = ShardedSketchStore(shard_capacity=_SHARD)
    for start in range(0, _ROWS, _CHUNK):
        X = rng.standard_normal((min(_CHUNK, _ROWS - start), _D))
        store.add_batch(sketcher.sketch_batch(X, noise_rng=start))
    store.save(tmp_path / "store")
    queries = [
        sketcher.sketch(rng.standard_normal(_D), noise_rng=1_000_000 + i)
        for i in range(_SINGLE_QUERIES)
    ]
    return sketcher, queries


def _best_of(*arms):
    """Each arm's best time over ``_WINDOWS`` windows and its last
    result; the arms run in turn, window by window."""
    best, results = [float("inf")] * len(arms), [None] * len(arms)
    for _ in range(_WINDOWS):
        for i, arm in enumerate(arms):
            t0 = time.perf_counter()
            results[i] = arm()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, results


def test_http_round_trip_matches_local_at_105k(tmp_path):
    _, queries = _build(tmp_path)
    typed = [TopKQuery(queries=q, k=_TOP) for q in queries]

    local = DistanceService(
        ShardedSketchStore.load(tmp_path / "store", mmap=True),
        ExecutionPolicy(workers=1),
    )
    (local_seconds,), (local_results,) = _best_of(
        lambda: [local.execute(q).payload[0] for q in typed]
    )

    with SketchQueryServer.from_store_dir(
        tmp_path / "store", port=0, policy=ExecutionPolicy(workers=1)
    ).start() as server:
        client = DistanceClient(server.url)

        (single_seconds, many_seconds), (single_results, many_results) = _best_of(
            lambda: [client.execute(q).payload[0] for q in typed],
            lambda: [r.payload[0] for r in client.execute_many(typed[:_MANY_BATCH])],
        )

        # correctness is hard: the HTTP hop must not change a single bit
        assert single_results == local_results
        assert many_results == local_results[:_MANY_BATCH]
        radius_sq = float(np.median([est for _, est in local_results[0]])) * 4
        r_query = RadiusQuery(query=queries[0], radius_sq=radius_sq)
        assert client.execute(r_query).payload == local.execute(r_query).payload
        c_query = CrossQuery(queries=queries[0])
        np.testing.assert_array_equal(
            client.execute(c_query).payload, local.execute(c_query).payload
        )

    n = len(typed)
    local_qps = n / local_seconds
    single_qps = n / single_seconds
    many_qps = _MANY_BATCH / many_seconds
    print(
        f"\nstore: {_ROWS} rows, k={_K}; top-{_TOP} over {n} queries"
        f"\nlocal execute():            {local_qps:8.1f} q/s"
        f"\nHTTP one-by-one:            {single_qps:8.1f} q/s"
        f"\nHTTP execute_many ({_MANY_BATCH:2d}/rt):  {many_qps:8.1f} q/s"
        f"\nbatched-vs-single speedup: {many_qps / single_qps:.2f}x "
        f"(gate {_MANY_MIN_SPEEDUP:g}x)"
    )
    assert many_qps / single_qps >= _MANY_MIN_SPEEDUP, (
        f"/query-many only {many_qps / single_qps:.2f}x over one-by-one "
        f"(threshold {_MANY_MIN_SPEEDUP:g}x)"
    )
