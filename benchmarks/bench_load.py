"""Serving-tier load test: concurrent clients against a 105k-row store.

Three things are measured against one saved, memory-mapped store:

1. **Pooled vs one-shot transport** (gated): sustained q/s from
   concurrent clients issuing transport-bound queries through the
   keep-alive connection pool versus the same clients with
   ``pool_size=0`` (a fresh TCP connection per request — the pre-pool
   behaviour).  The pool must win by ``LOAD_BENCH_MIN_SPEEDUP``
   (default 1.05x): reusing a connection is the entire point.
2. **Realistic load latency** (informational): p50/p99 per-request
   latency and saturation throughput for concurrent top-10 queries.
3. **Correctness under every topology** (hard): pooled client, router
   over two half-stores behind HTTP backends, and a cached router
   frontend must all return payloads bit-identical to local
   ``execute()`` — a cache hit must be the byte-identical envelope.

Timing gates are soft against machine noise (tune via the env var);
correctness asserts are hard.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/bench_load.py -v -s``
"""

import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    PairwiseQuery,
    RadiusQuery,
    RouterService,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
)

_D, _K, _S = 128, 64, 4
_ROWS = 105_000
_SPLIT = 45_000           # router leg: backend 0 gets [0, 45k), backend 1 the rest
_CHUNK = 15_000
_SHARD = 8_192
_TOP = 10
_THREADS = 8              # concurrent clients
_TRANSPORT_REQUESTS = 40  # per client, transport-bound leg
_TOPK_REQUESTS = 15       # per client, compute-bound leg

_MIN_SPEEDUP = float(os.environ.get("LOAD_BENCH_MIN_SPEEDUP", "1.05"))


def _build(tmp_path):
    """One 105k-row store plus the same rows split across two stores."""
    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    rng = np.random.default_rng(0)
    combined = ShardedSketchStore(shard_capacity=_SHARD)
    parts = [ShardedSketchStore(shard_capacity=_SHARD) for _ in range(2)]
    for start in range(0, _ROWS, _CHUNK):
        X = rng.standard_normal((min(_CHUNK, _ROWS - start), _D))
        batch = sketcher.sketch_batch(X, noise_rng=start)
        combined.add_batch(batch)
        part = parts[0] if start < _SPLIT else parts[1]
        part.add_batch(batch, labels=range(start, start + len(batch)))
    combined.save(tmp_path / "store")
    parts[0].save(tmp_path / "part0")
    parts[1].save(tmp_path / "part1")
    queries = [
        sketcher.sketch(rng.standard_normal(_D), noise_rng=1_000_000 + i)
        for i in range(_THREADS)
    ]
    return sketcher, queries


def _spawn_server(store_dir, processes=2):
    """The CLI launcher as a load-test target: its own interpreter(s).

    An in-process server would share the benchmark's GIL with the
    client threads and measure interpreter scheduling, not transport.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SERVING_WORKERS", None)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serving.server",
            "--store",
            str(store_dir),
            "--port",
            "0",
            "--processes",
            str(processes),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    assert " at http://" in banner, f"unexpected server banner: {banner!r}"
    return process, banner.rsplit(" at ", 1)[1].strip()


def _drive(url, pool_size, per_thread, make_query):
    """``_THREADS`` concurrent clients; returns (wall_s, sorted latencies)."""
    latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(_THREADS)

    def worker(thread_id: int) -> None:
        mine: list[float] = []
        try:
            with DistanceClient(url, pool_size=pool_size) as client:
                barrier.wait()
                for j in range(per_thread):
                    query = make_query(thread_id, j)
                    t0 = time.perf_counter()
                    client.execute(query)
                    mine.append(time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            with lock:
                errors.append(exc)
            return
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"load-client-{i}")
        for i in range(_THREADS)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, sorted(latencies)


def _percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def test_serving_tier_under_concurrent_load(tmp_path):
    sketcher, queries = _build(tmp_path)
    local = DistanceService(
        ShardedSketchStore.load(tmp_path / "store", mmap=True),
        ExecutionPolicy(workers=1),
    )
    typed = [TopKQuery(queries=q, k=_TOP) for q in queries]
    local_top = [local.execute(q).payload[0] for q in typed]

    # the load target runs out of process (its own GIL); two SO_REUSEPORT
    # workers where the platform has them, the plain single process else
    server_process, url = _spawn_server(
        tmp_path / "store",
        processes=2 if hasattr(socket, "SO_REUSEPORT") else 1,
    )
    try:
        # -- correctness: the pooled client is bit-identical to local --------
        with DistanceClient(url) as checker:
            assert [checker.execute(q).payload[0] for q in typed] == local_top
            radius_sq = float(np.median([est for _, est in local_top[0]])) * 4
            r_query = RadiusQuery(query=queries[0], radius_sq=radius_sq)
            assert checker.execute(r_query).payload == local.execute(r_query).payload
            c_query = CrossQuery(queries=queries[0])
            np.testing.assert_array_equal(
                checker.execute(c_query).payload, local.execute(c_query).payload
            )
            assert checker.connections_opened == 1  # the whole pass: one conn

        # -- transport-bound leg (gated): pooled vs one-connection -----------
        # a tiny pairwise query makes the round trip, not the BLAS, the cost
        def transport_query(thread_id, j):
            base = (thread_id * 997 + j * 131) % (_ROWS - 3)
            return PairwiseQuery(indices=(base, base + 1, base + 2))

        _drive(url, 8, 5, transport_query)  # warm every worker's pages
        pooled_wall, _ = _drive(url, 8, _TRANSPORT_REQUESTS, transport_query)
        oneshot_wall, _ = _drive(url, 0, _TRANSPORT_REQUESTS, transport_query)
        total = _THREADS * _TRANSPORT_REQUESTS
        pooled_qps = total / pooled_wall
        oneshot_qps = total / oneshot_wall

        # -- compute-bound leg (informational): top-10 latency profile -------
        def topk_query(thread_id, j):
            return typed[(thread_id + j) % len(typed)]

        topk_wall, topk_lat = _drive(url, 8, _TOPK_REQUESTS, topk_query)
        topk_qps = _THREADS * _TOPK_REQUESTS / topk_wall
        p50 = _percentile(topk_lat, 0.50)
        p99 = _percentile(topk_lat, 0.99)
    finally:
        server_process.terminate()
        try:
            server_process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            server_process.kill()
            server_process.wait()

    # -- router + cache topology: still bit-identical to local ---------------
    # two cached store servers behind a router frontend: the first pass
    # computes, the second is served from the backends' release caches —
    # both must match the single-store local run bit for bit
    backend_servers = [
        SketchQueryServer.from_store_dir(
            tmp_path / part, port=0, policy=ExecutionPolicy(workers=1), cache=256
        ).start()
        for part in ("part0", "part1")
    ]
    try:
        router = RouterService(
            [DistanceClient(s.url) for s in backend_servers], close_backends=True
        )
        with SketchQueryServer(router, port=0).start() as front:
            with DistanceClient(front.url) as client:
                first = [client.execute(q).payload[0] for q in typed]
                assert first == local_top  # scatter-gather: bit-identical
                again = [client.execute(q).payload[0] for q in typed]
                assert again == local_top  # cache-served: still identical
        with DistanceClient(backend_servers[0].url) as probe:
            cache_stats = probe.health()["cache"]
        assert cache_stats["hits"] >= len(typed)  # pass 2 really hit the cache
    finally:
        for backend in backend_servers:
            backend.close()
    local.close()

    speedup = pooled_qps / oneshot_qps
    print(
        f"\nstore: {_ROWS} rows, k={_K}; {_THREADS} concurrent clients"
        f"\ntransport-bound (pairwise):  pooled {pooled_qps:8.1f} q/s"
        f"\n                             one-shot {oneshot_qps:7.1f} q/s"
        f"\n                             speedup {speedup:.2f}x (gate {_MIN_SPEEDUP:g}x)"
        f"\ntop-{_TOP} under load:          {topk_qps:8.1f} q/s"
        f"\n                             p50 {p50 * 1e3:7.2f} ms   p99 {p99 * 1e3:7.2f} ms"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"connection pooling only {speedup:.2f}x over one-shot connections "
        f"(threshold {_MIN_SPEEDUP:g}x)"
    )
