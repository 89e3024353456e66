"""Quickstart: privately estimate the distance between two vectors.

Two parties each hold a private vector.  They agree (publicly) on a
sketch configuration — which fixes the random projection — sketch their
vectors locally with secret noise, and publish the sketches.  Anyone
can then estimate the squared Euclidean distance between the originals.

The second half shows the batch API: a party holding a whole matrix of
vectors sketches every row in one vectorised pass (`sketch_batch`) and
an analyst estimates all pairwise distances at once
(`pairwise_sq_distances`).

The final sections show the serving workflow: accumulate releases into
a `ShardedSketchStore`, persist it to disk (atomically), reload it in a
fresh process — either eagerly or as lazy memory maps for stores larger
than RAM — and answer typed queries (`TopKQuery`, `RadiusQuery`, ...)
through `DistanceService.execute()`, serially or across a thread pool
of shard workers; shrink the store 2-8x with quantised shard storage
(`compact(storage="f4")`); route queries past most shards entirely with
centroid routing (`compact(routing=True)`), which visits shards
best-first and keeps answers bit-identical; then serve the same store
**over the network** with `SketchQueryServer` and query it through a
`DistanceClient`, which speaks the same `execute()` protocol and
returns bit-identical results.  The "keep the store healthy" section
shows the LSM maintenance lifecycle: tombstone a release
(`delete(labels)` — no privacy-budget refund, see
`repro.serving.store`), let a background `MaintenancePolicy` compact
the store disk-to-disk into a new generation (peak RSS stays O(block),
not O(store)), and watch a `watch_interval=` server hot-swap the new
generation in with zero downtime.  The last section scales the server
out: multi-process `--processes N` workers with a `--cache` release
cache on one port, and a `RouterService` scatter-gathering across
several store servers while keeping answers bit-identical.

Going deeper: docs/ARCHITECTURE.md maps the layers this tour walks
through (and where the privacy budget is actually spent),
docs/FORMATS.md specifies the on-disk container and manifest, and
docs/OPERATIONS.md is the production runbook (env vars, CLI flags,
maintenance).

Run:  python examples/quickstart.py
"""

import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    MaintenancePolicy,
    PrivateSketcher,
    RouterService,
    ShardedSketchStore,
    SketchConfig,
    SketchQueryServer,
    StoreMaintainer,
    TopKQuery,
    compact_store,
)


def main() -> None:
    rng = np.random.default_rng(7)
    dim = 4096

    # The two private inputs (imagine them on different machines).
    x = 10.0 * rng.standard_normal(dim)
    y = x + 0.6 * rng.standard_normal(dim)
    true_sq_distance = float((x - y) @ (x - y))

    # Public configuration: pure epsilon-DP via the paper's SJLT+Laplace
    # sketch.  The seed is public; the noise is not.
    config = SketchConfig(
        input_dim=dim,
        epsilon=4.0,          # per-release privacy budget
        alpha=0.3, beta=0.05,  # JL accuracy target -> k, s are derived
    )
    sketcher = PrivateSketcher(config)
    print(f"transform: {config.transform}  k={sketcher.output_dim}  s={sketcher.sparsity}")
    print(f"noise:     {sketcher.noise.name} (chosen by the Note 5 rule)")
    print(f"guarantee: {sketcher.guarantee} per release")

    # Each party sketches independently.
    sketch_x = sketcher.sketch(x, label="party-x")
    sketch_y = sketcher.sketch(y, label="party-y")

    # Sketches are plain bytes: safe to publish, store, or send.
    blob = sketch_x.to_bytes()
    print(f"sketch size: {len(blob)} bytes (vs {8 * dim} for the raw vector)")

    estimate = sketcher.estimate_sq_distance(sketch_x, sketch_y)
    sigma = sketcher.theoretical_variance(true_sq_distance) ** 0.5
    print(f"\ntrue  ||x - y||^2 = {true_sq_distance:10.3f}")
    print(f"est.  ||x - y||^2 = {estimate:10.3f}   (theory std ~ {sigma:.3f})")
    print(f"|error| / std     = {abs(estimate - true_sq_distance) / sigma:10.3f}")

    # -- batch mode: matrices in, distance matrices out --------------------
    # One party holds several vectors; sketch them all in one vectorised
    # pass (one independent noise draw per row) and publish the batch.
    crowd = 10.0 * rng.standard_normal((6, dim))
    batch = sketcher.sketch_batch(crowd, labels=tuple(f"row-{i}" for i in range(6)))

    # Anyone can now answer matrix-shaped queries from the release alone.
    pairwise = sketcher.pairwise_sq_distances(batch)       # (6, 6) estimates
    norms = sketcher.sq_norms(batch)                       # (6,) estimates
    true_pairwise = np.sum((crowd[:, None, :] - crowd[None, :, :]) ** 2, axis=-1)
    off_diagonal = ~np.eye(6, dtype=bool)
    rel_err = np.abs(pairwise - true_pairwise)[off_diagonal] / true_pairwise[off_diagonal]
    print(f"\nbatch of {len(batch)} rows -> pairwise matrix {pairwise.shape}")
    print(f"median relative error (off-diagonal): {np.median(rel_err):.3f}")
    print(f"squared-norm estimates: {np.round(norms, 1)}")

    # -- serving mode: build store -> persist -> reload -> query -----------
    # Releases accumulate into a sharded store (appends copy only the new
    # rows; per-shard norms are cached for queries), which persists as a
    # directory of versioned binary shards.  save() is atomic — a crash
    # mid-save never corrupts an existing store — and labels round-trip
    # with their types (integers stay integers).
    store = ShardedSketchStore(shard_capacity=4)
    store.add_batch(batch)                       # the release published above
    query = sketcher.sketch(crowd[0], label="query")
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "sketch-store"
        store.save(store_dir)                    # manifest + one blob per shard
        reloaded = ShardedSketchStore.load(store_dir)  # e.g. in another process

        # Every query is a typed object answered by one entry point:
        # execute() returns the payload plus stats (shards visited /
        # pruned by the norm-bound prefilter, rows scanned, wall time).
        service = DistanceService(reloaded)      # or session.serve(batch)
        result = service.execute(TopKQuery(queries=query, k=3))
        neighbors = result.payload[0]
        print(f"\nstore: {len(reloaded)} rows in {reloaded.n_shards} shards, "
              f"saved + reloaded bit-exactly")
        print("3 nearest stored rows to a fresh sketch of row-0 "
              "(label, estimated squared distance):")
        for label, estimate in neighbors:
            print(f"  {label:>6}  {estimate:10.3f}")
        print(f"stats: {result.stats.shards_visited} shards visited, "
              f"{result.stats.shards_pruned} pruned, "
              f"{result.stats.rows_scanned} rows scanned")

        # -- larger-than-RAM + parallel: mmap-load and fan out queries -----
        # mmap=True attaches each shard as a lazy memory map: nothing is
        # read until a query touches the shard, the OS pages rows in and
        # out on demand, and whole shards the norm-bound prefilter rules
        # out are never read at all.  An ExecutionPolicy with workers=N
        # dispatches per-shard distance blocks across a thread pool (BLAS
        # releases the GIL) — answers are bit-identical to serial, just
        # faster on multi-core machines.
        mapped = ShardedSketchStore.load(store_dir, mmap=True)
        with DistanceService(mapped, ExecutionPolicy(workers=4)) as parallel:
            parallel_hits = parallel.execute(TopKQuery(queries=query, k=3)).payload[0]
            assert parallel_hits == neighbors    # identical answers
        print(f"mmap-loaded store answers identically "
              f"({mapped.resident_shards}/{mapped.n_shards} shards touched "
              f"lazily, 4 query workers)")

        # -- shrink your store: quantised shard storage --------------------
        # The same accuracy-for-compactness dial the paper turns at the
        # sketch level exists at the storage level: build at full
        # precision, then compact(storage=...) re-encodes the shards as
        # f4 (half size), f2 (quarter) or scalar-quantised int8 with a
        # per-shard scale (eighth).  Queries run unchanged through the
        # same ShardView interface — f4 shards are scanned by a native
        # float32 GEMM — within the documented error envelope of
        # repro.theory.quantisation.  At 105k rows x k=64
        # (benchmarks/bench_quantised_store.py): f4 is exactly 2.0x
        # smaller on disk and in mapped memory with top-10 recall 1.000
        # vs the f8 ranking and ~1.2x faster scans; int8 is 8.0x
        # smaller at recall ~0.97.
        shrunk_dir = Path(tmp) / "sketch-store-f4"
        full = ShardedSketchStore.load(store_dir, mmap=True)
        full_bytes = full.nbytes
        full.compact(storage="f4").save(shrunk_dir)
        shrunk = ShardedSketchStore.load(shrunk_dir, mmap=True)  # mmap-serve it
        f4_hits = DistanceService(shrunk).execute(
            TopKQuery(queries=query, k=3)
        ).payload[0]
        assert [label for label, _ in f4_hits] == [label for label, _ in neighbors]
        print(f"f4 store: {shrunk.nbytes} stored-value bytes "
              f"(vs {full_bytes} at f8, {full_bytes / shrunk.nbytes:.1f}x), "
              f"same top-3 {shrunk.describe()['storage']}-served neighbors")

        # -- route your queries: sub-linear search over clustered data -----
        # compact(routing=True) reorders rows by k-means cluster and
        # persists one centroid + covering radius per shard.  Queries
        # then visit shards nearest-ball first, and a shard is pruned
        # only when the centroid-ball bound *proves* it cannot beat the
        # current top-k — answers stay bit-identical, while the rows
        # scanned drop to about the query's own cluster
        # (benchmarks/bench_routed_search.py gates <= 10% at 105k rows).
        #
        # Routing is pure post-processing of released sketches — zero
        # extra privacy budget (docs/ARCHITECTURE.md spells out why).
        routing_rng = np.random.default_rng(11)
        clustered_cfg = SketchConfig(input_dim=64, epsilon=4.0,
                                     output_dim=32, sparsity=4)
        clustered_sk = PrivateSketcher(clustered_cfg)
        centers = 10.0 * routing_rng.standard_normal((8, 64))
        points = (centers[routing_rng.integers(8, size=4000)]
                  + routing_rng.standard_normal((4000, 64)))
        clustered = ShardedSketchStore(shard_capacity=512)
        clustered.add_batch(clustered_sk.sketch_batch(points, noise_rng=1))
        routed_store = clustered.compact(routing=True)  # k-means + radii
        probe = clustered_sk.sketch_batch(
            centers[:1] + routing_rng.standard_normal((1, 64)), noise_rng=2
        )
        with DistanceService(
            routed_store, ExecutionPolicy(routing=False)
        ) as flat_svc:                           # routing off: norm bound only
            t0 = time.perf_counter()
            flat = flat_svc.execute(TopKQuery(queries=probe, k=10))
            flat_s = time.perf_counter() - t0
        with DistanceService(routed_store) as routed_svc:
            t0 = time.perf_counter()
            exact = routed_svc.execute(TopKQuery(queries=probe, k=10))
            exact_s = time.perf_counter() - t0
        assert exact.payload == flat.payload     # routing is a proof
        print(f"\nrouted store: {routed_store.n_shards} shards, "
              f"{routed_store.describe()['routing']['n_clusters']} clusters")
        print(f"routing off:  top-10 in {flat_s * 1e3:.2f} ms, "
              f"{flat.stats.rows_scanned}/{flat.stats.rows_total} rows scanned")
        print(f"routed:       bit-identical top-10 in {exact_s * 1e3:.2f} ms, "
              f"{exact.stats.shards_routed} shards route-pruned, "
              f"{exact.stats.rows_scanned}/{exact.stats.rows_total} rows scanned")

        # -- keep the store healthy: delete -> policy -> live swap ---------
        # A long-lived store needs upkeep, and all of it is pure
        # post-processing of already-released sketches — zero extra
        # privacy budget.  Three moves:
        #
        # 1. Tombstone deletion.  delete(labels) marks rows dead; they
        #    vanish from every query immediately and are physically
        #    dropped at the next compaction.  Deletion never *refunds*
        #    budget — the noise was sampled and the budget spent at
        #    release time; a tombstone is an availability control, not
        #    a privacy rewind (full argument in repro.serving.store).
        #
        # 2. Streaming maintenance.  compact_store(dir) rewrites the
        #    saved directory disk-to-disk in bounded row blocks, so the
        #    peak RSS of maintaining a 100-GB store is a few MB, and
        #    publishes the rewrite atomically as a numbered *generation*
        #    sibling dir — a crash mid-compaction leaves the old
        #    generation untouched.  A MaintenancePolicy automates the
        #    LSM lifecycle (hot f8 write tier -> cold f4/int8 read tier,
        #    thresholds on tombstones/rows/bytes) and a StoreMaintainer
        #    thread runs it in the background.
        #
        # 3. Live swap.  A server started with watch_interval=SECONDS
        #    (CLI: --watch) polls the manifest and hot-swaps each new
        #    generation in with zero downtime: in-flight queries finish
        #    on the snapshot they started with, caches invalidate
        #    through the generation-aware store token.
        healthy_dir = Path(tmp) / "sketch-store-live"
        store.save(healthy_dir)
        with SketchQueryServer.from_store_dir(
            healthy_dir, port=0, watch_interval=0.05
        ).start() as live_server, DistanceClient(live_server.url) as live_client:
            before = live_client.health()
            living = ShardedSketchStore.load(healthy_dir)
            living.delete(["row-3"])             # tombstone, no budget refund
            living.save(healthy_dir)
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # cold_rows is tiny here so the demo store crosses the
            # hot->cold threshold; production values are millions
            policy = MaintenancePolicy(cold_storage="f4", min_tombstones=1,
                                       cold_rows=5)
            with StoreMaintainer(healthy_dir, policy, interval=60.0) as maintainer:
                summary = maintainer.run_once()  # or .start() a background thread
            rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            deadline = time.monotonic() + 30.0
            # the watcher picks every published generation up (the
            # re-save above was one too); wait for the compacted one
            while live_server.service.store.generation < summary["generation"]:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"no swap: {live_server.watch_error!r}")
                time.sleep(0.02)
            after = live_client.health()
            print(f"\nmaintenance: gen {before['generation']} -> "
                  f"{after['generation']}, {before['rows']} -> {after['rows']} "
                  f"rows ({summary['tombstones_dropped']} tombstone dropped, "
                  f"now {summary['storage']}), served across the swap with "
                  f"zero downtime; compaction RSS growth "
                  f"{max(0, rss_after - rss_before)} KB (disk-to-disk, "
                  f"O(block) however large the store)")

        # -- serve over the network ----------------------------------------
        # The saved store can be served to remote analysts with zero extra
        # dependencies.  From a shell you would run
        #
        #     python -m repro.serving.server --store sketch-store --port 8790
        #
        # Here we start the same server in-process; DistanceClient
        # implements the same execute() protocol as DistanceService, so
        # local and remote are interchangeable — and the payloads are
        # bit-identical, not approximately equal.  The client keeps its
        # TCP connection alive and reuses it across requests (a bounded
        # pool, thread-safe), retrying once on a stale connection.
        with SketchQueryServer.from_store_dir(store_dir, port=0).start() as server:
            client = DistanceClient(server.url)
            remote = client.execute(TopKQuery(queries=query, k=3))
            assert remote.payload[0] == neighbors   # bit-identical over HTTP
            print(f"served at {server.url}: {client.health()['rows']} rows; "
                  f"remote top-3 identical to local "
                  f"(server-side {remote.stats.elapsed_seconds * 1e3:.2f} ms, "
                  f"{client.connections_opened} TCP connection)")

        # -- scale out the server ------------------------------------------
        # Three independent dials, all preserving bit-identical answers:
        #
        # 1. More processes on one machine.
        #
        #        python -m repro.serving.server --store sketch-store \
        #            --port 8790 --processes 4 --cache 1024
        #
        #    forks 4 SO_REUSEPORT workers on the same port — the kernel
        #    spreads connections across them, each mmaps the same shard
        #    files (shared read-only through the page cache), so memory
        #    stays ~one store regardless of process count.  --cache N
        #    adds a bounded LRU of result envelopes per worker: a repeat
        #    of an identical query is served from memory.  Caching costs
        #    zero extra privacy budget — the noise was sampled when the
        #    sketches were *released*, so every query (first, cached, or
        #    retried) is post-processing of the same published data.
        #
        # 2. More machines.  A RouterService scatters each query across
        #    several store servers and merges the partial results with
        #    the same shard-ordered reduction the single-store engine
        #    uses — so the merged ranking is bit-identical to one big
        #    store.  It speaks execute() like everything else, so a
        #    SketchQueryServer can serve *it*, giving remote analysts
        #    one endpoint over the whole fleet.
        # split on the store's shard boundary: each backend's scan
        # blocks then have exactly the shapes the single store's shards
        # do, keeping the merged ranking bit-identical rather than
        # merely close (BLAS kernels may round differently for
        # different block shapes)
        half = store.shard_capacity
        part_a = ShardedSketchStore(shard_capacity=store.shard_capacity)
        part_b = ShardedSketchStore(shard_capacity=store.shard_capacity)
        part_a.add_batch(batch[:half])
        part_b.add_batch(batch[half:])
        backends = [
            SketchQueryServer(DistanceService(part), port=0).start()
            for part in (part_a, part_b)
        ]
        try:
            router = RouterService(
                [DistanceClient(b.url) for b in backends], close_backends=True
            )
            with SketchQueryServer(router, port=0).start() as front:
                with DistanceClient(front.url) as analyst:
                    routed = analyst.execute(TopKQuery(queries=query, k=3))
                    assert routed.payload[0] == neighbors  # merged == one store
                    print(f"router over {analyst.health()['backends']} backends "
                          f"at {front.url}: merged top-3 bit-identical")
        finally:
            for backend in backends:
                backend.close()


if __name__ == "__main__":
    main()
