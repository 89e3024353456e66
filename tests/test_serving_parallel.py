"""The shard-parallel query plane: policies, the norm bound, concurrency.

The contract under test is strict: whatever the
:class:`~repro.serving.execution.ExecutionPolicy` — serial or a thread
pool of any size — every query type returns **bit-identical** results,
top-k and radius equal to a full scan of every shard
(``tests.helpers.full_scan``), and concurrent readers always observe a
consistent prefix of a store that a writer keeps appending to.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core import estimators
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    PairwiseQuery,
    RadiusQuery,
    ShardedSketchStore,
    TopKQuery,
)
from repro.core.sketch import PrivateSketcher, SketchConfig
from tests.helpers import (
    execute_cross as _cross,
    execute_radius as _radius,
    execute_top_k as _top_k,
    execute_top_k_batch as _top_k_batch,
    full_scan,
)

_CONFIG = SketchConfig(input_dim=128, epsilon=8.0, output_dim=64, sparsity=4, seed=11)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 128)), noise_rng=seed, labels=labels)


def _store(sk, n=60, shard_capacity=7, seed=21, routed=False):
    """``n`` random rows; ``routed`` regroups them by a routed compaction,
    so the centroid-ball bound joins the norm bound."""
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    store.add_batch(_batch(sk, n, seed))
    if routed:
        store.compact(routing=True, routing_seed=0)
    return store


class TestExecutionPolicy:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionPolicy(workers=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVING_WORKERS", raising=False)
        assert ExecutionPolicy.from_env() == ExecutionPolicy(workers=1)
        monkeypatch.setenv("REPRO_SERVING_WORKERS", "4")
        assert ExecutionPolicy.from_env() == ExecutionPolicy(workers=4)

    def test_default_service_policy_comes_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_WORKERS", "3")
        service = DistanceService(ShardedSketchStore())
        assert service.policy.workers == 3

    def test_malformed_env_worker_count_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_WORKERS", "four")
        with pytest.raises(ValueError, match="REPRO_SERVING_WORKERS"):
            ExecutionPolicy.from_env()

    def test_neighbor_index_releases_its_pool(self):
        from repro.core.knn import PrivateNeighborIndex

        sk = _sketcher()
        with PrivateNeighborIndex(
            shard_capacity=4, policy=ExecutionPolicy(workers=4)
        ) as index:
            index.add_batch(_batch(sk, 12, 1))
            serial = PrivateNeighborIndex(shard_capacity=4)
            serial.add_batch(_batch(sk, 12, 1))
            query = sk.sketch(np.ones(128), noise_rng=0)
            assert index.query(query, 5) == serial.query(query, 5)
            pool = index._service._pool
            assert pool is not None  # the parallel query spun it up
        assert index._service._pool is None  # context exit released it


class TestParallelSerialBitEquality:
    """Every policy must reproduce the full scan and the serial matrices exactly.

    Each test runs on the random store as stored, where neither bound
    skips a shard, and on a routed compaction of it, where the ball
    bound skips shards, so the pool merges a partial scan.
    """

    POLICIES = [
        ExecutionPolicy(workers=2),
        ExecutionPolicy(workers=4),
        ExecutionPolicy(workers=8),
        ExecutionPolicy(workers=1),
    ]
    LAYOUTS = pytest.mark.parametrize("routed", [False, True], ids=["unrouted", "routed"])

    @LAYOUTS
    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    def test_top_k_and_batch(self, policy, routed):
        sk = _sketcher()
        store = _store(sk, routed=routed)
        queries = _batch(sk, 5, 33)
        skipped = 0
        with DistanceService(store, policy) as service:
            for k in (1, 3, 11, 60, 100):
                top = TopKQuery(queries=queries, k=k)
                result = service.execute(top)
                assert result.payload == full_scan(store, top)
                skipped += result.stats.shards_routed
            single = queries.row(0)
            assert _top_k(service, single, 7) == full_scan(
                store, TopKQuery(queries=single, k=7)
            )[0]
        assert (skipped > 0) == routed  # only a routing table skips shards

    @LAYOUTS
    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    def test_radius(self, policy, routed):
        sk = _sketcher()
        store = _store(sk, routed=routed)
        query = sk.sketch(np.ones(128), noise_rng=3)
        flat = _cross(DistanceService(store, ExecutionPolicy(workers=1)), query)[0]
        skipped = 0
        with DistanceService(store, policy) as service:
            for cutoff in (0.0, float(np.min(flat)), float(np.median(flat)), 1e12):
                radius = RadiusQuery(query=query, radius_sq=cutoff)
                result = service.execute(radius)
                assert result.payload == full_scan(store, radius)
                skipped += result.stats.shards_routed
        assert (skipped > 0) == routed

    @LAYOUTS
    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    def test_cross_and_pairwise_submatrix(self, policy, routed):
        sk = _sketcher()
        store = _store(sk, routed=routed)
        serial = DistanceService(store, ExecutionPolicy(workers=1))
        queries = _batch(sk, 4, 9)
        picks = PairwiseQuery(indices=(0, 13, 14, 41, 59))
        with DistanceService(store, policy) as service:
            np.testing.assert_array_equal(
                _cross(service, queries), _cross(serial, queries)
            )
            np.testing.assert_array_equal(
                service.execute(picks).payload, serial.execute(picks).payload
            )

    def test_parallel_more_workers_than_shards(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=64)
        store.add_batch(_batch(sk, 10, 1))  # a single shard
        serial = DistanceService(store, ExecutionPolicy(workers=1))
        with DistanceService(store, ExecutionPolicy(workers=16)) as service:
            query = sk.sketch(np.zeros(128), noise_rng=0)
            assert _top_k(service, query, 5) == _top_k(serial, query, 5)


def _norm_separated_store(sk, scale=1e6):
    """Four shards whose rows sit at wildly different norms.

    Shard ``j`` holds rows near ``j * scale`` in the first sketch
    coordinate, so the reverse-triangle bound separates shards by
    ~``scale^2`` — any sane prefilter must skip the far ones.
    """
    base = _batch(sk, 32, 0)
    values = np.zeros((32, 64))
    values[:, 0] = np.repeat(np.arange(4.0) * scale, 8) + np.linspace(0, 1, 32)
    batch = dataclasses.replace(base, values=values, labels=())
    store = ShardedSketchStore(shard_capacity=8)
    store.add_batch(batch)
    query = dataclasses.replace(base.row(0), values=np.zeros(64))
    return store, query


class TestNormBoundPrefilter:
    def _counting(self, monkeypatch):
        calls = []
        real = estimators.cross_sq_distances_from_parts

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            "repro.core.estimators.cross_sq_distances_from_parts", counted
        )
        return calls

    def test_top_k_skips_hopeless_shards(self, monkeypatch):
        sk = _sketcher()
        store, query = _norm_separated_store(sk)
        top = TopKQuery(queries=query, k=3)
        want = full_scan(store, top)
        calls = self._counting(monkeypatch)
        got = DistanceService(store, ExecutionPolicy()).execute(top)
        assert got.payload == want  # the full scan's results...
        assert len(calls) < store.n_shards  # ...from strictly less work
        # the stats agree with the observed calls, and with the PR 3
        # monkeypatch counters: pruned + visited covers every shard
        assert got.stats.shards_visited == len(calls)
        assert got.stats.shards_pruned == store.n_shards - len(calls)

    def test_radius_skips_out_of_range_shards(self, monkeypatch):
        sk = _sketcher()
        store, query = _norm_separated_store(sk)
        cutoff = 1e9  # covers shard 0 only (others are ~1e12 away)
        radius = RadiusQuery(query=query, radius_sq=cutoff)
        want = full_scan(store, radius)
        calls = self._counting(monkeypatch)
        got = DistanceService(store, ExecutionPolicy()).execute(radius)
        assert got.payload == want
        assert len(calls) == 1
        assert got.stats.shards_visited == 1
        assert got.stats.shards_pruned == store.n_shards - 1

    def test_prefilter_never_changes_random_workloads(self):
        # property-style: across many random stores/queries/ks the
        # bounded answers equal the full scan's, ties included
        sk = _sketcher()
        rng = np.random.default_rng(7)
        for trial in range(10):
            store = _store(
                sk,
                n=int(rng.integers(5, 40)),
                shard_capacity=int(rng.integers(2, 9)),
                seed=100 + trial,
            )
            service = DistanceService(store, ExecutionPolicy())
            queries = _batch(sk, 3, 200 + trial)
            k = int(rng.integers(1, 8))
            assert _top_k_batch(service, queries, k) == full_scan(
                store, TopKQuery(queries=queries, k=k)
            )
            cutoff = float(np.median(_cross(service, queries.row(0))))
            assert _radius(service, queries.row(0), cutoff) == full_scan(
                store, RadiusQuery(query=queries.row(0), radius_sq=cutoff)
            )

    def test_bound_matrix_columns_match_single_shard_calls(self):
        # the norm bound is computed for all shards at once: column i,
        # for every query row, is exactly what shard i alone would get
        from repro.serving.service import _shard_lower_bounds

        sk = _sketcher()
        store, _ = _norm_separated_store(sk)
        views = store.snapshot()
        scales = np.array([[1.0], [1e3], [1e6]])  # inside, between, beyond shards
        rows = np.random.default_rng(3).normal(size=(3, 64)) * scales
        sq_rows = np.einsum("ij,ij->i", rows, rows)
        bound_args = (sq_rows, np.sqrt(sq_rows), 2.5, 1e-6)
        matrix = _shard_lower_bounds(views, *bound_args)
        assert matrix.shape == (3, len(views))
        for i, view in enumerate(views):
            np.testing.assert_array_equal(
                matrix[:, i], _shard_lower_bounds([view], *bound_args)[:, 0]
            )


class TestConcurrentAppendsDuringQueries:
    def test_readers_see_consistent_prefixes(self):
        sk = _sketcher()
        chunks = [_batch(sk, 25, 300 + i) for i in range(8)]
        full = ShardedSketchStore(shard_capacity=16)
        for chunk in chunks:
            full.add_batch(chunk)
        queries = _batch(sk, 2, 99)
        # ground truth: the cross matrix over the final store; any
        # consistent prefix of width w must equal its first w columns
        reference = _cross(
            DistanceService(full, ExecutionPolicy(workers=1)), queries
        )

        store = ShardedSketchStore(shard_capacity=16)
        store.add_batch(chunks[0])
        service = DistanceService(store, ExecutionPolicy(workers=4))
        errors: list[str] = []
        stop = threading.Event()

        def reader():
            # a snapshot may land mid-append (batches fill shards in
            # slices), so *any* width can be observed — but whatever the
            # width, the columns must equal the reference prefix exactly
            while not stop.is_set():
                got = _cross(service, queries)
                if got.tobytes() != reference[:, : got.shape[1]].tobytes():
                    errors.append(f"prefix of width {got.shape[1]} is inconsistent")
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for chunk in chunks[1:]:
                store.add_batch(chunk)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            service.close()
        assert errors == []
        np.testing.assert_array_equal(_cross(service, queries), reference)

    def test_top_k_during_appends_matches_a_prefix(self):
        sk = _sketcher()
        chunks = [_batch(sk, 10, 400 + i) for i in range(10)]
        full = ShardedSketchStore(shard_capacity=8)
        for chunk in chunks:
            full.add_batch(chunk)
        query = sk.sketch(np.ones(128), noise_rng=5)
        flat = _cross(DistanceService(full, ExecutionPolicy(workers=1)), query)[0]

        def expected(width, k):
            order = np.argsort(flat[:width], kind="stable")[:k]
            return [(int(i), max(float(flat[i]), 0.0)) for i in order]

        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(chunks[0])
        service = DistanceService(store, ExecutionPolicy(workers=2))
        results = []
        errors: list[str] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                got = _top_k(service, query, 5)
                results.append(got)
                if not any(got == expected(w, 5) for w in range(1, 101)):
                    errors.append(f"result matches no prefix: {got}")
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for chunk in chunks[1:]:
                store.add_batch(chunk)
        finally:
            stop.set()
            thread.join()
            service.close()
        assert errors == []
        assert results  # the reader actually ran
        assert _top_k(service, query, 5) == expected(100, 5)
