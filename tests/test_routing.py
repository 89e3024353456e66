"""Tests for IVF-style centroid shard routing.

The load-bearing guarantee is *exact-mode bit-identity*: a routed query
must return byte-for-byte the answer an unrouted scan returns, ties
included, on any store — including adversarial geometries (near
collinear rows, exact duplicates straddling shard boundaries) where a
sloppy bound would prune a true neighbour.  ``nprobe`` mode is the
explicit recall trade and is tested for its contract instead: the
probed set is exactly the nearest-centroid shards, and a routing-less
store refuses the spec loudly.

Staleness is the second contract: a routing table describes exactly one
shard layout, and any append, delete, or re-compact must stop it being
used before the mutation can be observed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    DistanceService,
    ExecutionPolicy,
    MaintenancePolicy,
    RadiusQuery,
    RoutingSpec,
    ShardRouting,
    ShardedSketchStore,
    StoreMaintainer,
    TopKQuery,
    build_shard_routing,
    compact_store,
    decode_query,
    encode_query,
    kmeans_centroids,
    read_manifest,
)
from repro.serving.routing import assign_rows, default_cluster_count
from repro.serving.serialization import (
    SerializationError,
    read_routing_blob,
    write_routing_blob,
)

_CONFIG = SketchConfig(input_dim=48, epsilon=6.0, output_dim=24, sparsity=4, seed=11)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _clustered_store(sk, *, n_per=150, n_centers=5, capacity=64, seed=0, noise_rng=1):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_centers, 48)) * 8
    data = np.concatenate([c + rng.normal(size=(n_per, 48)) for c in centers])
    store = ShardedSketchStore(shard_capacity=capacity)
    store.add_batch(sk.sketch_batch(data, noise_rng=noise_rng))
    store.compact(routing=True, routing_seed=3)
    return store, centers


def _shard_views(shard_values):
    """One f8 ShardView per array of rows, each its own single-shard store."""
    config = dataclasses.replace(_CONFIG, output_dim=shard_values[0].shape[1], sparsity=1)
    template = PrivateSketcher(config).sketch_batch(np.zeros((1, 48)), noise_rng=0)[0:0]
    views = []
    for values in shard_values:
        store = ShardedSketchStore(shard_capacity=len(values), storage="f8")
        store.add_batch(dataclasses.replace(template, values=values))
        views.extend(store.snapshot())
    return views


def _query(sk, point, noise_rng=2):
    return sk.sketch_batch(np.atleast_2d(point), noise_rng=noise_rng)


def _assert_bit_identical(store, query_batch, k=10):
    routed = DistanceService(store)
    unrouted = DistanceService(store, policy=ExecutionPolicy(routing=False))
    r = routed.execute(TopKQuery(queries=query_batch, k=k))
    u = unrouted.execute(TopKQuery(queries=query_batch, k=k))
    assert r.payload == u.payload
    return r, u


class TestKMeans:
    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(200, 8))
        a = kmeans_centroids(rows, 6, seed=4)
        b = kmeans_centroids(rows, 6, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_cluster_count_clamped_to_rows(self):
        rows = np.random.default_rng(1).normal(size=(3, 4))
        assert kmeans_centroids(rows, 10, seed=0).shape == (3, 4)

    def test_identical_rows_collapse(self):
        rows = np.ones((20, 4))
        centroids = kmeans_centroids(rows, 4, seed=0)
        np.testing.assert_allclose(centroids, 1.0)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="zero rows"):
            kmeans_centroids(np.empty((0, 4)), 2)

    def test_covering_radius_contains_every_row(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(500, 16)) * 100
        routing = build_shard_routing(_shard_views([rows]))
        np.testing.assert_array_equal(routing.centroids[0], rows.mean(axis=0))
        dists = np.linalg.norm(rows - routing.centroids[0], axis=1)
        assert (dists <= routing.radii[0]).all()

    def test_default_cluster_count(self):
        assert default_cluster_count(0, 64) == 1
        assert default_cluster_count(64, 64) == 1
        assert default_cluster_count(65, 64) == 2


class TestRoutingSpec:
    def test_rejects_non_integral_nprobe(self):
        for bad in (True, 1.5, "2"):
            with pytest.raises(ValueError):
                RoutingSpec(nprobe=bad)
        with pytest.raises(ValueError):
            RoutingSpec(nprobe=0)

    def test_queries_validate_routing(self):
        sk = _sketcher()
        q = _query(sk, np.zeros(48))
        with pytest.raises(ValueError, match="RoutingSpec"):
            TopKQuery(queries=q, k=1, routing={"nprobe": 2})
        with pytest.raises(ValueError, match="RoutingSpec"):
            RadiusQuery(query=q, radius_sq=1.0, routing=3)


class TestExactModeBitIdentity:
    def test_clustered_store(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        for i, c in enumerate(centers):
            r, _ = _assert_bit_identical(store, _query(sk, c, noise_rng=10 + i))
            total = r.stats.shards_visited + r.stats.shards_pruned
            assert total == store.n_shards
            assert r.stats.shards_routed <= r.stats.shards_pruned

    def test_near_collinear_rows(self):
        # rows along one line: centroid balls overlap heavily and the
        # k-th boundary is crowded with near-ties — the bound must keep
        # every shard that could hold a winner
        sk = _sketcher()
        t = np.linspace(-50, 50, 400)[:, np.newaxis]
        direction = np.ones((1, 48)) / np.sqrt(48)
        data = t * direction + np.random.default_rng(3).normal(size=(400, 48)) * 1e-6
        store = ShardedSketchStore(shard_capacity=32)
        store.add_batch(sk.sketch_batch(data, noise_rng=4))
        store.compact(routing=True, routing_seed=0)
        for s in (-49.7, 0.0, 12.3):
            _assert_bit_identical(store, _query(sk, s * direction[0], noise_rng=5))

    def test_duplicate_rows_across_shards(self):
        # the same *released* batch stored three times: exact ties whose
        # resolution (global position) must survive routing — skipping
        # the shard holding an earlier duplicate would silently reorder
        # the answer
        sk = _sketcher()
        rng = np.random.default_rng(6)
        base = rng.normal(size=(40, 48))
        batch = sk.sketch_batch(base, noise_rng=7)
        store = ShardedSketchStore(shard_capacity=16)
        for copy in range(3):
            store.add_batch(batch, labels=range(copy * 40, copy * 40 + 40))
        store.compact(routing=True, routing_seed=1)
        r, u = _assert_bit_identical(store, _query(sk, base[5], noise_rng=8), k=9)
        estimates = [est for _, est in r.payload[0]]
        labels = [label for label, _ in r.payload[0]]
        assert len(set(estimates)) < len(estimates)  # genuine ties present
        for i in range(len(estimates) - 1):
            if estimates[i] == estimates[i + 1]:
                # equal estimates resolve by global position: the three
                # copies of a row are 40 apart, earlier copy first
                assert labels[i] < labels[i + 1]

    def test_radius_query_bit_identical(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        q = _query(sk, centers[2])
        probe = DistanceService(store).execute(TopKQuery(queries=q, k=20))
        radius_sq = probe.payload[0][-1][1]
        routed = DistanceService(store).execute(
            RadiusQuery(query=q, radius_sq=radius_sq)
        )
        unrouted = DistanceService(
            store, policy=ExecutionPolicy(routing=False)
        ).execute(RadiusQuery(query=q, radius_sq=radius_sq))
        assert routed.payload == unrouted.payload
        assert routed.stats.shards_routed > 0  # far clusters provably out

    def test_policy_switch_disables_exact_stage(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        off = DistanceService(store, policy=ExecutionPolicy(routing=False))
        r = off.execute(TopKQuery(queries=_query(sk, centers[0]), k=5))
        assert r.stats.shards_routed == 0

    def test_quantised_store_routed_exact(self):
        # the gamma envelope widens the bound on f4 stores; identity
        # must hold against the same-storage unrouted scan
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        store.compact(storage="f4", routing=True, routing_seed=3)
        _assert_bit_identical(store, _query(sk, centers[1], noise_rng=9))


class TestNeverPrunesTrueTopK:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        k=st.integers(min_value=1, max_value=8),
        spread=st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_centroid_ball_bound_is_sound(self, seed, k, spread):
        # pure-geometry property: for random row sets and any clustered
        # split, the routing lower bound never exceeds the true distance
        # of any row in the shard — so thresholding at the k-th best can
        # never prune a true top-k member
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(60, 6)) * spread
        n_clusters = int(rng.integers(1, 6))
        centroids = kmeans_centroids(rows, n_clusters, seed=seed)
        assign = assign_rows(rows, centroids)
        shard_values = [rows[assign == j] for j in range(centroids.shape[0])]
        shard_values = [v for v in shard_values if v.shape[0]]
        routing = build_shard_routing(_shard_views(shard_values))
        queries = rng.normal(size=(3, 6)) * spread
        sq_q = np.einsum("ij,ij->i", queries, queries)
        correction = float(rng.normal()) * 0.1
        bounds = routing.lower_bounds(
            queries, sq_q, np.sqrt(sq_q), correction
        )
        for i, values in enumerate(shard_values):
            diff = queries[:, np.newaxis, :] - values[np.newaxis, :, :]
            true_est = np.einsum("qrd,qrd->qr", diff, diff) - correction
            assert (bounds[:, i] <= true_est.min(axis=1) + 1e-12).all()


class TestNprobe:
    def test_visits_exactly_the_probed_shards(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        svc = DistanceService(store)
        q = _query(sk, centers[0])
        r = svc.execute(TopKQuery(queries=q, k=5, routing=RoutingSpec(nprobe=2)))
        assert r.stats.shards_visited <= 2
        assert r.stats.shards_visited + r.stats.shards_pruned == store.n_shards
        assert r.stats.shards_routed >= store.n_shards - 2

    def test_full_nprobe_recovers_exact_answer(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        svc = DistanceService(store)
        q = _query(sk, centers[3])
        exact = svc.execute(TopKQuery(queries=q, k=10))
        full = svc.execute(
            TopKQuery(queries=q, k=10, routing=RoutingSpec(nprobe=store.n_shards))
        )
        assert exact.payload == full.payload

    def test_high_recall_on_clustered_data(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        svc = DistanceService(store)
        q = _query(sk, centers[2])
        exact = {l for l, _ in svc.execute(TopKQuery(queries=q, k=10)).payload[0]}
        # the default cluster count splits each of the 5 input clusters
        # over ~2-3 shards, so probing 4 shards covers a neighbourhood
        probed = {
            l
            for l, _ in svc.execute(
                TopKQuery(queries=q, k=10, routing=RoutingSpec(nprobe=4))
            ).payload[0]
        }
        assert len(exact & probed) / 10 >= 0.9

    def test_routingless_store_rejects_nprobe(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=32)
        store.add_batch(sk.sketch_batch(np.ones((50, 48)), noise_rng=1))
        svc = DistanceService(store)
        with pytest.raises(ValueError, match="no .*routing"):
            svc.execute(
                TopKQuery(queries=_query(sk, np.ones(48)), k=3, routing=RoutingSpec(nprobe=1))
            )

    def test_radius_nprobe(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        svc = DistanceService(store)
        q = _query(sk, centers[1])
        exact = svc.execute(RadiusQuery(query=q, radius_sq=50.0))
        probed = svc.execute(
            RadiusQuery(query=q, radius_sq=50.0, routing=RoutingSpec(nprobe=store.n_shards))
        )
        assert exact.payload == probed.payload


class TestStaleness:
    def test_append_invalidates(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        assert store.routing is not None
        store.add_batch(sk.sketch_batch(centers[:1], noise_rng=9))
        assert store.routing is None
        # exact queries silently fall back; nprobe refuses
        svc = DistanceService(store)
        r = svc.execute(TopKQuery(queries=_query(sk, centers[0]), k=3))
        assert r.stats.shards_routed == 0
        with pytest.raises(ValueError, match="no .*routing"):
            svc.execute(
                TopKQuery(
                    queries=_query(sk, centers[0]), k=3, routing=RoutingSpec(nprobe=1)
                )
            )

    def test_delete_invalidates(self):
        sk = _sketcher()
        store, _ = _clustered_store(sk)
        assert store.routing is not None
        store.delete([0])
        assert store.routing is None

    def test_unclustered_recompact_drops_table(self):
        sk = _sketcher()
        store, _ = _clustered_store(sk)
        store.compact()
        assert store.routing is None

    def test_reclustering_restores_table(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        store.delete([3])
        assert store.routing is None
        store.compact(routing=True, routing_seed=3)
        assert store.routing is not None
        _assert_bit_identical(store, _query(sk, centers[0]))

    def test_shard_sizes_pin_layout(self):
        routing = build_shard_routing(_shard_views([np.ones((4, 3)), np.zeros((2, 3))]))
        assert routing.matches([4, 2])
        assert not routing.matches([4, 3])
        assert not routing.matches([4, 2, 1])


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        store.save(tmp_path / "store")
        for mmap in (False, True):
            loaded = ShardedSketchStore.load(tmp_path / "store", mmap=mmap)
            table = loaded.routing
            assert table is not None
            np.testing.assert_array_equal(table.centroids, store.routing.centroids)
            np.testing.assert_array_equal(table.radii, store.routing.radii)
            assert table.shard_sizes == store.routing.shard_sizes
            _assert_bit_identical(loaded, _query(sk, centers[0]))

    def test_stale_table_not_persisted(self, tmp_path):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        store.add_batch(sk.sketch_batch(centers[:1], noise_rng=9))
        store.save(tmp_path / "store")
        manifest = read_manifest(tmp_path / "store")
        assert "routing" not in manifest
        assert ShardedSketchStore.load(tmp_path / "store").routing is None

    def test_tampered_blob_rejected(self, tmp_path):
        sk = _sketcher()
        store, _ = _clustered_store(sk)
        store.save(tmp_path / "store")
        manifest = read_manifest(tmp_path / "store")
        blob = tmp_path / "store" / manifest.get("shards_dir", "") / manifest["routing"]["file"]
        blob.write_bytes(blob.read_bytes().replace(b'"radii"', b'"RADII"'))
        with pytest.raises(SerializationError):
            ShardedSketchStore.load(tmp_path / "store")

    def test_blob_roundtrip_and_digest(self, tmp_path):
        routing = build_shard_routing(
            _shard_views([np.ones((4, 3)), np.full((2, 3), 2.0)])
        )
        path = tmp_path / "routing.json"
        digest = write_routing_blob(
            path, routing.to_payload(), routing.centroids, routing.radii
        )
        payload, centroids, radii = read_routing_blob(path, digest)
        restored = ShardRouting.from_payload(payload, centroids, radii)
        np.testing.assert_array_equal(restored.centroids, routing.centroids)
        np.testing.assert_array_equal(restored.radii, routing.radii)
        assert restored.shard_sizes == routing.shard_sizes
        with pytest.raises(SerializationError, match="digest"):
            read_routing_blob(path, "0" * 64)


class TestWire:
    def test_routing_spec_roundtrips(self):
        sk = _sketcher()
        q = _query(sk, np.zeros(48))
        for query in (
            TopKQuery(queries=q, k=3, routing=RoutingSpec(nprobe=4)),
            RadiusQuery(query=q, radius_sq=2.0, routing=RoutingSpec(nprobe=1)),
        ):
            decoded = decode_query(encode_query(query))
            assert decoded.routing == query.routing

    def test_absent_spec_stays_absent(self):
        sk = _sketcher()
        q = _query(sk, np.zeros(48))
        encoded = encode_query(TopKQuery(queries=q, k=3))
        assert b'"routing"' not in encoded
        assert decode_query(encoded).routing is None

    def test_stats_field_roundtrips(self):
        from repro.serving.wire import decode_result, encode_result
        from repro.serving import QueryResult, QueryStats

        stats = QueryStats(shards_visited=2, shards_pruned=5, shards_routed=4)
        blob = encode_result(QueryResult(payload=[[]], stats=stats), "top_k")
        assert decode_result(blob).stats.shards_routed == 4


class TestDiskCompaction:
    def test_disk_matches_in_memory(self, tmp_path):
        sk = _sketcher()
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(4, 48)) * 8
        data = np.concatenate([c + rng.normal(size=(100, 48)) for c in centers])
        batch = sk.sketch_batch(data, noise_rng=1)

        mem = ShardedSketchStore(shard_capacity=64)
        mem.add_batch(batch)
        mem.save(tmp_path / "store")
        summary = compact_store(tmp_path / "store", routing=True, routing_seed=3)
        assert summary["routing"] == default_cluster_count(len(data), 64)

        mem.compact(routing=True, routing_seed=3)
        loaded = ShardedSketchStore.load(tmp_path / "store")
        np.testing.assert_allclose(
            loaded.routing.centroids, mem.routing.centroids
        )
        np.testing.assert_allclose(loaded.routing.radii, mem.routing.radii)
        assert loaded.routing.shard_sizes == mem.routing.shard_sizes
        q = _query(sk, centers[1])
        disk = DistanceService(loaded).execute(TopKQuery(queries=q, k=10))
        in_mem = DistanceService(mem).execute(TopKQuery(queries=q, k=10))
        assert disk.payload == in_mem.payload

    def test_policy_skips_partial_shards_on_routed_store(self, tmp_path):
        sk = _sketcher()
        store, _ = _clustered_store(sk)
        store.save(tmp_path / "store")
        compact_store(tmp_path / "store", routing=True, routing_seed=3)
        manifest = read_manifest(tmp_path / "store")
        assert manifest["routing"]  # clustered layouts keep partial shards
        assert MaintenancePolicy().plan(manifest) is None

    def test_policy_preserves_routing_across_compaction(self, tmp_path):
        sk = _sketcher()
        store, _ = _clustered_store(sk)
        store.save(tmp_path / "store")
        compact_store(tmp_path / "store", routing=True, routing_seed=3)
        manifest = dict(read_manifest(tmp_path / "store"))
        manifest["tombstones"] = [0, 1]
        action = MaintenancePolicy().plan(manifest)
        assert action is not None and action["routing"] is True

    def test_routed_policy_clusters_unrouted_store(self):
        manifest = {
            "n_rows": 100,
            "n_shards": 9,
            "shard_capacity": 64,
            "storage": "f8",
            "tombstones": [],
        }
        action = MaintenancePolicy(routed=True).plan(manifest)
        assert action is not None and action["routing"] is True

    def test_rebuild_routing(self, tmp_path):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        store.add_batch(sk.sketch_batch(centers[:2], noise_rng=9))  # stale
        store.save(tmp_path / "store")
        assert "routing" not in read_manifest(tmp_path / "store")
        maintainer = StoreMaintainer(tmp_path / "store")
        summary = maintainer.rebuild_routing(seed=5)
        assert summary["reason"] == "rebuild routing"
        loaded = ShardedSketchStore.load(tmp_path / "store")
        assert loaded.routing is not None
        assert loaded.routing.n_rows == len(loaded)
        _assert_bit_identical(loaded, _query(sk, centers[0]))


class TestStatsInvariants:
    def test_visited_plus_pruned_is_total_in_every_mode(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        q = _query(sk, centers[0])
        for query in (
            TopKQuery(queries=q, k=5),
            TopKQuery(queries=q, k=5, routing=RoutingSpec(nprobe=2)),
            RadiusQuery(query=q, radius_sq=100.0),
            RadiusQuery(query=q, radius_sq=100.0, routing=RoutingSpec(nprobe=3)),
        ):
            stats = DistanceService(store).execute(query).stats
            assert stats.shards_visited + stats.shards_pruned == store.n_shards
            assert stats.shards_routed <= stats.shards_pruned

    def test_shards_routed_in_as_dict(self):
        from repro.serving import QueryStats

        assert "shards_routed" in QueryStats().as_dict()
        assert "shards_routed" in {
            f.name for f in dataclasses.fields(QueryStats)
        }
