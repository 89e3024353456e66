"""Tests for centroid shard routing and best-first shard visiting.

The load-bearing guarantee is *bit-identity*: a routed query must
return byte-for-byte the answer a full scan of every shard returns
(``tests.helpers.full_scan``), ties included, on any store — including
adversarial geometries (near collinear rows, exact duplicates
straddling shard boundaries) and multi-row batches, where a sloppy
bound would prune a true neighbour.
Best-first visiting is tested for the work it saves: a query next to
one cluster scans that cluster and nothing else.

Staleness is the second contract: a routing table describes exactly one
shard layout, and any append, delete, or re-compact must stop it being
used before the mutation can be observed.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    MaintenancePolicy,
    RadiusQuery,
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
from repro.serving.service import _shard_lower_bounds
from tests.helpers import full_scan

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


def _release(rows):
    """Sketch rows ``rows`` (24 coordinates each) as a release."""
    template = _sketcher().sketch_batch(np.zeros((1, 48)), noise_rng=0)[0:0]
    return dataclasses.replace(template, values=np.atleast_2d(rows))


def _layout(rows, *, table: bool):
    """An f8 store holding sketch rows ``rows`` as given, 8 to a shard.

    ``table=True`` attaches a routing table for exactly this layout
    (k-means would regroup the rows); ``table=False`` is the same layout
    without one, where the norm bound runs alone.
    """
    store = ShardedSketchStore(shard_capacity=8, storage="f8")
    store.add_batch(_release(rows))
    if table:
        store._routing = build_shard_routing(store.snapshot())
        assert store.routing is not None
    return store


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
    """The bounded top-k over ``store`` equals the full scan; its result."""
    query = TopKQuery(queries=query_batch, k=k)
    r = DistanceService(store).execute(query)
    assert r.payload == full_scan(store, query)
    return r


def _record_scans(monkeypatch, store):
    """The store's live views, and a list the kernel appends each scanned
    view's index to, in scan order."""
    views = [v for v in store.snapshot() if v.live_size]
    scanned = []
    real = estimators.cross_sq_distances_from_parts

    def recorded(rows, sq_rows, values, *args, **kwargs):
        scanned.extend(
            i for i, view in enumerate(views) if np.shares_memory(view.values, values)
        )
        return real(rows, sq_rows, values, *args, **kwargs)

    monkeypatch.setattr("repro.core.estimators.cross_sq_distances_from_parts", recorded)
    return views, scanned


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


class TestExactModeBitIdentity:
    def test_clustered_store(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        for i, c in enumerate(centers):
            r = _assert_bit_identical(store, _query(sk, c, noise_rng=10 + i))
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
        r = _assert_bit_identical(store, _query(sk, base[5], noise_rng=8), k=9)
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
        query = RadiusQuery(query=q, radius_sq=radius_sq)
        routed = DistanceService(store).execute(query)
        assert routed.payload == full_scan(store, query)
        assert routed.stats.shards_routed > 0  # far clusters provably out

    def test_quantised_store_routed_exact(self):
        # the gamma envelope widens the bound on f4 stores; identity
        # must hold against the full scan of the same f4 layout
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


class TestBestFirstVisiting:
    def test_query_next_to_a_centre_scans_one_cluster(self):
        # each input cluster holds 150 rows; the shards nearest the
        # query come first, fill the top-10 with its own cluster's rows,
        # and that cutoff then proves every other cluster hopeless
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        bounded = DistanceService(store, policy=ExecutionPolicy(workers=1))
        for c in centers:
            query = TopKQuery(queries=_query(sk, c), k=10)
            r = bounded.execute(query)
            assert r.payload == full_scan(store, query)
            assert r.stats.rows_scanned <= 150
            assert r.stats.shards_routed > 0

    def test_shards_run_in_ascending_order_of_least_bound(self, monkeypatch):
        # a two-row batch near two different centres: the least bound of
        # a shard is its bound for whichever row it is closer to
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        queries = sk.sketch_batch(centers[[1, 3]], noise_rng=2)
        svc = DistanceService(store, policy=ExecutionPolicy(workers=1))
        views, scanned = _record_scans(monkeypatch, store)
        r = svc.execute(TopKQuery(queries=queries, k=10))
        rows = np.asarray(queries.values, dtype=np.float64)
        sq_rows = np.einsum("ij,ij->i", rows, rows)
        bound_args = (
            sq_rows,
            np.sqrt(sq_rows),
            estimators.sq_distance_correction(store.metadata),
            svc._scan_gamma(),
        )
        least = np.fmax(
            _shard_lower_bounds(views, *bound_args),
            store.routing.lower_bounds(rows, *bound_args),
        ).min(axis=0)
        assert len(scanned) == r.stats.shards_visited < len(views)
        assert scanned[0] == int(np.argmin(least))
        assert np.all(np.diff(least[scanned]) >= 0)

    def test_radius_next_to_a_centre_scans_one_cluster(self):
        # a fixed radius at the 10th-best estimate prunes at least what
        # top-10's final cutoff prunes: only the query's own cluster
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        bounded = DistanceService(store, policy=ExecutionPolicy(workers=1))
        for c in centers:
            q = _query(sk, c)
            radius_sq = full_scan(store, TopKQuery(queries=q, k=10))[0][-1][1]
            query = RadiusQuery(query=q, radius_sq=radius_sq)
            r = bounded.execute(query)
            assert r.payload == full_scan(store, query)
            assert len(r.payload) >= 10
            assert r.stats.rows_scanned <= 150

    def test_k_beyond_the_store_scans_every_shard(self):
        # the running k-th best stays infinite until k estimates are in,
        # so a k the store cannot fill prunes nothing, in any order
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        query = TopKQuery(queries=_query(sk, centers[0]), k=len(store) + 1)
        r = DistanceService(store, policy=ExecutionPolicy(workers=1)).execute(query)
        assert r.payload == full_scan(store, query)
        assert len(r.payload[0]) == len(store)
        assert (r.stats.shards_visited, r.stats.shards_pruned) == (store.n_shards, 0)


class TestCrossHasNoCutoff:
    def test_cross_scans_every_shard_in_storage_order(self, monkeypatch):
        # a cross matrix needs every column: even on a routed store the
        # driver computes no bound, and each block lands at its offset
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        queries = sk.sketch_batch(centers[:3], noise_rng=2)

        def no_bounds(*args, **kwargs):
            raise AssertionError("a cross query computed a shard bound")

        monkeypatch.setattr("repro.serving.service._shard_lower_bounds", no_bounds)
        monkeypatch.setattr(ShardRouting, "lower_bounds", no_bounds)
        views, scanned = _record_scans(monkeypatch, store)
        r = DistanceService(store, policy=ExecutionPolicy(workers=1)).execute(
            CrossQuery(queries=queries)
        )
        assert scanned == list(range(len(views)))
        rows = np.asarray(queries.values, dtype=np.float64)
        sq_rows = np.einsum("ij,ij->i", rows, rows)
        correction = estimators.sq_distance_correction(store.metadata)
        blocks = [
            estimators.cross_sq_distances_from_parts(
                rows, sq_rows, view.values, view.sq_norms, correction
            )
            for view in views
        ]
        np.testing.assert_array_equal(r.payload, np.concatenate(blocks, axis=1))
        stats = r.stats
        assert (stats.shards_visited, stats.shards_pruned, stats.shards_routed) == (
            store.n_shards,
            0,
            0,
        )


class TestCombinedBound:
    def test_only_the_larger_bound_rules_the_spokes_out(self):
        # three shards of sketch rows: A near the origin, B near -s * e0
        # and C, eight spokes of length 60 around 50 * e0, orthogonal to
        # e0 — every row of C has squared norm 50^2 + 60^2 = s^2, and
        # C's ball (radius 60) holds the origin.  Query row 0 sits on A:
        # the ball cannot rule C out for it, the norm bound can.  Row 1
        # sits on B, at C's norm: the norm bound cannot, the ball can.
        # Only the larger of the two rules C out for the whole batch,
        # so C counts as pruned, not routed.
        eye = np.eye(24)
        near_b = -np.sqrt(6100.0) * eye[0]
        spokes = 50.0 * eye[0] + 60.0 * np.concatenate([eye[1:5], -eye[1:5]])
        jitter = np.random.default_rng(0).normal(size=(2, 8, 24)) * 0.01
        rows = np.concatenate([jitter[0], near_b + jitter[1], spokes])
        store = _layout(rows, table=True)
        queries = _release(np.stack([np.zeros(24), near_b]))
        query = TopKQuery(queries=queries, k=2)
        svc = DistanceService(store, policy=ExecutionPolicy(workers=1))

        # each bound alone, against each row's final k-th best estimate:
        # a shard whose bound is at or below it for some row is never
        # ruled out, whatever the cutoff was when the shard came up
        cross = svc.execute(CrossQuery(queries=queries)).payload
        cutoff = np.sort(cross, axis=1)[:, query.k - 1, np.newaxis]
        q = np.asarray(queries.values, dtype=np.float64)
        sq = np.einsum("ij,ij->i", q, q)
        args = (
            sq,
            np.sqrt(sq),
            estimators.sq_distance_correction(store.metadata),
            svc._scan_gamma(),
        )
        norm = _shard_lower_bounds(store.snapshot(), *args)
        ball = store.routing.lower_bounds(q, *args)
        assert (norm[:, 2] > cutoff[:, 0]).tolist() == [True, False]
        assert (ball[:, 2] > cutoff[:, 0]).tolist() == [False, True]
        assert not (norm > cutoff).all(axis=0).any()
        assert not (ball > cutoff).all(axis=0).any()
        assert (np.fmax(norm, ball) > cutoff).all(axis=0).tolist() == [False, False, True]

        # served: the same layout without its table runs the norm
        # bound alone and prunes nothing; with the table it prunes C
        plain = DistanceService(_layout(rows, table=False), ExecutionPolicy(workers=1))
        norm_only, both = plain.execute(query), svc.execute(query)
        assert norm_only.payload == both.payload == full_scan(store, query)
        assert norm_only.stats.shards_pruned == 0
        stats = both.stats
        assert (stats.shards_visited, stats.shards_pruned, stats.shards_routed) == (2, 1, 0)


class TestBoundedScanMatchesFullScan:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_centers=st.integers(min_value=1, max_value=5),
        scale=st.floats(min_value=0.0, max_value=12.0),
        capacity=st.integers(min_value=4, max_value=48),
        n_queries=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=12),
        storage=st.sampled_from(["f8", "f4"]),
        workers=st.sampled_from([1, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_row_batches(
        self, seed, n_centers, scale, capacity, n_queries, k, storage, workers
    ):
        # multi-row batches are where the larger of the two bounds can
        # prune a shard that neither bound prunes alone: each can spare
        # a different query row.  Answers must not notice either way.
        sk = _sketcher()
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(n_centers, 48)) * scale
        data = centers[rng.integers(n_centers, size=120)] + rng.normal(size=(120, 48))
        store = ShardedSketchStore(shard_capacity=capacity, storage=storage)
        store.add_batch(sk.sketch_batch(data, noise_rng=seed))
        store.compact(routing=True, routing_seed=seed)
        assert store.routing is not None
        near = centers[rng.integers(n_centers, size=n_queries)]
        queries = sk.sketch_batch(
            near + rng.normal(size=(n_queries, 48)) * 0.5, noise_rng=seed + 1
        )
        top = TopKQuery(queries=queries, k=k)
        want_top = full_scan(store, top)
        radius_sq = want_top[0][-1][1]
        radius = RadiusQuery(query=queries.row(0), radius_sq=radius_sq)
        with DistanceService(store, policy=ExecutionPolicy(workers=workers)) as bounded:
            for query, want in ((top, want_top), (radius, full_scan(store, radius))):
                got = bounded.execute(query)
                assert got.payload == want
                stats = got.stats
                assert stats.shards_visited + stats.shards_pruned == store.n_shards
                assert stats.shards_routed <= stats.shards_pruned


class TestStaleness:
    def test_append_invalidates(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        assert store.routing is not None
        store.add_batch(sk.sketch_batch(centers[:1], noise_rng=9))
        assert store.routing is None
        # queries silently fall back to the norm bound alone
        svc = DistanceService(store)
        r = svc.execute(TopKQuery(queries=_query(sk, centers[0]), k=3))
        assert r.stats.shards_routed == 0

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
    def test_legacy_routing_key_is_ignored(self):
        # an older peer may still send a routing object; it decodes to
        # the exact query, whose answer equals the one sent without it
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        q = _query(sk, centers[0])
        for query in (
            TopKQuery(queries=q, k=3),
            RadiusQuery(query=q, radius_sq=50.0),
        ):
            envelope = json.loads(encode_query(query))
            assert "routing" not in envelope
            envelope["routing"] = {"nprobe": 1}
            decoded = decode_query(json.dumps(envelope).encode())
            svc = DistanceService(store)
            assert svc.execute(decoded).payload == svc.execute(query).payload

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


class TestCompactionIsAllOrNothing:
    """A compaction that cannot finish leaves the store as it found it.

    Routing over a row with a NaN or infinite coordinate is refused
    before anything changes, in memory and on disk, with the count of
    such rows; any other fault mid-rewrite puts the in-memory store back.
    """

    @staticmethod
    def _odd_store(odd):
        sk = _sketcher()
        batch = sk.sketch_batch(np.random.default_rng(5).standard_normal((40, 48)), noise_rng=1)
        values = batch.values.copy()
        values[17, 3] = odd
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(dataclasses.replace(
            batch, values=values, labels=tuple(f"row-{i}" for i in range(40))
        ))
        store.delete(["row-2", "row-30"])
        return sk, store

    @staticmethod
    def _state(store, sk):
        query = TopKQuery(queries=_query(sk, np.ones(48)), k=5)
        top = DistanceService(store, ExecutionPolicy(workers=1)).execute(query).payload
        return (len(store), store.n_shards, store.labels, store.tombstones,
                store.generation, store.storage.name, store.routing, top)

    @pytest.mark.parametrize("odd", [np.nan, np.inf, -np.inf])
    def test_in_memory_routing_refuses_non_finite_rows(self, odd):
        sk, store = self._odd_store(odd)
        before = self._state(store, sk)
        with pytest.raises(ValueError, match=r"1 live row\(s\) hold NaN or infinite.*delete"):
            store.compact(storage="f4", routing=True)
        assert self._state(store, sk) == before
        store.delete(["row-17"])
        store.compact(routing=True)  # the advised fix
        assert store.routing is not None and len(store) == 37

    @pytest.mark.parametrize("odd", [np.nan, np.inf])
    def test_on_disk_routing_refuses_non_finite_rows(self, tmp_path, odd):
        sk, store = self._odd_store(odd)
        store.save(tmp_path / "store")
        files = sorted(p.relative_to(tmp_path) for p in (tmp_path / "store").rglob("*"))
        manifest = read_manifest(tmp_path / "store")
        before = self._state(ShardedSketchStore.load(tmp_path / "store"), sk)
        with pytest.raises(ValueError, match=r"1 live row\(s\) hold NaN or infinite"):
            compact_store(tmp_path / "store", routing=True)
        assert sorted(p.relative_to(tmp_path) for p in (tmp_path / "store").rglob("*")) == files
        assert read_manifest(tmp_path / "store") == manifest
        assert self._state(ShardedSketchStore.load(tmp_path / "store"), sk) == before

    def test_a_fault_mid_rewrite_restores_the_store(self, monkeypatch):
        sk, store = self._odd_store(1.0)
        before = self._state(store, sk)
        fill, calls = ShardedSketchStore._fill, []

        def failing_fill(self, values):
            calls.append(len(values))
            if len(calls) == 2:
                raise MemoryError("out of memory mid-rewrite")
            return fill(self, values)

        monkeypatch.setattr(ShardedSketchStore, "_fill", failing_fill)
        with pytest.raises(MemoryError):
            store.compact(storage="f4", routing=2)
        monkeypatch.undo()
        assert self._state(store, sk) == before


class TestStatsInvariants:
    def test_visited_plus_pruned_is_total_in_every_mode(self):
        sk = _sketcher()
        store, centers = _clustered_store(sk)
        q = _query(sk, centers[0])
        for query in (
            TopKQuery(queries=q, k=5),
            RadiusQuery(query=q, radius_sq=100.0),
        ):
            stats = DistanceService(store).execute(query).stats
            assert stats.shards_visited + stats.shards_pruned == store.n_shards
            assert stats.shards_routed <= stats.shards_pruned

    def test_routed_counts_what_the_ball_bound_alone_prunes(self):
        # four clusters of eight rows at 40 * e_j share one norm, so the
        # norm bound rules nothing out: the same layout without its
        # table prunes nothing, and with it every skip is the ball's
        eye = np.eye(24)
        jitter = np.random.default_rng(1).normal(size=(4, 8, 24)) * 0.01
        rows = np.concatenate([40.0 * eye[j] + jitter[j] for j in range(4)])
        q = _release(40.0 * eye[0])
        routed = DistanceService(_layout(rows, table=True), ExecutionPolicy(workers=1))
        plain = DistanceService(_layout(rows, table=False), ExecutionPolicy(workers=1))
        for query in (
            TopKQuery(queries=q, k=5),
            RadiusQuery(query=q, radius_sq=100.0),
        ):
            ball = routed.execute(query).stats
            assert ball.shards_routed == ball.shards_pruned == 3
            norm = plain.execute(query).stats
            assert (norm.shards_pruned, norm.shards_routed) == (0, 0)

    def test_shards_routed_in_as_dict(self):
        from repro.serving import QueryStats

        assert "shards_routed" in QueryStats().as_dict()
        assert "shards_routed" in {
            f.name for f in dataclasses.fields(QueryStats)
        }
