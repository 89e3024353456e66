"""Tests for the serving layer: sharded store + distance service.

Queries go through the typed query plane (``execute()`` +
:mod:`repro.serving.queries`); the deprecated method-per-query shims
have their own bit-equality suite in ``tests/test_queries.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import estimators
from repro.core.protocol import SketchingSession
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    PairwiseQuery,
    RadiusQuery,
    ShardedSketchStore,
    TopKQuery,
)
from repro.serving.service import stable_smallest_k
from tests.helpers import (
    envelope_atol,
    execute_top_k as _top_k,
    shard_file,
    storage_roundtrip,
)

_CONFIG = SketchConfig(input_dim=128, epsilon=8.0, output_dim=64, sparsity=4, seed=11)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 128)), noise_rng=seed, labels=labels)


class TestStableSmallestK:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            values = rng.integers(0, 6, size=37).astype(float)  # plenty of ties
            for k in (1, 3, 17, 37, 50):
                expected = np.argsort(values, kind="stable")[:k]
                np.testing.assert_array_equal(stable_smallest_k(values, k), expected)

    def test_ties_at_boundary_prefer_earlier_index(self):
        values = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(stable_smallest_k(values, 2), [1, 2])

    def test_nonpositive_k_selects_nothing(self):
        values = np.array([3.0, 1.0, 2.0])
        assert stable_smallest_k(values, 0).size == 0
        assert stable_smallest_k(values, -2).size == 0


class TestShardedStore:
    def test_appends_fill_shards_in_order(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(_batch(sk, 5, 1))
        store.add_batch(_batch(sk, 7, 2))  # splits 3 / 4 across shards
        assert len(store) == 12
        assert store.shard_sizes() == [8, 4]
        assert store.labels == list(range(12))

    def test_append_does_not_recopy_existing_shards(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=512)
        store.add_batch(_batch(sk, 512, 1))  # fills shard 0 exactly
        sealed = store._shards[0]._buffer
        before = store.shard_values(0).copy()
        store.add_batch(_batch(sk, 300, 2))
        store.add_batch(_batch(sk, 300, 3))
        assert store._shards[0]._buffer is sealed  # never recopied
        np.testing.assert_array_equal(store.shard_values(0), before)

    def test_single_adds_grow_amortised(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=4096)
        rng = np.random.default_rng(0)
        buffers = set()
        for i in range(100):
            store.add(sk.sketch(rng.standard_normal(128), noise_rng=i))
            buffers.add(id(store._shards[0]._buffer))
        # geometric doubling: ~log2(100) reallocations, not one per add
        assert len(buffers) <= 9

    def test_values_match_insertion_order(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=4)
        batches = [_batch(sk, 3, seed) for seed in range(4)]
        for batch in batches:
            store.add_batch(batch)
        stacked = np.concatenate([b.values for b in batches])
        got = np.concatenate([store.shard_values(i) for i in range(store.n_shards)])
        np.testing.assert_array_equal(got, storage_roundtrip(store, stacked))

    def test_cached_sq_norms_are_exact(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=16)
        store.add_batch(_batch(sk, 25, 5))
        for i in range(store.n_shards):
            # the cache is float64 over the decoded rows, whatever the
            # storage spec scans as
            values = np.asarray(store.shard_values(i), dtype=np.float64)
            np.testing.assert_allclose(
                store.shard_sq_norms(i), np.einsum("ij,ij->i", values, values)
            )

    def test_single_sketch_adds(self):
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add(sk.sketch(np.ones(128), noise_rng=0))
        store.add(sk.sketch(np.zeros(128), noise_rng=1), label="origin")
        assert len(store) == 2
        assert store.labels == [0, "origin"]

    def test_incompatible_release_rejected(self):
        store = ShardedSketchStore()
        store.add(_sketcher().sketch(np.ones(128), noise_rng=0))
        other = PrivateSketcher(dataclasses.replace(_CONFIG, seed=12))
        with pytest.raises(ValueError, match="different configurations"):
            store.add(other.sketch(np.ones(128), noise_rng=0))

    def test_label_count_validated(self):
        sk = _sketcher()
        store = ShardedSketchStore()
        with pytest.raises(ValueError, match="labels"):
            store.add_batch(_batch(sk, 3, 1), labels=["a", "b"])

    def test_to_batch_roundtrip(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=4)
        batch = _batch(sk, 10, 3, labels=tuple(f"r{i}" for i in range(10)))
        store.add_batch(batch)
        merged = store.to_batch()
        np.testing.assert_array_equal(merged.values, storage_roundtrip(store, batch.values))
        assert merged.labels == tuple(f"r{i}" for i in range(10))
        assert merged.config_digest == batch.config_digest

    def test_to_batch_preserves_label_objects(self):
        # only save() stringifies; in-memory accessors keep labels as-is
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=2)
        store.add_batch(_batch(sk, 3, 1), labels=[7, None, ("a", 1)])
        assert store.to_batch().labels == (7, None, ("a", 1))
        assert store.shard_batch(0).labels == (7, None)
        assert store.label(2) == ("a", 1)

    def test_shard_capacity_validated(self):
        with pytest.raises(ValueError):
            ShardedSketchStore(shard_capacity=0)


class TestStorePersistence:
    def test_save_load_bit_exact(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=6)
        store.add_batch(_batch(sk, 14, 7, labels=tuple(f"p{i}" for i in range(14))))
        store.save(tmp_path / "store")
        loaded = ShardedSketchStore.load(tmp_path / "store")
        assert len(loaded) == 14
        assert loaded.shard_sizes() == store.shard_sizes()
        assert loaded.labels == [f"p{i}" for i in range(14)]
        for i in range(store.n_shards):
            np.testing.assert_array_equal(loaded.shard_values(i), store.shard_values(i))

    def test_loaded_store_answers_identical_queries(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=6)
        store.add_batch(_batch(sk, 14, 7))
        store.save(tmp_path / "store")
        service = DistanceService(store)
        reloaded = DistanceService(ShardedSketchStore.load(tmp_path / "store"))
        query = sk.sketch(np.ones(128), noise_rng=9)
        # labels round-trip with their types: integer labels stay integers,
        # so the full (label, estimate) rankings are equal
        assert _top_k(reloaded, query, 5) == _top_k(service, query, 5)

    def test_integer_labels_survive_save_load(self, tmp_path):
        # regression: the PR-2 store stringified labels on save, so top_k
        # results changed type after a reload (2 became "2")
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=4)
        store.add_batch(_batch(sk, 9, 3))  # default labels: global positions
        store.save(tmp_path / "store")
        loaded = ShardedSketchStore.load(tmp_path / "store")
        assert loaded.labels == list(range(9))
        assert all(type(label) is int for label in loaded.labels)
        mixed = ShardedSketchStore(shard_capacity=4)
        mixed.add_batch(_batch(sk, 4, 5), labels=[0, ("a", 1), None, 2.5])
        mixed.save(tmp_path / "mixed")
        assert ShardedSketchStore.load(tmp_path / "mixed").labels == [
            0,
            ("a", 1),
            None,
            2.5,
        ]
        # np.arange labels (np.int64, not int) must come back as equal ints
        numeric = ShardedSketchStore(shard_capacity=4)
        numeric.add_batch(_batch(sk, 6, 8), labels=np.arange(10, 16))
        numeric.save(tmp_path / "numeric")
        reloaded = ShardedSketchStore.load(tmp_path / "numeric").labels
        assert reloaded == list(range(10, 16))
        assert all(type(label) is int for label in reloaded)

    def test_save_empty_store_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            ShardedSketchStore().save(tmp_path / "store")

    def test_save_zero_row_store_rejected(self, tmp_path):
        # a zero-row batch sets the metadata template but stores no rows;
        # saving would lose the metadata on reload, so it must refuse too
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 3, 1)[0:0])
        assert len(store) == 0 and store.metadata is not None
        with pytest.raises(ValueError, match="empty"):
            store.save(tmp_path / "store")

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedSketchStore.load(tmp_path / "nowhere")

    def test_load_rejects_malformed_manifest(self, tmp_path):
        import json

        from repro.serving import SerializationError

        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 3, 1))
        store.save(tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        good = json.loads(manifest_path.read_text())

        manifest_path.write_text("{not json")
        with pytest.raises(SerializationError, match="JSON"):
            ShardedSketchStore.load(tmp_path / "store")

        broken = dict(good)
        del broken["shard_capacity"]
        manifest_path.write_text(json.dumps(broken))
        with pytest.raises(SerializationError, match="missing required field"):
            ShardedSketchStore.load(tmp_path / "store")

    def test_load_rejects_swapped_shards(self, tmp_path):
        # shard blobs from a different config must not pass the manifest pin
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 4, 1))
        store.save(tmp_path / "store")
        other = PrivateSketcher(dataclasses.replace(_CONFIG, seed=12))
        rng = np.random.default_rng(2)
        foreign = ShardedSketchStore()
        foreign.add_batch(other.sketch_batch(rng.standard_normal((4, 128)), noise_rng=2))
        foreign.save(tmp_path / "foreign")
        shard_file(tmp_path / "store").write_bytes(
            shard_file(tmp_path / "foreign").read_bytes()
        )
        with pytest.raises(ValueError, match="swapped"):
            ShardedSketchStore.load(tmp_path / "store")


class TestDistanceService:
    def _service_and_batches(self, shard_capacity=5):
        sk = _sketcher()
        stored = _batch(sk, 17, 21)
        store = ShardedSketchStore(shard_capacity=shard_capacity)
        store.add_batch(stored)
        return sk, stored, DistanceService(store)

    def test_cross_matches_flat_estimator(self):
        # within the documented quantisation envelope of the store's
        # storage spec; for the default f8 store the envelope collapses
        # to ~1e-9 slack, keeping the full-precision assertion tight
        sk, stored, service = self._service_and_batches()
        queries = _batch(sk, 3, 22)
        want = estimators.cross_sq_distances(queries, stored)
        got = service.execute(CrossQuery(queries=queries)).payload
        atol = max(envelope_atol(service.store, queries.values, stored.values), 1e-9)
        np.testing.assert_allclose(got, want, atol=atol, rtol=0)

    def test_top_k_matches_full_sort(self):
        # the reference ranking comes from the service's own cross
        # matrix — the per-shard blocks are the same kernel on the same
        # decoded rows, so the comparison is exact at every storage spec
        sk, stored, service = self._service_and_batches()
        query = sk.sketch(np.arange(128, dtype=float), noise_rng=1)
        flat = service.execute(CrossQuery(queries=query)).payload[0]
        order = np.argsort(flat, kind="stable")[:6]
        # ordering is decided on the raw estimates; reported estimates
        # are clamped at zero (estimators.clamp_sq_estimates)
        expected = [
            (int(i), pytest.approx(max(float(flat[i]), 0.0), abs=1e-9)) for i in order
        ]
        assert _top_k(service, query, 6) == expected

    def test_top_k_batch_consistent_with_single(self):
        sk, _, service = self._service_and_batches()
        queries = _batch(sk, 4, 23)
        rows = service.execute(TopKQuery(queries=queries, k=3)).payload
        assert len(rows) == 4
        for row, query in zip(rows, queries):
            assert row == _top_k(service, query, 3)

    def test_radius_filters_and_sorts(self):
        # reference membership from the service's own cross matrix (the
        # same kernel bit-for-bit), so the filter/sort logic is checked
        # exactly at every storage spec
        sk, stored, service = self._service_and_batches()
        query = sk.sketch(np.ones(128), noise_rng=2)
        flat = service.execute(CrossQuery(queries=query)).payload[0]
        cutoff = float(np.median(flat))
        hits = service.execute(RadiusQuery(query=query, radius_sq=cutoff)).payload
        assert [l for l, _ in hits] == [
            int(i) for i in np.argsort(flat, kind="stable") if flat[i] <= cutoff
        ]
        estimates = [est for _, est in hits]
        assert estimates == sorted(estimates)
        assert all(est >= 0.0 for est in estimates)  # clamped payloads

    def test_pairwise_matches_flat_pairwise(self):
        # pairwise gathers the decoded rows in their scan dtype and runs
        # the one distance kernel on them, so the flat kernel over the
        # store's own rows, and the cross estimate for each pair, are
        # exact references at every storage spec
        sk, stored, service = self._service_and_batches()
        rows = np.concatenate([view.values for view in service.store.snapshot()])
        full = estimators.pairwise_sq_distances_from_values(
            rows, estimators.sq_distance_correction(service.store.metadata)
        )
        picks = [0, 5, 6, 16]  # spans all shards
        sub = service.execute(PairwiseQuery(indices=tuple(picks))).payload
        assert sub.tobytes() == full[np.ix_(picks, picks)].tobytes()
        cross = service.execute(CrossQuery(queries=service.store.to_batch()[picks]))
        block = cross.payload[:, picks]
        np.fill_diagonal(block, 0.0)
        assert sub.tobytes() == block.tobytes()
        np.testing.assert_array_equal(sub, sub.T)

    def test_pairwise_bounds_checked(self):
        _, _, service = self._service_and_batches()
        with pytest.raises(IndexError):
            service.execute(PairwiseQuery(indices=(0, 99)))

    def test_unpinned_empty_store_rejected_consistently(self):
        # a store that never saw a release has nothing to validate
        # queries against: every query kind refuses alike
        sk = _sketcher()
        service = DistanceService(ShardedSketchStore())
        query = sk.sketch(np.ones(128), noise_rng=0)
        for typed in (
            TopKQuery(queries=query),
            RadiusQuery(query=query, radius_sq=1.0),
            CrossQuery(queries=query),
        ):
            with pytest.raises(ValueError, match="empty"):
                service.execute(typed)

    def test_pinned_empty_store_validates_then_returns_empty(self):
        # regression: radius used to return [] before validation ran, so
        # incompatible queries slipped through silently on empty stores
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 3, 1)[0:0])  # zero rows, metadata pinned
        service = DistanceService(store)
        foreign = PrivateSketcher(dataclasses.replace(_CONFIG, seed=12)).sketch(
            np.ones(128), noise_rng=0
        )
        for typed in (
            TopKQuery(queries=foreign),
            RadiusQuery(query=foreign, radius_sq=1.0),
            CrossQuery(queries=foreign),
        ):
            with pytest.raises(ValueError, match="different configurations"):
                service.execute(typed)
        query = sk.sketch(np.ones(128), noise_rng=0)
        assert service.execute(RadiusQuery(query=query, radius_sq=1.0)).payload == []
        assert service.execute(TopKQuery(queries=query, k=3)).payload == [[]]
        assert service.execute(TopKQuery(queries=_batch(sk, 2, 2), k=3)).payload == [
            [],
            [],
        ]
        assert service.execute(CrossQuery(queries=query)).payload.shape == (1, 0)

    def test_k_validated_at_query_construction(self):
        with pytest.raises(ValueError, match="top"):
            TopKQuery(queries=None, k=0)
        with pytest.raises(ValueError, match="top"):
            TopKQuery(queries=None, k=2.5)

    def test_radius_validated_at_query_construction(self):
        with pytest.raises(ValueError, match="radius_sq"):
            RadiusQuery(query=None, radius_sq=-1.0)

    def test_execute_rejects_untyped_queries(self):
        sk, _, service = self._service_and_batches()
        with pytest.raises(TypeError, match="typed query"):
            service.execute(sk.sketch(np.ones(128), noise_rng=0))

    def test_incremental_adds_visible_to_service(self):
        sk, _, service = self._service_and_batches()
        before = len(service)
        service.store.add_batch(_batch(sk, 4, 30))
        assert len(service) == before + 4
        query = sk.sketch(np.ones(128), noise_rng=3)
        assert len(_top_k(service, query, before + 4)) == before + 4


class TestSessionServe:
    def test_serve_entry_point(self):
        session = SketchingSession(_CONFIG)
        party = session.create_party("alice", noise_seed=1)
        rng = np.random.default_rng(0)
        batch = party.release_batch(rng.standard_normal((6, 128)))
        service = session.serve(batch, shard_capacity=4)
        assert len(service) == 6
        assert service.store.n_shards == 2
        query = session.sketcher.sketch(rng.standard_normal(128), noise_rng=5)
        labels = [label for label, _ in _top_k(service, query, 6)]
        assert sorted(labels) == sorted(batch.labels)

    def test_serve_rejects_foreign_batches(self):
        session = SketchingSession(_CONFIG)
        other = PrivateSketcher(dataclasses.replace(_CONFIG, seed=12))
        foreign = other.sketch_batch(
            np.random.default_rng(0).standard_normal((3, 128)), noise_rng=1
        )
        with pytest.raises(ValueError, match="different"):
            session.serve(foreign)

    def test_serve_store_stays_pinned_after_construction(self):
        # the digest check lives in the store layer now: a foreign batch
        # appended *after* serve() must be rejected too, not just the
        # batches passed at construction time
        session = SketchingSession(_CONFIG)
        service = session.serve()
        assert service.store.expected_digest == _CONFIG.digest()
        other = PrivateSketcher(dataclasses.replace(_CONFIG, seed=12))
        foreign = other.sketch_batch(
            np.random.default_rng(0).standard_normal((3, 128)), noise_rng=1
        )
        with pytest.raises(ValueError, match="different"):
            service.store.add_batch(foreign)
