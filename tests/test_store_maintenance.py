"""Store persistence hardening: atomic saves, mmap loads, compact/merge.

Regression coverage for the persistence bugfixes (a ``save`` corrupting
the existing store, stale shard files surviving an overwrite) plus the
larger-than-RAM machinery: lazy memory-mapped shard loading,
compaction and merging.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    PairwiseQuery,
    RadiusQuery,
    SerializationError,
    ShardedSketchStore,
    TopKQuery,
)
from repro.serving import serialization
from repro.serving.serialization import read_manifest, shard_dir
from tests.helpers import (
    execute_cross as _cross,
    execute_top_k as _top_k,
    full_scan,
    storage_roundtrip,
)

_CONFIG = SketchConfig(input_dim=128, epsilon=8.0, output_dim=64, sparsity=4, seed=11)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 128)), noise_rng=seed, labels=labels)


def _assert_same_store(a: ShardedSketchStore, b: ShardedSketchStore) -> None:
    assert len(a) == len(b)
    assert a.labels == b.labels
    stacked_a = np.concatenate([a.shard_values(i) for i in range(a.n_shards)])
    stacked_b = np.concatenate([b.shard_values(i) for i in range(b.n_shards)])
    np.testing.assert_array_equal(stacked_a, stacked_b)


class TestAtomicSave:
    def test_overwrite_leaves_no_stale_shards(self, tmp_path):
        # regression: the PR-2 save wrote shards in place, so saving a
        # 3-shard store over a 5-shard directory left shard-0000{3,4}
        # behind — and a subsequent load picked up a corrupted mixture
        sk = _sketcher()
        big = ShardedSketchStore(shard_capacity=4)
        big.add_batch(_batch(sk, 18, 1))  # 5 shards
        big.save(tmp_path / "store")
        root = tmp_path / "store"
        assert len(list(shard_dir(root, read_manifest(root)).glob("shard-*.skb"))) == 5
        small = ShardedSketchStore(shard_capacity=8)
        small.add_batch(_batch(sk, 10, 2))  # 2 shards
        small.save(root)
        names = sorted(p.name for p in shard_dir(root, read_manifest(root)).iterdir())
        assert names == ["shard-00000.skb", "shard-00001.skb"]
        _assert_same_store(ShardedSketchStore.load(root), small)

    def test_failed_save_preserves_existing_store(self, tmp_path, monkeypatch):
        # regression: a crash mid-save must not corrupt the store that
        # was already on disk
        sk = _sketcher()
        original = ShardedSketchStore(shard_capacity=4)
        original.add_batch(_batch(sk, 10, 3))
        original.save(tmp_path / "store")
        on_disk = (tmp_path / "store").glob("**/*")
        before = {p: p.read_bytes() for p in on_disk if p.is_file()}

        calls = {"n": 0}
        real = serialization.StreamingBatchWriter.append

        def explode_on_second(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk full")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(
            serialization.StreamingBatchWriter, "append", explode_on_second
        )
        doomed = ShardedSketchStore(shard_capacity=4)
        doomed.add_batch(_batch(sk, 12, 4))
        with pytest.raises(OSError, match="disk full"):
            doomed.save(tmp_path / "store")
        monkeypatch.undo()

        after = {
            p: p.read_bytes() for p in (tmp_path / "store").glob("**/*") if p.is_file()
        }
        assert after == before  # bit-for-bit untouched
        _assert_same_store(ShardedSketchStore.load(tmp_path / "store"), original)
        # and no staging litter next to the store
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]

    def test_mmap_readers_survive_a_save_over_their_directory(self, tmp_path):
        # a reader attached to the replaced generation keeps answering
        # bit-identically, even from shards it had not touched yet: the
        # save publishes a new generation and retains the old one
        sk = _sketcher()
        root = tmp_path / "store"
        old = ShardedSketchStore(shard_capacity=4)
        old.add_batch(_batch(sk, 14, 5))
        old.save(root)
        queries = _batch(sk, 3, 6)
        want = _cross(DistanceService(ShardedSketchStore.load(root)), queries)
        reader = ShardedSketchStore.load(root, mmap=True)
        service = DistanceService(reader)
        service.execute(PairwiseQuery(indices=(0, 1)))  # maps shard 0 only
        assert not any(shard.materialized for shard in reader._shards[1:])
        new = ShardedSketchStore(shard_capacity=4)
        new.add_batch(_batch(sk, 14, 7))  # same shape, different rows
        new.save(root)
        np.testing.assert_array_equal(_cross(service, queries), want)
        _assert_same_store(ShardedSketchStore.load(root), new)

    def test_save_creates_parent_directories(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 3, 1))
        store.save(tmp_path / "a" / "b" / "store")
        assert len(ShardedSketchStore.load(tmp_path / "a" / "b" / "store")) == 3


class TestMmapLoad:
    def _saved(self, tmp_path, n=30, shard_capacity=8, labels=()):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=shard_capacity)
        store.add_batch(_batch(sk, n, 7, labels=labels))
        store.save(tmp_path / "store")
        return sk, store

    def test_mmap_roundtrip_bit_exact(self, tmp_path):
        sk, store = self._saved(tmp_path)
        mapped = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        assert len(mapped) == len(store)
        assert mapped.labels == store.labels
        for i in range(store.n_shards):
            np.testing.assert_array_equal(
                np.asarray(mapped.shard_values(i)), store.shard_values(i)
            )
            np.testing.assert_array_equal(
                mapped.shard_sq_norms(i), store.shard_sq_norms(i)
            )

    def test_shards_materialise_lazily(self, tmp_path):
        sk, store = self._saved(tmp_path)
        mapped = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        assert all(not shard.materialized for shard in mapped._shards)
        # touching rows of shard 0 must not map the other shards
        DistanceService(mapped).execute(PairwiseQuery(indices=(0, 1)))
        assert mapped._shards[0].materialized
        assert all(not shard.materialized for shard in mapped._shards[1:])

    def test_prefilter_skips_mapped_shards_without_reading_them(self, tmp_path):
        # regression: norm bounds used to be computed from the values,
        # so the prefilter itself materialised every mapped shard; they
        # now ride in the shard headers and skipped shards stay unread
        sk = _sketcher()
        base = _batch(sk, 32, 0)
        # well inside every storage spec's range (f2 overflows at ~6.5e4)
        values = np.zeros((32, 64))
        values[:, 0] = np.repeat(np.arange(4.0) * 1e4, 8)  # separated norms
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(dataclasses.replace(base, values=values, labels=()))
        store.save(tmp_path / "separated")
        query = dataclasses.replace(base.row(0), values=np.zeros(64))

        mapped = ShardedSketchStore.load(tmp_path / "separated", mmap=True)
        got = _top_k(DistanceService(mapped, ExecutionPolicy()), query, 3)
        assert got == full_scan(store, TopKQuery(queries=query, k=3))[0]
        assert mapped._shards[0].materialized  # the only shard that can win
        assert all(not shard.materialized for shard in mapped._shards[1:])

    def test_mmap_store_answers_identical_queries(self, tmp_path):
        sk, store = self._saved(tmp_path)
        eager = DistanceService(ShardedSketchStore.load(tmp_path / "store"))
        with DistanceService(
            ShardedSketchStore.load(tmp_path / "store", mmap=True),
            ExecutionPolicy(workers=4),
        ) as mapped:
            queries = _batch(sk, 3, 70)
            assert (
                mapped.execute(TopKQuery(queries=queries, k=6)).payload
                == eager.execute(TopKQuery(queries=queries, k=6)).payload
            )
            np.testing.assert_array_equal(_cross(mapped, queries), _cross(eager, queries))
            query = queries.row(0)
            cutoff = float(np.median(_cross(eager, query)))
            typed = RadiusQuery(query=query, radius_sq=cutoff)
            assert mapped.execute(typed).payload == eager.execute(typed).payload

    def test_appends_after_mmap_load_go_to_new_shards(self, tmp_path):
        sk, store = self._saved(tmp_path)
        mapped = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        extra = _batch(sk, 5, 90)
        mapped.add_batch(extra)
        assert len(mapped) == len(store) + 5
        # the mapped shards are sealed: new rows landed in a fresh shard
        assert mapped.shard_sizes()[-1] == 5
        np.testing.assert_array_equal(
            mapped.shard_values(mapped.n_shards - 1),
            storage_roundtrip(mapped, extra.values),
        )
        # and a mixed mapped+in-memory store keeps serving correctly
        combined = ShardedSketchStore(shard_capacity=8)
        combined.add_batch(_batch(sk, 30, 7))
        combined.add_batch(extra)
        want = _top_k(DistanceService(combined), extra.row(0), 4)
        assert _top_k(DistanceService(mapped), extra.row(0), 4) == want

    def test_mmap_store_resaves_faithfully(self, tmp_path):
        sk, store = self._saved(tmp_path, labels=tuple(range(30)))
        mapped = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        mapped.save(tmp_path / "copy")
        _assert_same_store(ShardedSketchStore.load(tmp_path / "copy"), store)

    def test_mmap_save_over_own_directory(self, tmp_path):
        sk, store = self._saved(tmp_path)
        mapped = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        mapped.add_batch(_batch(sk, 4, 91))
        mapped.save(tmp_path / "store")  # reads the maps it is replacing
        reloaded = ShardedSketchStore.load(tmp_path / "store")
        assert len(reloaded) == 34
        _assert_same_store(reloaded, mapped)


class TestCompact:
    def test_compact_packs_partial_shards(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(_batch(sk, 30, 7))
        store.save(tmp_path / "store")
        # mmap-loading preserves the on-disk shard layout (8/8/8/6);
        # appending then yields partial shards mid-store
        mapped = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        mapped.add_batch(_batch(sk, 5, 8))
        assert mapped.shard_sizes() == [8, 8, 8, 6, 5]
        query = sk.sketch(np.ones(128), noise_rng=9)
        before = _top_k(DistanceService(mapped), query, 10)
        labels = mapped.labels
        mapped.compact()
        assert mapped.shard_sizes() == [8, 8, 8, 8, 3]
        assert mapped.labels == labels
        after = _top_k(DistanceService(mapped), query, 10)
        # the repack regroups the rows into other shards, and each
        # estimate's bits depend only on its two rows
        assert after == before

    def test_compact_empty_store_is_noop(self):
        store = ShardedSketchStore()
        assert store.compact() is store
        assert store.n_shards == 0

    def test_compact_then_save_roundtrips(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8)
        for seed in range(4):
            store.add_batch(_batch(sk, 5, seed))  # 5+5+5+5 across shards
        store.compact().save(tmp_path / "store")
        loaded = ShardedSketchStore.load(tmp_path / "store")
        assert loaded.shard_sizes() == [8, 8, 4]
        _assert_same_store(loaded, store)


class TestMerge:
    def test_merge_concatenates_stores_in_order(self):
        sk = _sketcher()
        batch = _batch(sk, 24, 7, labels=tuple(range(24)))
        parts = []
        for lo, hi in ((0, 9), (9, 14), (14, 24)):
            part = ShardedSketchStore(shard_capacity=4)
            part.add_batch(batch[lo:hi], labels=list(range(lo, hi)))
            parts.append(part)
        merged = ShardedSketchStore.merge(*parts)
        reference = ShardedSketchStore(shard_capacity=4)
        reference.add_batch(batch)
        _assert_same_store(merged, reference)
        query = sk.sketch(np.zeros(128), noise_rng=1)
        assert _top_k(DistanceService(merged), query, 6) == _top_k(
            DistanceService(reference), query, 6
        )

    def test_merge_skips_empty_stores_and_respects_capacity(self):
        sk = _sketcher()
        a = ShardedSketchStore(shard_capacity=4)
        a.add_batch(_batch(sk, 6, 1))
        merged = ShardedSketchStore.merge(
            ShardedSketchStore(), a, shard_capacity=16
        )
        assert merged.shard_capacity == 16
        assert merged.shard_sizes() == [6]
        assert len(merged) == 6

    def test_merge_rejects_incompatible_stores(self):
        a = ShardedSketchStore()
        a.add_batch(_batch(_sketcher(), 3, 1))
        other = PrivateSketcher(dataclasses.replace(_CONFIG, seed=12))
        b = ShardedSketchStore()
        b.add_batch(
            other.sketch_batch(
                np.random.default_rng(0).standard_normal((3, 128)), noise_rng=0
            )
        )
        with pytest.raises(ValueError, match="different configurations"):
            ShardedSketchStore.merge(a, b)

    def test_merge_requires_a_store(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardedSketchStore.merge()

    def test_merge_mmap_stores_fuses_on_disk_data(self, tmp_path):
        sk = _sketcher()
        halves = []
        for i, (lo, hi) in enumerate(((0, 13), (13, 30))):
            part = ShardedSketchStore(shard_capacity=8)
            part.add_batch(_batch(sk, 30, 7)[lo:hi], labels=list(range(lo, hi)))
            part.save(tmp_path / f"part{i}")
            halves.append(ShardedSketchStore.load(tmp_path / f"part{i}", mmap=True))
        merged = ShardedSketchStore.merge(*halves)
        merged.save(tmp_path / "merged")
        loaded = ShardedSketchStore.load(tmp_path / "merged")
        assert loaded.labels == list(range(30))
        reference = ShardedSketchStore(shard_capacity=8)
        reference.add_batch(_batch(sk, 30, 7), labels=list(range(30)))
        _assert_same_store(loaded, reference)
