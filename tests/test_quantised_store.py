"""Quantised shard storage: specs, stores, persistence, maintenance.

The storage-layer behaviour contract: every
:class:`~repro.serving.storage.StorageSpec` serves through the
unchanged ``ShardView`` interface, persists its exact codes (format
v3), refuses to mix with other specs in ``merge()``, and reports its
footprint through ``describe()``.  The error-envelope *bounds* are
pinned separately by ``tests/test_quantised_properties.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    STORAGE_SPECS,
    DistanceService,
    SerializationError,
    ShardedSketchStore,
    StorageSpec,
    TopKQuery,
    wire,
)
from repro.serving.serialization import read_batch_info
from repro.serving.storage import _STORAGE_ENV
from tests.helpers import execute_top_k as _top_k, shard_file

_CONFIG = SketchConfig(input_dim=128, epsilon=8.0, output_dim=64, sparsity=4, seed=11)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 128)), noise_rng=seed, labels=labels)


class TestStorageSpec:
    def test_parse_names_and_instances(self):
        assert StorageSpec.parse("f4") is STORAGE_SPECS["f4"]
        assert StorageSpec.parse(STORAGE_SPECS["int8"]) is STORAGE_SPECS["int8"]
        assert [STORAGE_SPECS[n].itemsize for n in ("f8", "f4", "f2", "int8")] == [
            8, 4, 2, 1,
        ]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown storage spec"):
            StorageSpec.parse("f16")

    def test_env_default_strict(self, monkeypatch):
        monkeypatch.delenv(_STORAGE_ENV, raising=False)
        assert StorageSpec.from_env().name == "f8"
        monkeypatch.setenv(_STORAGE_ENV, "f2")
        assert StorageSpec.from_env().name == "f2"
        assert ShardedSketchStore().storage.name == "f2"
        monkeypatch.setenv(_STORAGE_ENV, "float32")  # garbage fails loudly
        with pytest.raises(ValueError, match="REPRO_STORE_DTYPE='float32'"):
            StorageSpec.from_env()
        with pytest.raises(ValueError, match="REPRO_STORE_DTYPE"):
            ShardedSketchStore()

    def test_explicit_storage_beats_env(self, monkeypatch):
        monkeypatch.setenv(_STORAGE_ENV, "f4")
        assert ShardedSketchStore(storage="int8").storage.name == "int8"

    def test_float_roundtrip_is_cast(self):
        rows = np.array([[0.1, -3.7, 1e-12]])
        np.testing.assert_array_equal(
            STORAGE_SPECS["f4"].roundtrip(rows), rows.astype(np.float32)
        )
        with pytest.raises(ValueError, match="per-shard scale"):
            STORAGE_SPECS["int8"].roundtrip(rows)

    def test_int8_encode_requires_finite(self):
        spec = STORAGE_SPECS["int8"]
        with pytest.raises(ValueError, match="finite"):
            spec.encode(np.array([[1.0, np.inf]]), scale=1.0)


class TestQuantisedStoreBasics:
    @pytest.mark.parametrize("storage", ["f8", "f4", "f2", "int8"])
    def test_nbytes_and_describe_track_storage(self, storage):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8, storage=storage)
        store.add_batch(_batch(sk, 20, 1))
        spec = STORAGE_SPECS[storage]
        assert store.nbytes == 20 * 64 * spec.itemsize
        description = store.describe()
        assert description["storage"] == storage
        assert description["nbytes"] == store.nbytes
        assert description["rows"] == 20
        assert description["config_digest"] == _CONFIG.digest()
        json.dumps(description)  # /meta embeds it verbatim

    @pytest.mark.parametrize("storage", ["f4", "f2", "int8"])
    def test_scan_values_are_float32_and_norms_float64(self, storage):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8, storage=storage)
        store.add_batch(_batch(sk, 12, 2))
        for i in range(store.n_shards):
            values = store.shard_values(i)
            assert values.dtype == np.float32
            assert not values.flags.writeable
            norms = store.shard_sq_norms(i)
            assert norms.dtype == np.float64
            decoded = np.asarray(values, dtype=np.float64)
            np.testing.assert_array_equal(
                norms, np.einsum("ij,ij->i", decoded, decoded)
            )

    def test_f8_store_unchanged_by_the_storage_plumbing(self):
        # the full-precision path must hold raw rows bit-for-bit
        sk = _sketcher()
        batch = _batch(sk, 10, 3)
        store = ShardedSketchStore(shard_capacity=4, storage="f8")
        store.add_batch(batch)
        got = np.concatenate([store.shard_values(i) for i in range(store.n_shards)])
        np.testing.assert_array_equal(got, batch.values)
        assert got.dtype == np.float64


class TestInt8Shards:
    def test_scale_fixed_by_first_chunk(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=64, storage="int8")
        store.add_batch(_batch(sk, 8, 1))
        view = store.snapshot()[0]
        assert view.scale is not None
        peak = float(np.max(np.abs(view.values)))
        assert peak <= 127 * view.scale * (1 + 1e-6)

    def test_overflowing_chunk_seals_the_shard(self):
        sk = _sketcher()
        template = _batch(sk, 1, 1)
        small = dataclasses.replace(
            template, values=np.full((3, 64), 0.5), labels=()
        )
        big = dataclasses.replace(
            template, values=np.full((2, 64), 100.0), labels=()
        )
        store = ShardedSketchStore(shard_capacity=64, storage="int8")
        store.add_batch(small)
        store.add_batch(big)  # would clip at the first shard's scale
        assert store.shard_sizes() == [3, 2]
        scales = [view.scale for view in store.snapshot()]
        assert scales[1] > scales[0]
        # neither shard clipped: decoded peaks match the inputs closely
        np.testing.assert_allclose(store.shard_values(0), 0.5, rtol=0.01)
        np.testing.assert_allclose(store.shard_values(1), 100.0, rtol=0.01)

    def test_small_later_chunks_share_the_shard(self):
        sk = _sketcher()
        template = _batch(sk, 1, 1)
        store = ShardedSketchStore(shard_capacity=64, storage="int8")
        store.add_batch(
            dataclasses.replace(template, values=np.full((2, 64), 50.0), labels=())
        )
        store.add_batch(
            dataclasses.replace(template, values=np.full((2, 64), 1.0), labels=())
        )
        assert store.shard_sizes() == [4]  # no seal: the scale covers them

    def test_non_finite_rows_rejected(self):
        sk = _sketcher()
        template = _batch(sk, 1, 1)
        bad = dataclasses.replace(
            template, values=np.array([[np.nan] + [0.0] * 63]), labels=()
        )
        store = ShardedSketchStore(storage="int8")
        with pytest.raises(ValueError, match="finite"):
            store.add_batch(bad)


class TestQuantisedPersistence:
    @pytest.mark.parametrize("storage", ["f4", "f2", "int8"])
    def test_save_load_mmap_bit_identical(self, storage, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=6, storage=storage)
        store.add_batch(_batch(sk, 14, 7))
        store.save(tmp_path / "store")
        eager = ShardedSketchStore.load(tmp_path / "store")
        mapped = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        assert eager.storage.name == storage
        assert mapped.storage.name == storage
        for i in range(store.n_shards):
            original = np.asarray(store.shard_values(i))
            np.testing.assert_array_equal(np.asarray(eager.shard_values(i)), original)
            np.testing.assert_array_equal(np.asarray(mapped.shard_values(i)), original)
            np.testing.assert_array_equal(
                eager.shard_sq_norms(i), store.shard_sq_norms(i)
            )
            np.testing.assert_array_equal(
                mapped.shard_sq_norms(i), store.shard_sq_norms(i)
            )

    def test_values_segment_shrinks_with_the_spec(self, tmp_path):
        sk = _sketcher()
        batch = _batch(sk, 32, 5)
        sizes = {}
        for storage in ("f8", "f4", "int8"):
            store = ShardedSketchStore(shard_capacity=32, storage=storage)
            store.add_batch(batch)
            store.save(tmp_path / storage)
            info = read_batch_info(shard_file(tmp_path / storage))
            assert info.storage == storage
            sizes[storage] = info.values_nbytes
        assert sizes["f8"] == 2 * sizes["f4"] == 8 * sizes["int8"]

    def test_manifest_storage_beats_env_default(self, tmp_path, monkeypatch):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8, storage="f8")
        store.add_batch(_batch(sk, 5, 1))
        store.save(tmp_path / "store")
        monkeypatch.setenv(_STORAGE_ENV, "f4")
        loaded = ShardedSketchStore.load(tmp_path / "store")
        assert loaded.storage.name == "f8"
        np.testing.assert_array_equal(loaded.shard_values(0), store.shard_values(0))

    def test_swapped_storage_shard_rejected(self, tmp_path):
        # a shard blob of a different precision must not pass the
        # manifest pin, even though its metadata digest is intact
        sk = _sketcher()
        batch = _batch(sk, 4, 1)
        for storage in ("f8", "f4"):
            store = ShardedSketchStore(storage=storage)
            store.add_batch(batch)
            store.save(tmp_path / storage)
        shard_file(tmp_path / "f8").write_bytes(
            shard_file(tmp_path / "f4").read_bytes()
        )
        for mmap in (False, True):
            with pytest.raises(SerializationError, match="swapped"):
                ShardedSketchStore.load(tmp_path / "f8", mmap=mmap)

    def test_positional_labels_elided_from_headers(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=4)
        store.add_batch(_batch(sk, 10, 3))  # default global-position labels
        store.save(tmp_path / "store")
        for i in range(3):
            info = read_batch_info(shard_file(tmp_path / "store", i))
            assert info.labels == ()  # not persisted...
        loaded = ShardedSketchStore.load(tmp_path / "store")
        assert loaded.labels == list(range(10))  # ...but regenerated
        assert all(type(label) is int for label in loaded.labels)

    def test_equal_but_differently_typed_labels_stay_stored(self, tmp_path):
        # np.int64 labels *equal* the positional defaults but must
        # round-trip as written (they decode back to int via the label
        # codec) — only genuine `int` positions are elided
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(_batch(sk, 4, 3), labels=np.arange(4))
        store.save(tmp_path / "store")
        info = read_batch_info(shard_file(tmp_path / "store"))
        assert info.labels == (0, 1, 2, 3)  # persisted explicitly
        non_positional = ShardedSketchStore(shard_capacity=8)
        non_positional.add_batch(_batch(sk, 3, 4), labels=[5, "x", None])
        non_positional.save(tmp_path / "mixed")
        assert ShardedSketchStore.load(tmp_path / "mixed").labels == [5, "x", None]


class TestCompactToLowerPrecision:
    def test_compact_changes_spec_and_shrinks(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8, storage="f8")
        store.add_batch(_batch(sk, 20, 9))
        full_bytes = store.nbytes
        query = sk.sketch(np.ones(128), noise_rng=1)
        before = _top_k(DistanceService(store), query, 5)
        store.compact(storage="f4")
        assert store.storage.name == "f4"
        assert store.nbytes * 2 == full_bytes
        after = _top_k(DistanceService(store), query, 5)
        assert [label for label, _ in after] == [label for label, _ in before]
        # and the shrunken store persists/serves in the new spec
        store.save(tmp_path / "store")
        loaded = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        assert loaded.storage.name == "f4"
        assert _top_k(DistanceService(loaded), query, 5) == after

    def test_compact_same_float_spec_preserves_values(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8, storage="f4")
        for seed in range(3):
            store.add_batch(_batch(sk, 5, seed))
        stacked = np.concatenate(
            [np.asarray(store.shard_values(i)) for i in range(store.n_shards)]
        )
        store.compact()
        assert store.shard_sizes() == [8, 7]
        recompacted = np.concatenate(
            [np.asarray(store.shard_values(i)) for i in range(store.n_shards)]
        )
        np.testing.assert_array_equal(recompacted, stacked)


class TestMergeStorage:
    def test_merge_rejects_mixed_specs_readably(self):
        sk = _sketcher()
        a = ShardedSketchStore(storage="f8")
        a.add_batch(_batch(sk, 3, 1))
        b = ShardedSketchStore(storage="f4")
        b.add_batch(_batch(sk, 3, 2))
        with pytest.raises(ValueError, match="different storage specs .*f4.*f8"):
            ShardedSketchStore.merge(a, b)

    def test_merge_with_explicit_storage_reencodes(self):
        sk = _sketcher()
        a = ShardedSketchStore(storage="f8")
        a.add_batch(_batch(sk, 3, 1))
        b = ShardedSketchStore(storage="f4")
        b.add_batch(_batch(sk, 3, 2))
        merged = ShardedSketchStore.merge(a, b, storage="f4")
        assert merged.storage.name == "f4"
        assert len(merged) == 6

    def test_merge_inherits_the_common_spec(self):
        sk = _sketcher()
        parts = []
        for seed in range(2):
            part = ShardedSketchStore(shard_capacity=4, storage="f4")
            part.add_batch(_batch(sk, 5, seed))
            parts.append(part)
        merged = ShardedSketchStore.merge(*parts)
        assert merged.storage.name == "f4"
        stacked = np.concatenate(
            [np.asarray(p.shard_values(i)) for p in parts for i in range(p.n_shards)]
        )
        got = np.concatenate(
            [np.asarray(merged.shard_values(i)) for i in range(merged.n_shards)]
        )
        np.testing.assert_array_equal(got, stacked)  # same-spec merge is exact

    def test_merge_skips_empty_stores_whatever_their_spec(self):
        sk = _sketcher()
        a = ShardedSketchStore(storage="f4")
        a.add_batch(_batch(sk, 4, 1))
        merged = ShardedSketchStore.merge(ShardedSketchStore(storage="f8"), a)
        assert merged.storage.name == "f4"
        assert len(merged) == 4


class TestWireStorageTag:
    def test_release_payloads_carry_the_dtype(self):
        # a release's values ride under the key that names their dtype: f8
        import base64

        sk = _sketcher()
        sketch = sk.sketch(np.ones(128), noise_rng=0)
        query = TopKQuery(queries=sketch, k=1)
        release = json.loads(wire.encode_query(query).decode())["release"]
        assert not {"f4", "f2", "int8", "v3"} & set(release)
        raw = base64.b64decode(release["f8"])
        assert raw == np.ascontiguousarray(sketch.values, dtype="<f8").tobytes()
        back = wire.decode_query(wire.encode_query(query)).queries  # round-trips
        assert back.values.tobytes() == sketch.values.tobytes()
