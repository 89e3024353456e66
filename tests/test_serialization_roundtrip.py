"""Round-trip tests for sketch serialization formats.

Covers the JSON-header wire formats (:meth:`PrivateSketch.to_bytes`,
:meth:`SketchBatch.to_bytes`) and the versioned binary container of the
serving layer (:mod:`repro.serving.serialization`) — property-style:
many random payload shapes, plus the edge cases (empty batch,
non-contiguous values, object labels) and every rejection path (bad
magic, bad version, truncation at each layer, digest mismatch).
"""

import dataclasses
import enum

import numpy as np
import pytest

from repro.core.sketch import PrivateSketch, PrivateSketcher, SketchBatch, SketchConfig
from repro.serving.serialization import (
    FORMAT_VERSION,
    MAGIC,
    SerializationError,
    batch_from_bytes,
    batch_to_bytes,
    decode_label,
    encode_label,
    iter_batch_rows,
    map_values,
    read_batch,
    read_batch_info,
)

_CONFIG = SketchConfig(input_dim=64, epsilon=2.0, output_dim=32, sparsity=4, seed=5)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(n, seed=0, labels=()):
    rng = np.random.default_rng(seed)
    return _sketcher().sketch_batch(
        rng.standard_normal((n, 64)), noise_rng=seed, labels=labels
    )


def _write(path, batch) -> None:
    path.write_bytes(batch_to_bytes(batch))


def _assert_batches_equal(a: SketchBatch, b: SketchBatch) -> None:
    np.testing.assert_array_equal(a.values, b.values)  # bit-exact
    assert a.input_dim == b.input_dim
    assert a.output_dim == b.output_dim
    assert a.perturbation == b.perturbation
    assert a.noise_spec == b.noise_spec
    assert a.noise_second_moment == b.noise_second_moment
    assert a.guarantee == b.guarantee
    assert a.config_digest == b.config_digest


class TestPrivateSketchRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_sketches_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        sketch = _sketcher().sketch(rng.standard_normal(64), noise_rng=seed, label=f"s{seed}")
        restored = PrivateSketch.from_bytes(sketch.to_bytes())
        np.testing.assert_array_equal(restored.values, sketch.values)
        assert restored.label == sketch.label
        assert restored.config_digest == sketch.config_digest
        assert restored.noise_spec == sketch.noise_spec

    def test_extreme_values_roundtrip_bit_exact(self):
        sketch = _sketcher().sketch(np.ones(64), noise_rng=0)
        tweaked = dataclasses.replace(
            sketch,
            values=np.array([1e-308, -1e308, 0.0, np.pi] * 8),
        )
        restored = PrivateSketch.from_bytes(tweaked.to_bytes())
        np.testing.assert_array_equal(restored.values, tweaked.values)


class TestSketchBatchJsonRoundTrip:
    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_random_batches_roundtrip(self, n):
        batch = _batch(n, seed=n, labels=tuple(f"row-{i}" for i in range(n)))
        restored = SketchBatch.from_bytes(batch.to_bytes())
        _assert_batches_equal(batch, restored)
        assert restored.labels == batch.labels

    def test_empty_batch_roundtrip(self):
        empty = _batch(3)[0:0]
        assert len(empty) == 0
        restored = SketchBatch.from_bytes(empty.to_bytes())
        assert len(restored) == 0
        assert restored.values.shape == (0, empty.output_dim)
        _assert_batches_equal(empty, restored)

    def test_non_contiguous_values_roundtrip(self):
        batch = _batch(8)
        strided = batch[::2]  # a view with a step — not C-contiguous
        assert not strided.values.flags["C_CONTIGUOUS"]
        restored = SketchBatch.from_bytes(strided.to_bytes())
        np.testing.assert_array_equal(restored.values, strided.values)

    def test_object_labels_stringified(self):
        batch = _batch(3, labels=(7, None, ("a", 1)))
        restored = SketchBatch.from_bytes(batch.to_bytes())
        assert restored.labels == ("7", "None", "('a', 1)")

    def test_truncated_payload_rejected(self):
        blob = _batch(4).to_bytes()
        with pytest.raises(ValueError, match="payload"):
            SketchBatch.from_bytes(blob[:-8])


class TestBinaryFormat:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_roundtrip_bit_exact(self, n):
        batch = _batch(n, seed=n, labels=tuple(f"b{i}" for i in range(n)))
        restored = batch_from_bytes(batch_to_bytes(batch))
        _assert_batches_equal(batch, restored)
        assert restored.labels == batch.labels

    def test_empty_batch_roundtrip(self):
        empty = _batch(2)[0:0]
        restored = batch_from_bytes(batch_to_bytes(empty))
        assert len(restored) == 0
        _assert_batches_equal(empty, restored)

    def test_non_contiguous_values_roundtrip(self):
        strided = _batch(10)[1::3]
        assert not strided.values.flags["C_CONTIGUOUS"]
        restored = batch_from_bytes(batch_to_bytes(strided))
        np.testing.assert_array_equal(restored.values, strided.values)

    def test_label_types_preserved(self):
        # the v2 typed encoding: load(save(...)) gives back *equal* labels,
        # where the v1 container stringified everything
        labels = (42, None, 3.5, True, "s", ("a", 1), [1, 2], {"k": (7,)})
        batch = _batch(len(labels), labels=labels)
        restored = batch_from_bytes(batch_to_bytes(batch))
        assert restored.labels == labels
        assert [type(l) for l, _ in zip(restored.labels, labels)] == [
            type(l) for l in labels
        ]

    def test_unencodable_label_degrades_visibly(self):
        marker = object()
        batch = _batch(1, labels=(marker,))
        restored = batch_from_bytes(batch_to_bytes(batch))
        assert restored.labels == (str(marker),)

    def test_file_roundtrip(self, tmp_path):
        batch = _batch(6, seed=9)
        _write(tmp_path / "batch.skb", batch)
        _assert_batches_equal(batch, read_batch(tmp_path / "batch.skb"))

    def test_values_segment_is_aligned(self, tmp_path):
        _write(tmp_path / "batch.skb", _batch(3))
        info = read_batch_info(tmp_path / "batch.skb")
        assert info.values_offset % 64 == 0

    def test_header_only_parse_then_map(self, tmp_path):
        batch = _batch(12, seed=4, labels=tuple(range(12)))
        _write(tmp_path / "batch.skb", batch)
        info = read_batch_info(tmp_path / "batch.skb")
        assert info.n_rows == 12
        assert info.labels == tuple(range(12))
        assert info.meta.config_digest == batch.config_digest
        mapped = map_values(info)
        assert isinstance(mapped, np.memmap)
        assert not mapped.flags.writeable
        np.testing.assert_array_equal(np.asarray(mapped), batch.values)

    def test_map_values_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "batch.skb"
        _write(path, _batch(8))
        info = read_batch_info(path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(SerializationError, match="truncated"):
            map_values(info)

    # -- rejection paths ------------------------------------------------------

    def test_bad_magic_rejected(self):
        blob = batch_to_bytes(_batch(2))
        with pytest.raises(SerializationError, match="magic"):
            batch_from_bytes(b"XXXX" + blob[4:])

    def test_unsupported_version_rejected(self):
        blob = batch_to_bytes(_batch(2))
        forged = MAGIC + (FORMAT_VERSION + 1).to_bytes(2, "big") + blob[6:]
        with pytest.raises(SerializationError, match="version"):
            batch_from_bytes(forged)

    def test_truncated_prefix_rejected(self):
        with pytest.raises(SerializationError, match="prefix"):
            batch_from_bytes(b"RSK")

    def test_truncated_header_rejected(self):
        blob = batch_to_bytes(_batch(2))
        with pytest.raises(SerializationError, match="header"):
            batch_from_bytes(blob[:20])

    def test_truncated_payload_rejected(self):
        blob = batch_to_bytes(_batch(2))
        with pytest.raises(SerializationError, match="payload"):
            batch_from_bytes(blob[:-8])

    def test_digest_mismatch_rejected(self):
        blob = bytearray(batch_to_bytes(_batch(2)))
        blob[-1] ^= 0xFF  # flip one payload bit
        with pytest.raises(SerializationError, match="digest mismatch"):
            batch_from_bytes(bytes(blob))

    def test_missing_header_field_rejected(self):
        import json

        blob = batch_to_bytes(_batch(2))
        header_len = int.from_bytes(blob[6:10], "big")
        header = json.loads(blob[10 : 10 + header_len])
        del header["values_sha256"]
        new_header = json.dumps(header).encode("utf-8")
        forged = (
            blob[:6]
            + len(new_header).to_bytes(4, "big")
            + new_header
            + blob[10 + header_len :]
        )
        with pytest.raises(SerializationError, match="missing required field"):
            batch_from_bytes(forged)

    def test_garbage_header_rejected(self):
        batch = _batch(1)
        payload = np.ascontiguousarray(batch.values).tobytes()
        garbage = b"{not json"
        forged = (
            MAGIC
            + FORMAT_VERSION.to_bytes(2, "big")
            + len(garbage).to_bytes(4, "big")
            + garbage
            + payload
        )
        with pytest.raises(SerializationError, match="JSON"):
            batch_from_bytes(forged)

    def test_label_count_mismatch_rejected_by_header_parse(self, tmp_path):
        # a buggy writer can produce a self-consistent header whose
        # label count disagrees with n_rows; the header-only (mmap)
        # parse must reject it just like the eager path does
        import json as _json

        from repro.serving.serialization import _PREFIX_LEN, _meta_digest

        path = tmp_path / "batch.skb"
        _write(path, _batch(5, labels=tuple("abcde")))
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[6:10], "big")
        header = _json.loads(blob[_PREFIX_LEN : _PREFIX_LEN + header_len])
        header["labels"] = header["labels"][:2]  # 2 labels, 5 rows
        meta = {k: v for k, v in header.items() if not k.endswith("sha256")}
        header["meta_sha256"] = _meta_digest(meta)
        forged_header = _json.dumps(header, sort_keys=True).encode()
        path.write_bytes(
            blob[:6]
            + len(forged_header).to_bytes(4, "big")
            + forged_header
            + blob[_PREFIX_LEN + header_len :]
        )
        with pytest.raises(SerializationError, match="2 labels for 5 rows"):
            read_batch_info(path)

    def test_metadata_corruption_rejected_without_reading_values(self, tmp_path):
        # a flipped bit in the header fails the metadata digest even on
        # the header-only parse that mmap loading uses
        path = tmp_path / "batch.skb"
        _write(path, _batch(4))
        blob = bytearray(path.read_bytes())
        target = blob.index(b'"perturbation"')
        blob[target + 1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(SerializationError):
            read_batch_info(path)


class TestRetiredFormats:
    """Containers 1 and 2 are rejected, naming the version, on every path."""

    @staticmethod
    def _retired_blob(version: int) -> bytes:
        # the 10-byte prefix both retired formats share, then a header
        header = b'{"payload_bytes": 0}' if version == 1 else b'{"n_rows": 0}'
        return MAGIC + version.to_bytes(2, "big") + len(header).to_bytes(4, "big") + header

    @pytest.mark.parametrize("version", [1, 2])
    def test_eager_and_header_reads_reject(self, tmp_path, version):
        path = tmp_path / "old.skb"
        path.write_bytes(self._retired_blob(version))
        match = f"unsupported format version {version}"
        with pytest.raises(SerializationError, match=match):
            batch_from_bytes(self._retired_blob(version))
        with pytest.raises(SerializationError, match=match):
            read_batch(path)
        with pytest.raises(SerializationError, match=match):
            read_batch_info(path)
        with pytest.raises(SerializationError, match=match):
            list(iter_batch_rows(read_batch_info(path)))

    @pytest.mark.parametrize("version", [1, 2])
    def test_store_loads_reject(self, tmp_path, version):
        from repro.serving import ShardedSketchStore
        from tests.helpers import shard_file

        store = ShardedSketchStore(shard_capacity=4)
        store.add_batch(_batch(3))
        store.save(tmp_path / "store")
        shard_file(tmp_path / "store").write_bytes(self._retired_blob(version))
        for mmap in (False, True):
            with pytest.raises(
                SerializationError, match=f"unsupported format version {version}"
            ):
                ShardedSketchStore.load(tmp_path / "store", mmap=mmap)


class TestLabelCodec:
    @pytest.mark.parametrize(
        "label",
        [
            None,
            True,
            False,
            0,
            -17,
            2**63,
            3.5,
            float("inf"),
            "plain",
            "",
            (),
            (1, "a"),
            ((1, 2), [3, {"x": None}]),
            [1, [2, [3]]],
            {"a": 1, 2: (3,)},
        ],
    )
    def test_roundtrip_preserves_value_and_type(self, label):
        decoded = decode_label(encode_label(label))
        assert decoded == label
        assert type(decoded) is type(label)

    def test_nan_label_roundtrips(self):
        decoded = decode_label(encode_label(float("nan")))
        assert isinstance(decoded, float) and decoded != decoded

    def test_non_finite_labels_encode_as_strict_json(self):
        # the encoding is shared with the wire codec, which promises
        # RFC 8259 output: no bare NaN/Infinity tokens allowed
        import json

        for label in (float("nan"), float("inf"), float("-inf")):
            encoded = encode_label(label)
            json.dumps(encoded, allow_nan=False)  # must not raise
            decoded = decode_label(encoded)
            assert decoded == label or (decoded != decoded and label != label)

    def test_int_subclass_labels_still_normalise_to_int(self):
        # exact ints pass through untouched; a subclass takes the
        # Integral path and comes back a plain int, as it always did
        level = enum.IntEnum("Level", "LOW HIGH").HIGH
        encoded = encode_label(level)
        assert encoded == 2 and type(encoded) is int

    def test_numpy_scalar_labels_decode_as_python_scalars(self):
        # regression: np.arange labels are np.int64, which is not an
        # `int` — they must survive as equal integers, not as strings
        for label, expected_type in [
            (np.int64(7), int),
            (np.int32(-3), int),
            (np.float64(2.5), float),
            (np.float32(0.5), float),
            (np.bool_(True), bool),
        ]:
            decoded = decode_label(encode_label(label))
            assert decoded == label
            assert type(decoded) is expected_type

    def test_random_nested_labels_roundtrip(self):
        rng = np.random.default_rng(0)

        def make(depth):
            kind = rng.integers(0, 7 if depth else 5)
            if kind == 0:
                return int(rng.integers(-1000, 1000))
            if kind == 1:
                return float(rng.standard_normal())
            if kind == 2:
                return str(rng.integers(0, 1000))
            if kind == 3:
                return None
            if kind == 4:
                return bool(rng.integers(0, 2))
            children = [make(depth - 1) for _ in range(int(rng.integers(0, 4)))]
            return tuple(children) if kind == 5 else children

        for _ in range(200):
            label = make(3)
            assert decode_label(encode_label(label)) == label

    def test_unknown_encoding_rejected(self):
        with pytest.raises(SerializationError, match="label"):
            decode_label({"__label__": "mystery"})
