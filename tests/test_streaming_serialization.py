"""Streaming serialization: block iteration and incremental v3 writes.

Every store writer rests on two guarantees from the serialization
layer: ``iter_batch_rows`` streams a stored shard's raw codes in
bounded blocks while still verifying the recorded digest, and
``StreamingBatchWriter`` — the only file writer — commits the same
bytes however the rows were split into blocks, equal for ``f8`` to the
in-memory ``batch_to_bytes`` — the format does not fork just because
the writer streamed.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    SerializationError,
    batch_to_bytes,
    read_batch,
    read_batch_info,
)
from repro.serving.serialization import (
    DEFAULT_BLOCK_ROWS,
    StreamingBatchWriter,
    iter_batch_rows,
)
from repro.serving.storage import STORAGE_SPECS, StorageSpec

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=32, sparsity=4, seed=3)


@pytest.fixture(scope="module")
def batch():
    sk = PrivateSketcher(_CONFIG)
    rng = np.random.default_rng(0)
    return sk.sketch_batch(rng.standard_normal((23, 64)), noise_rng=1)


def _template(tmp_path, batch):
    """A zero-row metadata carrier, the way a stored shard yields one."""
    path = tmp_path / "template.skb"
    path.write_bytes(batch_to_bytes(batch))
    return read_batch_info(path).meta


def _stream(path, blocks, template, *, storage="f8", scale=None, labels=()):
    """Write ``blocks`` of codes as one container, labels sliced per block."""
    with StreamingBatchWriter(path, template, storage=storage, scale=scale) as writer:
        offset = 0
        for block in blocks:
            writer.append(block, labels[offset : offset + block.shape[0]])
            offset += block.shape[0]
        writer.commit()


def _encode(batch, spec_name):
    spec = StorageSpec.parse(spec_name)
    scale = (
        StorageSpec.int8_step(float(np.max(np.abs(batch.values))))
        if spec.quantised
        else None
    )
    return spec.encode(np.asarray(batch.values, dtype=np.float64), scale), scale


class TestIterBatchRows:
    @pytest.mark.parametrize("spec_name", sorted(STORAGE_SPECS))
    @pytest.mark.parametrize("block_rows", [1, 7, 23, 64, DEFAULT_BLOCK_ROWS])
    def test_blocks_reassemble_the_stored_codes(
        self, tmp_path, batch, spec_name, block_rows
    ):
        codes, scale = _encode(batch, spec_name)
        path = tmp_path / "shard.skb"
        _stream(path, [codes], _template(tmp_path, batch), storage=spec_name, scale=scale)
        info = read_batch_info(path)
        blocks = list(iter_batch_rows(info, block_rows))
        assert all(b.shape[0] <= block_rows for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), codes)

    def test_digest_mismatch_raises_at_exhaustion(self, tmp_path, batch):
        path = tmp_path / "shard.skb"
        path.write_bytes(batch_to_bytes(batch))
        info = read_batch_info(path)
        # corrupt one byte inside the values segment
        raw = bytearray(path.read_bytes())
        raw[info.values_offset + 5] ^= 0xFF
        path.write_bytes(bytes(raw))
        stream = iter_batch_rows(read_batch_info(path), block_rows=4)
        with pytest.raises(SerializationError, match="digest mismatch"):
            list(stream)
        # verify=False streams the corrupt bytes without complaint —
        # the caller opted out of the check
        blocks = list(
            iter_batch_rows(read_batch_info(path), block_rows=4, verify=False)
        )
        assert sum(b.shape[0] for b in blocks) == len(batch)

    def test_partial_consumption_verifies_nothing(self, tmp_path, batch):
        path = tmp_path / "shard.skb"
        path.write_bytes(batch_to_bytes(batch))
        stream = iter_batch_rows(read_batch_info(path), block_rows=4)
        next(stream)
        stream.close()  # no error: digest only checked at exhaustion

    def test_bytes_parsed_info_is_rejected(self, tmp_path, batch):
        path = tmp_path / "shard.skb"
        path.write_bytes(batch_to_bytes(batch))
        info = dataclasses.replace(read_batch_info(path), path=None)
        with pytest.raises(ValueError, match="bytes, not a file"):
            next(iter_batch_rows(info))

    def test_bad_block_rows_is_rejected(self, tmp_path, batch):
        path = tmp_path / "shard.skb"
        path.write_bytes(batch_to_bytes(batch))
        with pytest.raises(ValueError, match="block_rows"):
            next(iter_batch_rows(read_batch_info(path), block_rows=0))


class TestStreamingWriter:
    @pytest.mark.parametrize("spec_name", sorted(STORAGE_SPECS))
    @pytest.mark.parametrize("block_rows", [1, 5, 23])
    def test_byte_identical_to_one_shot_write(
        self, tmp_path, batch, spec_name, block_rows
    ):
        codes, scale = _encode(batch, spec_name)
        template = _template(tmp_path, batch)
        one_shot = tmp_path / "one-shot.skb"
        _stream(one_shot, [codes], template, storage=spec_name, scale=scale)
        streamed = tmp_path / "streamed.skb"
        blocks = [
            codes[i : i + block_rows] for i in range(0, codes.shape[0], block_rows)
        ]
        _stream(streamed, blocks, template, storage=spec_name, scale=scale)
        assert streamed.read_bytes() == one_shot.read_bytes()
        if spec_name == "f8":  # the in-memory twin builds the same bytes
            assert streamed.read_bytes() == batch_to_bytes(batch)

    def test_labels_roundtrip(self, tmp_path, batch):
        labels = tuple(f"row-{i}" for i in range(len(batch)))
        codes, _ = _encode(batch, "f8")
        path = tmp_path / "labelled.skb"
        _stream(path, [codes[:10], codes[10:]], _template(tmp_path, batch), labels=labels)
        assert read_batch(path).labels == labels

    def test_label_count_mismatch_is_rejected(self, tmp_path, batch):
        codes, _ = _encode(batch, "f8")
        with pytest.raises(ValueError, match="label"):
            _stream(tmp_path / "bad.skb", [codes], _template(tmp_path, batch), labels=("only-one",))

    def test_int8_requires_a_scale(self, tmp_path, batch):
        with pytest.raises(ValueError, match="scale"):
            StreamingBatchWriter(
                tmp_path / "s.skb", _template(tmp_path, batch), storage="int8"
            )

    def test_abort_removes_temp_and_partial_files(self, tmp_path, batch):
        codes, _ = _encode(batch, "f8")
        path = tmp_path / "aborted.skb"
        with pytest.raises(RuntimeError, match="boom"):
            with StreamingBatchWriter(path, _template(tmp_path, batch)) as writer:
                writer.append(codes[:8])
                raise RuntimeError("boom")
        leftovers = [p.name for p in tmp_path.iterdir() if "aborted" in p.name]
        assert leftovers == []

    def test_zero_row_commit_is_a_valid_empty_shard(self, tmp_path, batch):
        path = tmp_path / "empty.skb"
        with StreamingBatchWriter(path, _template(tmp_path, batch)) as writer:
            writer.commit()
        stored = read_batch(path)
        assert len(stored) == 0
        assert stored.config_digest == batch.config_digest
