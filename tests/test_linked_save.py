"""Linked saves: ``save()`` writes only the shards that changed since load.

A shard read from a published blob (eager or mapped) and not appended
to since is hard-linked into the next generation, once the file is
confirmed to carry the digests it was read with; every other shard
streams.  So a save after ``delete()`` writes the manifest alone, and a
save after appends writes the tail shard and the new ones.  A source
that was renamed away, replaced, or that the filesystem refuses to
link is written in full instead, and a linked generation reads back
exactly as an unlinked save of the same store does.
"""

import dataclasses
import errno
import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    PairwiseQuery,
    SerializationError,
    ShardedSketchStore,
    SketchQueryServer,
    compact_store,
    serialization,
    wire,
)
from repro.serving import store as store_module
from repro.serving.serialization import read_manifest
from tests.helpers import shard_file, store_contents

_SKETCHER = PrivateSketcher(
    SketchConfig(input_dim=32, epsilon=8.0, output_dim=16, sparsity=4, seed=21)
)
_ROWS, _CAPACITY = 30, 8  # shards of 8, 8, 8 and 6 rows


def _release(n, seed):
    rng = np.random.default_rng(seed)
    return _SKETCHER.sketch_batch(rng.standard_normal((n, 32)), noise_rng=seed)


def _saved(tmp_path, storage="f8") -> Path:
    store = ShardedSketchStore(shard_capacity=_CAPACITY, storage=storage)
    store.add_batch(_release(_ROWS, 1))
    root = tmp_path / "store"
    store.save(root)
    return root


def _inodes(root) -> list[int]:
    n = read_manifest(root)["n_shards"]
    return [shard_file(root, i).stat().st_ino for i in range(n)]


@pytest.fixture
def written(monkeypatch):
    """Names of the shard files a ``StreamingBatchWriter`` was opened on.

    Tests clear it right before the save they check.
    """
    names = []
    real = serialization.StreamingBatchWriter.__init__

    def spy(self, path, *args, **kwargs):
        names.append(Path(path).name)
        real(self, path, *args, **kwargs)

    monkeypatch.setattr(serialization.StreamingBatchWriter, "__init__", spy)
    return names


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
class TestWhatASaveWrites:
    def test_a_save_after_delete_links_every_shard(self, tmp_path, mmap, written):
        root = _saved(tmp_path)
        sources = _inodes(root)
        store = ShardedSketchStore.load(root, mmap=mmap)
        store.delete([3, 17, 29])
        written.clear()
        store.save(root)
        assert written == []
        assert read_manifest(root)["generation"] == 1
        assert _inodes(root) == sources
        assert store_contents(ShardedSketchStore.load(root)) == store_contents(store)

    def test_appends_write_the_tail_shard_and_the_new_ones(self, tmp_path, mmap, written):
        root = _saved(tmp_path)
        sources = _inodes(root)
        store = ShardedSketchStore.load(root, mmap=mmap)
        store.add_batch(_release(5, 2))
        written.clear()
        store.save(root)
        inodes = _inodes(root)
        if mmap:  # mapped shards are sealed: the rows open shard 4
            assert store.shard_sizes() == [8, 8, 8, 6, 5]
            assert written == ["shard-00004.skb"]
            assert inodes[:4] == sources
        else:  # the tail shard takes 2 rows, shard 4 the other 3
            assert store.shard_sizes() == [8, 8, 8, 8, 3]
            assert written == ["shard-00003.skb", "shard-00004.skb"]
            assert inodes[:3] == sources[:3] and inodes[3] != sources[3]
        assert store_contents(ShardedSketchStore.load(root)) == store_contents(store)

    def test_a_refused_link_falls_back_to_streaming(
        self, tmp_path, mmap, written, monkeypatch
    ):
        root = _saved(tmp_path)
        store = ShardedSketchStore.load(root, mmap=mmap)
        store.delete([0])

        def refuse(src, dst, *args, **kwargs):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", refuse)
        written.clear()
        store.save(tmp_path / "elsewhere")
        assert len(written) == 4
        elsewhere = ShardedSketchStore.load(tmp_path / "elsewhere")
        assert store_contents(elsewhere) == store_contents(store)


class TestSourcesThatChanged:
    def test_a_source_renamed_away_is_rewritten(self, tmp_path, written):
        root = _saved(tmp_path)
        sources = _inodes(root)
        store = ShardedSketchStore.load(root)
        shard_file(root, 1).rename(tmp_path / "moved.skb")
        written.clear()
        store.save(root)
        inodes = _inodes(root)
        assert written == ["shard-00001.skb"]
        assert inodes[1] not in sources and shard_file(root, 1).stat().st_nlink == 1
        assert [inodes[0], *inodes[2:]] == [sources[0], *sources[2:]]
        assert store_contents(ShardedSketchStore.load(root)) == store_contents(store)

    def test_a_source_replaced_by_another_blob_is_rewritten(self, tmp_path, written):
        root = _saved(tmp_path)
        store = ShardedSketchStore.load(root)
        os.replace(_foreign_blob(tmp_path), shard_file(root, 1))
        replaced = shard_file(root, 1).stat().st_ino
        written.clear()
        store.save(root)
        assert written == ["shard-00001.skb"]
        assert shard_file(root, 1).stat().st_ino != replaced
        assert store_contents(ShardedSketchStore.load(root)) == store_contents(store)

    def test_a_mapped_shard_whose_source_was_replaced_is_refused(self, tmp_path):
        # the rows of a mapped shard live only in its file: with a
        # foreign blob at that path the save can neither link nor copy
        # them, and refuses before publishing anything
        root = _saved(tmp_path)
        store = ShardedSketchStore.load(root, mmap=True)
        os.replace(_foreign_blob(tmp_path), shard_file(root, 2))
        manifest = read_manifest(root)
        with pytest.raises(SerializationError):
            store.save(root)
        assert read_manifest(root) == manifest


def _foreign_blob(tmp_path) -> Path:
    """A shard file with the same shape and other rows."""
    other = ShardedSketchStore(shard_capacity=_CAPACITY, storage="f8")
    other.add_batch(_release(_CAPACITY, 99))
    other.save(tmp_path / "other")
    return shard_file(tmp_path / "other", 0)


def _pairwise_digest(root, mmap) -> str:
    """sha256 over pairwise payloads, zeroed stats and result envelopes."""
    store = ShardedSketchStore.load(root, mmap=mmap)
    service = DistanceService(store, ExecutionPolicy(workers=1))
    n = store.live_row_count
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    for _ in range(40):
        query = PairwiseQuery(indices=tuple(rng.integers(-n, n, size=rng.integers(1, 8)).tolist()))
        result = service.execute(query)
        zeroed = dataclasses.replace(
            result, stats=dataclasses.replace(result.stats, elapsed_seconds=0.0)
        )
        digest.update(result.payload.tobytes())
        digest.update(repr(zeroed.stats).encode())
        digest.update(wire.encode_result(zeroed, query))
    return digest.hexdigest()


class TestLinkedGenerations:
    @pytest.mark.parametrize("storage", ["f8", "f4", "int8"])
    def test_a_linked_save_reads_back_as_an_unlinked_one(
        self, tmp_path, storage, monkeypatch
    ):
        root = _saved(tmp_path, storage)
        store = ShardedSketchStore.load(root)
        store.delete([2, 9, 10, 25])
        store.save(tmp_path / "linked")
        assert _inodes(tmp_path / "linked") == _inodes(root)
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "link_blob", lambda info, path: False)
            store.save(tmp_path / "copied")
        for i in range(4):
            assert (
                shard_file(tmp_path / "linked", i).read_bytes()
                == shard_file(tmp_path / "copied", i).read_bytes()
            )
        for mmap in (False, True):
            assert _pairwise_digest(tmp_path / "linked", mmap) == _pairwise_digest(
                tmp_path / "copied", mmap
            )

    def test_a_linked_generation_survives_pruning_its_source(self, tmp_path):
        root = _saved(tmp_path)
        store = ShardedSketchStore.load(root)
        store.delete([4, 5])
        store.save(root)  # generation 1 links generation 0's blobs
        queries = _release(3, 7)
        want = DistanceService(store).execute(CrossQuery(queries=queries)).payload
        reader = ShardedSketchStore.load(root, mmap=True)  # maps nothing yet
        compact_store(root)  # generation 2, which prunes generation 0
        assert sorted(p.name for p in root.glob("gen-*")) == ["gen-00001", "gen-00002"]
        got = DistanceService(reader).execute(CrossQuery(queries=queries)).payload
        assert got.tobytes() == want.tobytes()
        compacted = store_contents(ShardedSketchStore.load(root))
        ShardedSketchStore.load(root).save(root)  # generation 3 links 2, prunes 1
        assert sorted(p.name for p in root.glob("gen-*")) == ["gen-00002", "gen-00003"]
        assert store_contents(ShardedSketchStore.load(root, mmap=True)) == compacted

    def test_a_watching_server_picks_up_a_linked_save(self, tmp_path):
        root = _saved(tmp_path)
        queries = _release(2, 8)
        with SketchQueryServer.from_store_dir(
            root, port=0, watch_interval=0.02
        ) as server, DistanceClient(server.url) as client:
            store = ShardedSketchStore.load(root)
            store.delete([0, 1, 2])
            store.save(root)
            deadline = time.monotonic() + 30.0
            while server.service.store.generation < 1:
                assert time.monotonic() < deadline, server.watch_error
                time.sleep(0.02)
            assert client.health()["tombstones"] == 3
            got = client.execute(CrossQuery(queries=queries)).payload
            want = DistanceService(ShardedSketchStore.load(root)).execute(
                CrossQuery(queries=queries)
            ).payload
            assert got.tobytes() == want.tobytes()
