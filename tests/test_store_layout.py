"""The store layout: one immutable shape per state of the store.

:class:`~repro.serving.store.ShardedSketchStore` derives its shard
views, row counts, shard sizes, live-row offsets and the server's cache
token once per mutation (:class:`~repro.serving.store.StoreLayout`);
``len()``, ``live_row_count``, ``shard_sizes()``, ``snapshot()``, the
query plane and the server's cache token all read it.  A mutation that
forgot to mark the layout stale would keep serving the old shape, so
the property drives random sequences of every mutation at every
storage spec and, after each step, compares every layout fact with a
fresh walk of the shards, then checks served pairwise against the
cross kernel.  A save links the shards that still hold the blob they
were loaded from and writes the rest, and reloads the same store.
"""

import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    PairwiseQuery,
    ShardedSketchStore,
)
from tests.helpers import shard_file, store_contents

_SKETCHER = PrivateSketcher(
    SketchConfig(input_dim=16, epsilon=8.0, output_dim=8, sparsity=2, seed=3)
)

_MUTATIONS = (
    "add",
    "add_batch",
    "delete",
    "compact",
    "compact_routed",
    "save_load_mmap",
    "save_load_eager",
    "assign_generation",
)


def _release(n, seed):
    rng = np.random.default_rng(seed)
    return _SKETCHER.sketch_batch(rng.standard_normal((n, 16)), noise_rng=seed)


def _walk(store) -> dict:
    """Every layout fact re-derived from the shards and the tombstones."""
    dead = np.asarray(store.tombstones, dtype=np.intp)
    sizes = [shard.size for shard in store._shards]
    views, live_starts, live_sizes, start = [], [], [], 0
    for size in sizes:
        if size:
            local = dead[(dead >= start) & (dead < start + size)] - start
            views.append((start, size, local.tolist() if local.size else None))
            if size > local.size:
                live_starts.append(start)
                live_sizes.append(size - local.size)
        start += size
    meta = store.metadata
    return {
        "len": start,
        "live_rows": start - dead.size,
        "shard_sizes": sizes,
        "views": views,
        "live_starts": live_starts,
        "live_offsets": np.cumsum([0, *live_sizes]).tolist(),
        "token": (
            start,
            None if meta is None else meta.config_digest,
            store.storage.name,
            store.generation,
            dead.size,
        ),
    }


def _served(store) -> dict:
    """The same facts as the store serves them."""
    layout = store.layout()
    return {
        "len": len(store),
        "live_rows": store.live_row_count,
        "shard_sizes": store.shard_sizes(),
        "views": [
            (view.start, view.size, None if view.dead is None else view.dead.tolist())
            for view in store.snapshot()
        ],
        "live_starts": [view.start for view in layout.live_views],
        "live_offsets": layout.live_offsets.tolist(),
        "token": layout.token,
    }


def _mutate(store, mutation, rng, root):
    """Apply one mutation; returns the store to keep using."""
    if mutation == "add":
        store.add(_release(1, int(rng.integers(1 << 30))).row(0))
    elif mutation == "add_batch":
        n = int(rng.integers(1, 12))
        batch = _release(n, int(rng.integers(1 << 30)))
        cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(0, 3))).tolist())
        for lo, hi in zip([0, *cuts], [*cuts, n]):  # empty chunks included
            store.add_batch(batch[lo:hi])
    elif mutation == "delete" and store.labels:
        labels = store.labels
        picks = rng.integers(0, len(labels), size=int(rng.integers(1, 4)))
        store.delete([labels[i] for i in picks])
    elif mutation == "compact":
        store.compact()
    elif mutation == "compact_routed" and store.live_row_count:
        store.compact(routing=True, routing_seed=int(rng.integers(100)))
    elif mutation.startswith("save_load") and len(store):
        sources = [view.source for view in store.snapshot()]
        saved = store_contents(store)
        store.save(root)
        for i, source in enumerate(sources):
            stat = shard_file(root, i).stat()
            if source is None:  # written by this save
                assert stat.st_nlink == 1
            else:  # the blob it was loaded from, linked
                assert stat.st_ino == os.stat(source.path).st_ino
        store = ShardedSketchStore.load(root, mmap=mutation == "save_load_mmap")
        assert store_contents(store) == saved
    elif mutation == "assign_generation":
        store.generation = int(rng.integers(0, 50))
    return store


def _check_pairwise(store, rng) -> None:
    """Served pairwise equals the cross entries for the same rows, byte for byte."""
    n = store.live_row_count
    if not n:
        return
    picks = rng.integers(-n, n, size=int(rng.integers(1, 6))).tolist()
    picks.append(picks[0])  # a repeat
    service = DistanceService(store, ExecutionPolicy(workers=1))
    got = service.execute(PairwiseQuery(indices=tuple(picks))).payload
    live_rows = np.concatenate(
        [
            view.values if view.dead is None else np.delete(view.values, view.dead, axis=0)
            for view in store.snapshot()
        ]
    )
    positions = [p % n for p in picks]
    queries = dataclasses.replace(
        store.metadata, values=np.asarray(live_rows[positions], dtype=np.float64)
    )
    block = service.execute(CrossQuery(queries=queries)).payload[:, positions]
    np.fill_diagonal(block, 0.0)
    assert got.tobytes() == block.tobytes()


class TestLayoutProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_layout_equals_a_fresh_walk(self, data):
        storage = data.draw(st.sampled_from(["f8", "f4", "f2", "int8"]), label="storage")
        capacity = data.draw(st.integers(1, 6), label="shard_capacity")
        mutations = data.draw(
            st.lists(st.sampled_from(_MUTATIONS), min_size=6, max_size=16),
            label="mutations",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        store = ShardedSketchStore(shard_capacity=capacity, storage=storage)
        with tempfile.TemporaryDirectory() as tmp:
            for mutation in mutations:
                store = _mutate(store, mutation, rng, Path(tmp) / "store")
                assert _served(store) == _walk(store), mutation
                layout = store.layout()  # no rebuild while nothing changes
                assert store.layout() is layout and store.snapshot() is layout.views
                _check_pairwise(store, rng)


class TestLayoutLaziness:
    def test_building_a_layout_maps_no_shard(self, tmp_path):
        store = ShardedSketchStore(shard_capacity=4)
        store.add_batch(_release(14, 1))
        store.delete([0, 9])
        store.save(tmp_path / "s")
        mapped = ShardedSketchStore.load(tmp_path / "s", mmap=True)
        layout = mapped.layout()
        assert (len(mapped), mapped.live_row_count, mapped.shard_sizes()) == (
            14, 12, [4, 4, 4, 2],
        )
        assert layout.token[0] == 14 and layout.token[-1] == 2
        assert mapped.resident_shards == 0
        service = DistanceService(mapped, ExecutionPolicy(workers=1))
        # live rows 5 and 6 are physical rows 6 and 7: only shard 1 is read
        service.execute(PairwiseQuery(indices=(5, 6)))
        assert [shard.materialized for shard in mapped._shards] == [
            False, True, False, False,
        ]
        assert mapped.layout() is layout  # queries never rebuild it
