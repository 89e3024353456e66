"""LSM maintenance: generational compaction, crash safety, policy, maintainer.

The disk-to-disk layer.  ``compact_store`` — like ``save`` and
``merge_stores``, which share its publish protocol — must publish each
rewrite as a numbered ``gen-NNNNN`` generation with the manifest as the
single source of truth — so a crash at *any* point (including a SIGKILL
mid-stream, injected here via a subprocess that ``os._exit``-s inside
the shard writer) leaves the old generation loadable and the leftovers
removable as orphans.  ``MaintenancePolicy`` is a pure function of the
manifest; ``StoreMaintainer`` runs it from a background thread.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    MaintenancePolicy,
    ShardedSketchStore,
    StoreMaintainer,
    compact_store,
    merge_stores,
)
from repro.serving import serialization
from tests.helpers import shard_file

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=32, sparsity=4, seed=5)
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 64)), noise_rng=seed, labels=labels)


def _saved_store(tmp_path, n=11, shard_capacity=4, labelled=True, name="store"):
    sk = _sketcher()
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    labels = tuple(f"row-{i}" for i in range(n)) if labelled else ()
    store.add_batch(_batch(sk, n, 1, labels=labels))
    root = tmp_path / name
    store.save(root)
    return root, store, sk


#: every writer that publishes into an existing store directory, given
#: that directory and a second saved store ``(other_root, other_store)``
_PUBLISHERS = {
    "compact_store": lambda root, other: compact_store(root),
    "save": lambda root, other: other[1].save(root),
    "merge_stores": lambda root, other: merge_stores(other[0], dest=root),
}


def _manifest(root):
    return json.loads((root / "manifest.json").read_text())


def _cross(root, queries, *, mmap=True):
    service = DistanceService(ShardedSketchStore.load(root, mmap=mmap))
    return service.execute(CrossQuery(queries=queries)).payload


class TestCompactStore:
    def test_publishes_a_generation_and_drops_tombstones(self, tmp_path):
        root, store, sk = _saved_store(tmp_path)
        store.delete(["row-2", "row-9"])
        store.save(root)  # the re-save is generation 1
        summary = compact_store(root)
        assert summary["generation"] == 2
        assert summary["rows"] == 9
        assert summary["tombstones_dropped"] == 2
        assert summary["shards"] == 3  # ceil(9 / 4)
        assert summary["storage"] == "f8"
        manifest = _manifest(root)
        assert manifest["generation"] == 2
        assert manifest["shards_dir"] == "gen-00002"
        assert (root / "gen-00002" / "shard-00000.skb").exists()
        loaded = ShardedSketchStore.load(root, mmap=True)
        assert loaded.generation == 2
        assert loaded.tombstones == ()
        assert list(loaded.labels) == [
            f"row-{i}" for i in range(11) if i not in (2, 9)
        ]

    def test_survivor_results_match_across_the_rewrite(self, tmp_path):
        root, store, sk = _saved_store(tmp_path)
        store.delete(["row-0", "row-7"])
        store.save(root)
        queries = _batch(sk, 3, 2)
        before = _cross(root, queries)
        compact_store(root)
        after = _cross(root, queries)
        assert after.tobytes() == before.tobytes()

    def test_passthrough_compact_of_a_packed_store_is_byte_identical(
        self, tmp_path
    ):
        # no tombstones, already capacity-packed, same spec: the codes
        # stream through verbatim, so the new generation's shard files
        # are byte-for-byte the old ones — the live-swap guarantee
        root, store, sk = _saved_store(tmp_path, n=8, shard_capacity=4)
        old = [shard_file(root, i).read_bytes() for i in range(2)]
        compact_store(root)
        new = [shard_file(root, i).read_bytes() for i in range(2)]
        assert _manifest(root)["shards_dir"] == "gen-00001"
        assert new == old

    def test_exact_capacity_store_gets_no_empty_tail_shard(self, tmp_path):
        # regression: rows landing exactly on a shard boundary must not
        # leave a zero-row tail shard behind — the partial-shard policy
        # would flag it and re-compact forever
        root, *_ = _saved_store(tmp_path, n=8, shard_capacity=4)
        assert compact_store(root)["shards"] == 2
        loaded = ShardedSketchStore.load(root)
        assert loaded.n_shards == 2 and len(loaded) == 8

    def test_an_empty_store_compacts_to_one_metadata_shard(self, tmp_path):
        root, store, sk = _saved_store(tmp_path, n=3)
        store.delete(["row-0", "row-1", "row-2"])
        store.save(root)
        summary = compact_store(root)
        assert summary["rows"] == 0 and summary["shards"] == 1
        loaded = ShardedSketchStore.load(root)
        assert len(loaded) == 0
        assert loaded.metadata is not None  # still carries the config

    def test_storage_demotion_re_encodes(self, tmp_path):
        root, store, sk = _saved_store(tmp_path)
        summary = compact_store(root, storage="f4")
        assert summary["storage"] == "f4"
        loaded = ShardedSketchStore.load(root)
        assert loaded.storage.name == "f4"
        assert len(loaded) == 11

    def test_int8_demotion_uses_one_global_scale(self, tmp_path):
        root, store, sk = _saved_store(tmp_path)
        compact_store(root, storage="int8")
        loaded = ShardedSketchStore.load(root)
        scales = {view.scale for view in loaded.snapshot()}
        assert len(scales) == 1  # every output shard shares the step

    def test_successive_generations_prune_old_ones(self, tmp_path):
        root, store, sk = _saved_store(tmp_path)
        assert _manifest(root)["shards_dir"] == "gen-00000"
        compact_store(root)
        # first compact keeps the saved generation: it is the previous
        # generation readers may still be attached to
        assert sorted(p.name for p in root.glob("gen-*")) == [
            "gen-00000",
            "gen-00001",
        ]
        second = compact_store(root)
        # now the saved generation is two generations stale — pruned
        assert "gen-00000" in second["pruned"]
        assert sorted(p.name for p in root.glob("gen-*")) == [
            "gen-00001",
            "gen-00002",
        ]
        third = compact_store(root)
        assert "gen-00001" in third["pruned"]
        assert sorted(p.name for p in root.glob("gen-*")) == [
            "gen-00002",
            "gen-00003",
        ]
        assert ShardedSketchStore.load(root).generation == 3

    def test_a_flat_store_is_pruned_once_two_generations_stale(self, tmp_path):
        # stores saved before generations existed keep their shards next
        # to a manifest without ``shards_dir``; they load, and their flat
        # files are the previous generation of the first publish
        root, *_ = _saved_store(tmp_path)
        manifest = _manifest(root)
        for shard in (root / manifest.pop("shards_dir")).iterdir():
            shard.rename(root / shard.name)
        (root / "gen-00000").rmdir()
        serialization.write_manifest(root, manifest)
        assert len(ShardedSketchStore.load(root, mmap=True)) == 11
        compact_store(root)
        assert list(root.glob("shard-*.skb"))
        second = compact_store(root)
        assert not list(root.glob("shard-*.skb"))
        assert any(name.startswith("shard-") for name in second["pruned"])
        assert len(ShardedSketchStore.load(root)) == 11


class TestCrashSafety:
    def test_sigkill_mid_stream_leaves_the_old_generation_loadable(
        self, tmp_path
    ):
        root, store, sk = _saved_store(tmp_path)
        queries = _batch(sk, 2, 3)
        before = _cross(root, queries)
        # a process that dies (os._exit — no cleanup handlers, the
        # moral equivalent of SIGKILL) on the third block it writes
        script = textwrap.dedent(
            """
            import os, sys
            import repro.serving.serialization as ser

            calls = [0]
            original = ser.StreamingBatchWriter.append

            def dying_append(self, *args, **kwargs):
                calls[0] += 1
                if calls[0] == 3:
                    os._exit(3)
                return original(self, *args, **kwargs)

            ser.StreamingBatchWriter.append = dying_append
            from repro.serving.maintenance import compact_store
            compact_store(sys.argv[1], block_rows=1)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            env={**os.environ, "PYTHONPATH": _SRC},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        # the crash left a staging orphan, but the manifest — the single
        # source of truth — still references the old generation
        orphans = list(root.glob(".gen-*.staging-*"))
        assert orphans
        assert _manifest(root)["generation"] == 0
        np.testing.assert_array_equal(_cross(root, queries), before)
        # the next compaction removes the orphan and publishes cleanly
        summary = compact_store(root)
        assert orphans[0].name in summary["pruned"]
        assert not list(root.glob(".gen-*.staging-*"))
        assert ShardedSketchStore.load(root).generation == 1

    @pytest.mark.parametrize("writer", sorted(_PUBLISHERS))
    def test_crash_between_rename_and_publish_is_an_orphan(
        self, tmp_path, monkeypatch, writer
    ):
        # the narrowest window: the generation directory landed but the
        # process died before the manifest replace
        root, store, sk = _saved_store(tmp_path)
        other = _saved_store(tmp_path, n=5, name="other")
        monkeypatch.setattr(
            serialization,
            "write_manifest",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("yanked")),
        )
        with pytest.raises(RuntimeError, match="yanked"):
            _PUBLISHERS[writer](root, other)
        monkeypatch.undo()
        assert (root / "gen-00001").is_dir()  # published dir, unreferenced
        assert _manifest(root)["generation"] == 0
        loaded = ShardedSketchStore.load(root, mmap=True)
        assert loaded.generation == 0 and len(loaded) == 11
        summary = compact_store(root)
        assert "gen-00001" in summary["pruned"]
        assert _manifest(root)["shards_dir"] == "gen-00001"

    @pytest.mark.parametrize("writer", sorted(_PUBLISHERS))
    def test_exception_mid_stream_cleans_its_own_staging(
        self, tmp_path, monkeypatch, writer
    ):
        root, store, sk = _saved_store(tmp_path)
        other = _saved_store(tmp_path, n=5, name="other")
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        monkeypatch.setattr(
            serialization.StreamingBatchWriter,
            "append",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError, match="disk full"):
            _PUBLISHERS[writer](root, other)
        assert not list(root.glob(".gen-*.staging-*"))
        assert _manifest(root)["generation"] == 0
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


class TestMergeStores:
    def test_merges_in_order_dropping_tombstones(self, tmp_path):
        sk = _sketcher()
        a = ShardedSketchStore(shard_capacity=4)
        a.add_batch(_batch(sk, 6, 1, labels=tuple(f"a-{i}" for i in range(6))))
        a.delete("a-3")
        a.save(tmp_path / "a")
        b = ShardedSketchStore(shard_capacity=4)
        b.add_batch(_batch(sk, 5, 2, labels=tuple(f"b-{i}" for i in range(5))))
        b.save(tmp_path / "b")
        summary = merge_stores(tmp_path / "a", tmp_path / "b", dest=tmp_path / "m")
        assert summary["rows"] == 10
        assert summary["storage"] == "f8"
        assert summary["sources"] == [str(tmp_path / "a"), str(tmp_path / "b")]
        merged = ShardedSketchStore.load(tmp_path / "m")
        assert merged.generation == 0  # a fresh directory starts at 0
        assert list(merged.labels) == [
            "a-0", "a-1", "a-2", "a-4", "a-5",
            "b-0", "b-1", "b-2", "b-3", "b-4",
        ]
        in_memory = ShardedSketchStore.merge(a, b)
        stacked = lambda s: np.concatenate(
            [s.shard_values(i) for i in range(s.n_shards)]
        )
        np.testing.assert_array_equal(stacked(merged), stacked(in_memory))

    def test_mixed_specs_are_rejected_naming_them(self, tmp_path):
        root_a, *_ = _saved_store(tmp_path, name="a")
        root_b, store_b, _ = _saved_store(tmp_path, name="b")
        store_b.compact(storage="f4").save(root_b)
        with pytest.raises(ValueError, match="f4, f8"):
            merge_stores(root_a, root_b, dest=tmp_path / "m")
        # an explicit storage= re-encodes instead of rejecting
        summary = merge_stores(
            root_a, root_b, dest=tmp_path / "m", storage="f4"
        )
        assert summary["storage"] == "f4"
        assert ShardedSketchStore.load(tmp_path / "m").storage.name == "f4"

    def test_crash_leaves_no_partial_dest(self, tmp_path, monkeypatch):
        root_a, *_ = _saved_store(tmp_path, name="a")
        monkeypatch.setattr(
            serialization.StreamingBatchWriter,
            "append",
            lambda *a, **k: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError, match="boom"):
            merge_stores(root_a, dest=tmp_path / "m")
        # a failed first publish removes the directory it created
        assert not (tmp_path / "m").exists()


class TestMaintenancePolicy:
    """plan() is a pure function of the manifest — no store needed."""

    def _manifest(self, **overrides):
        manifest = {
            "n_rows": 8,
            "n_shards": 2,
            "shard_capacity": 4,
            "storage": "f8",
        }
        manifest.update(overrides)
        return manifest

    def test_a_healthy_store_needs_nothing(self):
        assert MaintenancePolicy().plan(self._manifest()) is None

    def test_tombstones_trigger_a_compact_without_demotion(self):
        plan = MaintenancePolicy().plan(self._manifest(tombstones=[1, 5]))
        assert plan["storage"] is None
        assert "2 tombstoned rows" in plan["reason"]

    def test_min_tombstones_zero_disables_the_trigger(self):
        policy = MaintenancePolicy(min_tombstones=0)
        assert policy.plan(self._manifest(tombstones=[1])) is None

    def test_partial_shards_trigger_a_repack(self):
        plan = MaintenancePolicy().plan(self._manifest(n_shards=4))
        assert plan["storage"] is None
        assert "4 shards for 8 rows" in plan["reason"]

    def test_max_partial_shards_loosens_the_repack_rule(self):
        policy = MaintenancePolicy(max_partial_shards=3)
        assert policy.plan(self._manifest(n_shards=4)) is None
        assert policy.plan(self._manifest(n_shards=5)) is not None

    def test_cold_rows_demotes_the_hot_tier(self):
        policy = MaintenancePolicy(cold_storage="int8", cold_rows=8)
        plan = policy.plan(self._manifest())
        assert plan["storage"] == "int8"
        assert "demote f8 -> int8" in plan["reason"]
        assert policy.plan(self._manifest(n_rows=7)) is None

    def test_cold_bytes_demotes_on_disk_size(self):
        policy = MaintenancePolicy(cold_bytes=1024)
        assert policy.plan(self._manifest(), nbytes=2048)["storage"] == "f4"
        assert policy.plan(self._manifest(), nbytes=512) is None
        # no byte measurement, no byte-based demotion
        assert policy.plan(self._manifest()) is None

    def test_an_already_cold_store_is_not_re_encoded(self):
        policy = MaintenancePolicy(cold_rows=8)
        assert policy.plan(self._manifest(storage="f4")) is None
        # but other triggers still fire, preserving the cold spec
        plan = policy.plan(self._manifest(storage="f4", tombstones=[0]))
        assert plan["storage"] is None


class TestStoreMaintainer:
    def test_run_once_is_a_noop_on_a_healthy_store(self, tmp_path):
        root, *_ = _saved_store(tmp_path, n=8)
        maintainer = StoreMaintainer(root)
        assert maintainer.run_once() is None
        assert maintainer.history == []

    def test_run_once_compacts_and_records_history(self, tmp_path):
        root, store, _ = _saved_store(tmp_path)
        store.delete("row-4")
        store.save(root)
        with StoreMaintainer(root, interval=3600.0) as maintainer:
            summary = maintainer.run_once()
            assert summary["tombstones_dropped"] == 1
            assert "tombstoned" in summary["reason"]
            assert maintainer.history == [summary]
            # the store is healthy now: the next pass does nothing
            assert maintainer.run_once() is None

    def test_demotion_happens_once(self, tmp_path):
        root, *_ = _saved_store(tmp_path, n=8)
        policy = MaintenancePolicy(cold_storage="f4", cold_rows=8)
        maintainer = StoreMaintainer(root, policy)
        assert maintainer.run_once()["storage"] == "f4"
        # the demoted store no longer matches the hot tier: stable
        assert maintainer.run_once() is None

    def test_background_thread_compacts_within_the_interval(self, tmp_path):
        root, store, _ = _saved_store(tmp_path)
        store.delete("row-0")
        store.save(root)
        with StoreMaintainer(root, interval=0.05) as maintainer:
            maintainer.start()
            deadline = time.monotonic() + 30.0
            while not maintainer.history and time.monotonic() < deadline:
                time.sleep(0.02)
            assert maintainer.history, "maintainer never compacted"
        assert _manifest(root)["generation"] == 2  # save, re-save, compact
        assert maintainer.last_error is None

    def test_errors_are_recorded_and_the_loop_survives(self, tmp_path):
        with StoreMaintainer(tmp_path / "nonexistent", interval=0.02) as m:
            m.start()
            deadline = time.monotonic() + 30.0
            while m.last_error is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert m.last_error is not None
            assert m._thread.is_alive()  # the loop did not die with it

    def test_double_start_is_rejected(self, tmp_path):
        root, *_ = _saved_store(tmp_path, n=8)
        with StoreMaintainer(root, interval=3600.0) as maintainer:
            maintainer.start()
            with pytest.raises(RuntimeError, match="already started"):
                maintainer.start()
