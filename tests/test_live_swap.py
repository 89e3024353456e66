"""Live generation swap: store tokens, cache invalidation, zero-downtime serving.

PR 7's serving-layer acceptance: a running :class:`SketchQueryServer`
watching its store directory follows maintenance *without a restart* —
the manifest watcher hot-swaps each published generation in, in-flight
queries finish on the snapshot they took, and the result cache
invalidates itself because the store token carries the generation.

The hammer test pins the strongest form: a passthrough compaction of a
packed, tombstone-free ``f8`` store streams the codes through verbatim,
so the new generation's shards are byte-identical and every query
answered *across* the swap must be bit-identical, with zero failures.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    RadiusQuery,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
    compact_store,
    wire,
)

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=32, sparsity=4, seed=13)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 64)), noise_rng=seed, labels=labels)


def _saved_store(tmp_path, n=40, shard_capacity=8):
    # n a multiple of capacity: every shard full, so a passthrough
    # compact streams byte-identical shard files (see module docstring)
    sk = _sketcher()
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    store.add_batch(_batch(sk, n, 1, labels=tuple(f"row-{i}" for i in range(n))))
    root = tmp_path / "store"
    store.save(root)
    return root, sk


def _post(server, body):
    request = urllib.request.Request(
        server.url + "/query",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.headers.get("X-Repro-Cache"), response.read()


def _healthz(server):
    with urllib.request.urlopen(server.url + "/healthz") as response:
        return json.loads(response.read())


def _wait_for(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.02)


class TestConstruction:
    def test_watch_interval_must_be_positive(self, tmp_path):
        root, _ = _saved_store(tmp_path)
        with pytest.raises(ValueError, match="watch_interval"):
            SketchQueryServer.from_store_dir(root, port=0, watch_interval=0.0)

    def test_watching_needs_a_store_directory(self):
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 4, 1))
        with pytest.raises(ValueError, match="store directory"):
            SketchQueryServer(DistanceService(store), port=0, watch_interval=1.0)

    def test_reload_needs_a_store_directory(self):
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 4, 1))
        server = SketchQueryServer(DistanceService(store), port=0)
        try:
            with pytest.raises(ValueError, match="store directory"):
                server.reload_if_changed()
        finally:
            server.close()


class TestManualReload:
    def test_reload_swaps_only_when_the_manifest_moved(self, tmp_path):
        root, sk = _saved_store(tmp_path)
        server = SketchQueryServer.from_store_dir(root, port=0)
        try:
            assert server.reload_if_changed() is False
            compact_store(root)
            assert server.reload_if_changed() is True
            assert server.swaps == 1
            assert server.service.store.generation == 1
            assert server.reload_if_changed() is False
        finally:
            server.close()

    def test_results_are_bit_identical_across_a_passthrough_swap(self, tmp_path):
        root, sk = _saved_store(tmp_path)
        queries = _batch(sk, 3, 2)
        with SketchQueryServer.from_store_dir(root, port=0) as server:
            client = DistanceClient(server.url)
            before = client.execute(CrossQuery(queries=queries)).payload
            compact_store(root)
            assert server.reload_if_changed()
            after = client.execute(CrossQuery(queries=queries)).payload
            assert after.tobytes() == before.tobytes()


class TestStoreTokenAndCache:
    def test_delete_invalidates_the_cache_without_a_reload(self, tmp_path):
        # the token reads the *live* store object: an in-process delete
        # changes the tombstone count, so the cached envelope for the
        # old row set can never be replayed
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(_batch(sk, 16, 1, labels=tuple(f"r{i}" for i in range(16))))
        query = TopKQuery(queries=_batch(sk, 1, 2), k=3)
        body = wire.encode_query(query)
        with SketchQueryServer(DistanceService(store), port=0, cache=8) as server:
            states = [_post(server, body)[0], _post(server, body)[0]]
            store.delete("r5")
            states.append(_post(server, body)[0])
            states.append(_post(server, body)[0])
        assert states == ["miss", "hit", "miss", "hit"]

    def test_a_failed_compact_shows_no_new_generation(self, monkeypatch):
        # compact() fills a fresh store and swaps it in only on success:
        # a query served mid-rewrite reads generation 0's rows (a hit),
        # so nothing computed over half a rewrite is cached under the
        # generation-1 token that a later compaction really reaches
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(_batch(sk, 40, 1, labels=tuple(f"r{i}" for i in range(40))))
        query = TopKQuery(queries=_batch(sk, 1, 2), k=3)
        body = wire.encode_query(query)
        fill, seen = ShardedSketchStore._fill, []

        def failing_fill(target, rows):
            if len(target) == 16:  # two of five shards rewritten
                seen.append((_post(server, body), _healthz(server)["generation"]))
                raise MemoryError("out of memory mid-rewrite")
            return fill(target, rows)

        with SketchQueryServer(DistanceService(store), port=0, cache=8) as server:
            first = _post(server, body)
            monkeypatch.setattr(ShardedSketchStore, "_fill", failing_fill)
            with pytest.raises(MemoryError):
                store.compact()
            monkeypatch.undo()
            after_fault = _post(server, body)
            store.delete([f"r{i}" for i in range(24)])  # 16 live rows
            store.compact()
            state, blob = _post(server, body)
        assert first[0] == "miss"
        assert seen == [(("hit", first[1]), 0)] and after_fault == ("hit", first[1])
        assert (store.generation, len(store)) == (1, 16) and state == "miss"
        expected = DistanceService(store).execute(query).payload
        assert wire.decode_result(blob).payload == expected

    @pytest.mark.parametrize(
        "compact_kwargs", [{}, {"routing": True}], ids=["passthrough", "routed"]
    )
    def test_generation_swap_invalidates_the_cache(self, tmp_path, compact_kwargs):
        # the cache token carries the generation, not the routing table:
        # a clustered rewrite (new table, new shard layout) must still
        # miss once after the swap and hit after that
        root, sk = _saved_store(tmp_path)
        query = TopKQuery(queries=_batch(sk, 1, 3), k=5)
        body = wire.encode_query(query)
        with SketchQueryServer.from_store_dir(root, port=0, cache=8) as server:
            state_1, blob_1 = _post(server, body)
            state_2, blob_2 = _post(server, body)
            compact_store(root, **compact_kwargs)
            server.reload_if_changed()
            assert (server.service.store.routing is not None) == bool(compact_kwargs)
            state_3, blob_3 = _post(server, body)
            state_4, blob_4 = _post(server, body)
            stats = _healthz(server)["cache"]
        assert [state_1, state_2, state_3, state_4] == [
            "miss", "hit", "miss", "hit",
        ]
        # cache hits replay the stored envelope byte-for-byte
        assert blob_1 == blob_2 and blob_3 == blob_4
        if not compact_kwargs:
            # passthrough compaction: the re-computed *answer* is identical
            # (only the envelope's server-side timing stat differs), it just
            # could not be replayed across the swap.  A clustered rewrite
            # changes shard shapes, which can move estimate bits.
            assert (
                wire.decode_result(blob_3).payload
                == wire.decode_result(blob_1).payload
            )
        assert stats["hits"] == 2 and stats["misses"] == 2


class TestWatcher:
    def test_watcher_swaps_and_healthz_reports_the_new_generation(
        self, tmp_path
    ):
        root, sk = _saved_store(tmp_path)
        with SketchQueryServer.from_store_dir(
            root, port=0, watch_interval=0.02
        ) as server:
            assert _healthz(server)["generation"] == 0
            compact_store(root)
            _wait_for(lambda: server.swaps >= 1, "the watcher to swap")
            health = _healthz(server)
            assert health["generation"] == 1
            assert health["rows"] == 40
            assert server.watch_error is None

    def test_a_bad_manifest_parks_the_error_and_keeps_serving(self, tmp_path):
        root, sk = _saved_store(tmp_path)
        queries = _batch(sk, 2, 4)
        manifest_path = root / "manifest.json"
        good_manifest = manifest_path.read_text()
        with SketchQueryServer.from_store_dir(
            root, port=0, watch_interval=0.02
        ) as server:
            client = DistanceClient(server.url)
            before = client.execute(CrossQuery(queries=queries)).payload
            manifest_path.write_text("{ not json")
            _wait_for(
                lambda: server.watch_error is not None, "the poll to fail"
            )
            # the old generation keeps serving, bit-identically
            after = client.execute(CrossQuery(queries=queries)).payload
            assert after.tobytes() == before.tobytes()
            assert server.swaps == 0
            manifest_path.write_text(good_manifest)
            _wait_for(
                lambda: server.watch_error is None, "the poll to recover"
            )
            assert server.swaps == 0  # same manifest: nothing to swap


class TestHammerAcrossSwap:
    """The acceptance run: zero failed requests, bit-identical answers."""

    def test_queries_never_fail_or_drift_during_a_live_swap(self, tmp_path):
        root, sk = _saved_store(tmp_path)
        query_batch = _batch(sk, 2, 5)
        single = query_batch[0]
        local = DistanceService(ShardedSketchStore.load(root))
        expected = {
            "top_k": local.execute(TopKQuery(queries=single, k=7)).payload,
            "radius": local.execute(
                RadiusQuery(query=single, radius_sq=1e9)
            ).payload,
            "cross": local.execute(CrossQuery(queries=query_batch))
            .payload.tobytes(),
        }
        queries = {
            "top_k": TopKQuery(queries=single, k=7),
            "radius": RadiusQuery(query=single, radius_sq=1e9),
            "cross": CrossQuery(queries=query_batch),
        }
        stop = threading.Event()
        failures: list = []
        counts = {kind: 0 for kind in queries}

        def hammer(kind, url):
            client = DistanceClient(url)
            query = queries[kind]
            while not stop.is_set():
                try:
                    payload = client.execute(query).payload
                    got = payload.tobytes() if kind == "cross" else payload
                    want = expected[kind]
                    if got != want:
                        failures.append((kind, "drift"))
                        return
                    counts[kind] += 1
                except Exception as exc:  # noqa: BLE001 - a failure IS the signal
                    failures.append((kind, repr(exc)))
                    return

        with SketchQueryServer.from_store_dir(
            root, port=0, watch_interval=0.02
        ) as server:
            threads = [
                threading.Thread(target=hammer, args=(kind, server.url))
                for kind in queries
            ]
            for thread in threads:
                thread.start()
            try:
                # let the hammers settle on generation 0, then swap live
                _wait_for(
                    lambda: all(c >= 3 for c in counts.values()) or failures,
                    "warm-up queries",
                )
                compact_store(root)
                _wait_for(
                    lambda: server.swaps >= 1 or failures,
                    "the watcher to swap mid-hammer",
                )
                settled = {k: counts[k] for k in counts}
                _wait_for(
                    lambda: all(
                        counts[k] >= settled[k] + 3 for k in counts
                    )
                    or failures,
                    "post-swap queries",
                )
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
        assert failures == []
        assert server.swaps >= 1
        assert server.watch_error is None
        assert all(count >= 6 for count in counts.values())
