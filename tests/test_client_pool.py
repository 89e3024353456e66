"""Pooled-transport and release-cache tests through a real server.

The client-side contract: keep-alive pooling and transparent retries
must be invisible in results (byte-identical payloads, same exception
classes) and visible only in the transport counters.  The server-side
contract: a cache hit is the byte-identical envelope a recompute would
produce, and any append invalidates every prior entry.
"""

import http.client
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    PairwiseQuery,
    ReleaseCache,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
    wire,
)

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=32, sparsity=4, seed=5)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _store(n=30, shard_capacity=8, sketcher=None):
    sk = sketcher or _sketcher()
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    store.add_batch(
        sk.sketch_batch(np.random.default_rng(2).standard_normal((n, 64)), noise_rng=1)
    )
    return sk, store


@pytest.fixture()
def served(tmp_path):
    sk, store = _store()
    store.save(tmp_path / "store")
    local = DistanceService(
        ShardedSketchStore.load(tmp_path / "store", mmap=True),
        ExecutionPolicy(workers=1),
    )
    with SketchQueryServer.from_store_dir(
        tmp_path / "store", port=0, policy=ExecutionPolicy(workers=1)
    ).start() as server:
        with local:
            yield sk, local, server


class TestConnectionPool:
    def test_sequential_queries_reuse_one_connection(self, served):
        sk, local, server = served
        with DistanceClient(server.url) as client:
            for _ in range(10):
                result = client.execute(NormsQuery())
            assert client.requests_sent == 10
            assert client.connections_opened == 1  # keep-alive did its job
        np.testing.assert_array_equal(
            result.payload, local.execute(NormsQuery()).payload
        )

    def test_pool_size_zero_opens_a_connection_per_request(self, served):
        _, _, server = served
        with DistanceClient(server.url, pool_size=0) as client:
            for _ in range(5):
                client.execute(NormsQuery())
            assert client.connections_opened == 5  # the pre-pool behaviour

    def test_stale_pooled_connection_is_retried_transparently(self, served):
        # a server restart (or idle timeout) kills a pooled connection
        # under the client; the next request must burn one retry on a
        # fresh connection and still return the right answer
        sk, local, server = served
        with DistanceClient(server.url) as client:
            client.execute(NormsQuery())
            assert len(client._idle) == 1
            client._idle[0].close()  # yank the socket under the pool
            result = client.execute(NormsQuery())
            assert client.retries_used == 1
            assert client.connections_opened == 2
        np.testing.assert_array_equal(
            result.payload, local.execute(NormsQuery()).payload
        )

    def test_retries_open_fresh_connections_before_giving_up(self):
        client = DistanceClient("http://127.0.0.1:9", timeout=2.0, retries=2)
        with pytest.raises(ConnectionError, match="after 3 attempt"):
            client.execute(NormsQuery())
        assert client.retries_used == 2
        assert client.connections_opened == 3  # never retried on a dead conn

    def test_concurrent_callers_share_the_pool_safely(self, served):
        sk, local, server = served
        expected = local.execute(NormsQuery()).payload
        with DistanceClient(server.url, pool_size=4) as client:

            def one_query(_):
                return client.execute(NormsQuery()).payload

            with ThreadPoolExecutor(max_workers=4) as pool:
                payloads = list(pool.map(one_query, range(24)))
        for payload in payloads:
            np.testing.assert_array_equal(payload, expected)
        assert client.requests_sent == 24
        assert client.connections_opened <= 24

    def test_a_burst_of_new_connections_waits_for_no_syn_retransmit(self, served):
        # eight callers opening a connection per request overflow a
        # listen backlog of 5: the kernel drops the SYNs, and each
        # dropped one costs its request a one-second retransmit; the
        # bound sits just under that, leaving room for a loaded runner
        sk, local, server = served
        query = TopKQuery(queries=sk.sketch(np.ones(64), noise_rng=3), k=3)
        expected = local.execute(query).payload

        def one_caller(_):
            slowest = 0.0
            with DistanceClient(server.url, pool_size=0) as client:
                for _ in range(100):
                    started = time.perf_counter()
                    assert client.execute(query).payload == expected
                    slowest = max(slowest, time.perf_counter() - started)
            return slowest

        with ThreadPoolExecutor(max_workers=8) as pool:
            slowest = max(pool.map(one_caller, range(8)))
        assert slowest < 0.9, f"a request took {slowest:.2f} s"

    def test_oversized_body_raises_value_error_and_pool_recovers(
        self, served, monkeypatch
    ):
        # the 413 error path through the real client: the server closes
        # the connection (the body was never drained), the client raises
        # the transported ValueError, and the *next* query just works
        from repro.serving import server as server_module

        # 256 bytes: the sketch-carrying top-k body trips it, a norms
        # envelope (~70 bytes) stays under
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 256)
        sk, local, server = served
        with DistanceClient(server.url) as client:
            with pytest.raises(ValueError, match="request body over"):
                client.execute(TopKQuery(queries=sk.sketch(np.ones(64), noise_rng=3), k=2))
            assert client.execute(NormsQuery()).payload.shape == (30,)
            assert client.retries_used == 0  # an HTTP error is not a transport error

    def test_rejects_non_http_and_hostless_urls(self):
        with pytest.raises(ValueError, match="http://"):
            DistanceClient("https://example.org:1")
        with pytest.raises(ValueError, match="no host"):
            DistanceClient("http://")
        with pytest.raises(ValueError, match="pool_size"):
            DistanceClient("http://127.0.0.1:9", pool_size=-1)
        with pytest.raises(ValueError, match="retries"):
            DistanceClient("http://127.0.0.1:9", retries=-1)


class TestReleaseCacheUnit:
    def test_lru_eviction_by_entry_count(self):
        cache = ReleaseCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"  # refresh "a": now "b" is LRU
        cache.put("c", b"3")
        assert cache.get("b") is None
        assert cache.get("a") == b"1"
        assert cache.get("c") == b"3"
        assert cache.stats()["evictions"] == 1

    def test_byte_budget_evicts_and_oversized_values_are_skipped(self):
        cache = ReleaseCache(max_entries=100, max_bytes=10)
        cache.put("a", b"xxxx")
        cache.put("b", b"yyyy")
        cache.put("c", b"zzzz")  # 12 bytes total: "a" must go
        assert cache.get("a") is None
        assert len(cache) == 2
        cache.put("huge", b"x" * 11)  # over budget alone: not cached
        assert cache.get("huge") is None
        assert len(cache) == 2  # and nothing was flushed to make room

    def test_replacing_a_key_updates_the_byte_count(self):
        cache = ReleaseCache(max_entries=4, max_bytes=100)
        cache.put("a", b"x" * 60)
        cache.put("a", b"x" * 30)
        assert cache.stats()["bytes"] == 30
        cache.put("b", b"x" * 60)  # fits only if the old 60 was released
        assert len(cache) == 2

    def test_clear_and_stats(self):
        cache = ReleaseCache(max_entries=4)
        cache.put("a", b"1")
        assert cache.get("a") == b"1"
        assert cache.get("missing") is None
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        with pytest.raises(ValueError, match="max_entries"):
            ReleaseCache(max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ReleaseCache(max_bytes=0)


class TestServerCache:
    @pytest.fixture()
    def cached_server(self, tmp_path):
        sk, store = _store()
        store.save(tmp_path / "store")
        with SketchQueryServer.from_store_dir(
            tmp_path / "store", port=0, policy=ExecutionPolicy(workers=1), cache=64
        ).start() as server:
            yield sk, server

    def _post(self, server, body):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", "/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.getheader("X-Repro-Cache"), response.read()
        finally:
            connection.close()

    def test_identical_query_hits_and_is_byte_identical(self, cached_server):
        sk, server = cached_server
        body = wire.encode_query(
            TopKQuery(queries=sk.sketch(np.ones(64), noise_rng=7), k=5)
        )
        status1, state1, blob1 = self._post(server, body)
        status2, state2, blob2 = self._post(server, body)
        assert (status1, status2) == (200, 200)
        assert (state1, state2) == ("miss", "hit")
        assert blob1 == blob2  # the cached release is the release

    def test_distinct_queries_do_not_collide(self, cached_server):
        sk, server = cached_server
        query = sk.sketch(np.ones(64), noise_rng=7)
        _, _, blob_k3 = self._post(server, wire.encode_query(TopKQuery(queries=query, k=3)))
        _, state, blob_k5 = self._post(server, wire.encode_query(TopKQuery(queries=query, k=5)))
        assert state == "miss"
        assert blob_k3 != blob_k5

    def test_cache_counters_show_in_healthz(self, cached_server):
        sk, server = cached_server
        body = wire.encode_query(NormsQuery())
        self._post(server, body)
        self._post(server, body)
        with DistanceClient(server.url) as client:
            stats = client.health()["cache"]
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1
        assert stats["entries"] >= 1

    def test_append_invalidates_prior_entries(self):
        # a live (still-appending) store behind a cached server: the
        # row count is part of the key, so growth never serves stale rows
        sk, store = _store(n=10)
        service = DistanceService(store, ExecutionPolicy(workers=1))
        with SketchQueryServer(service, port=0, cache=ReleaseCache(8)).start() as server:
            body = wire.encode_query(NormsQuery())
            connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                def post():
                    connection.request(
                        "POST", "/query", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    state = response.getheader("X-Repro-Cache")
                    return state, wire.decode_result(response.read())

                assert post()[0] == "miss"
                assert post()[0] == "hit"
                store.add_batch(
                    sk.sketch_batch(
                        np.random.default_rng(9).standard_normal((5, 64)), noise_rng=4
                    )
                )
                state, result = post()  # new store state: recomputed
                assert state == "miss"
                assert result.payload.shape == (15,)
            finally:
                connection.close()

    def test_uncached_server_sends_no_cache_header(self, served):
        _, _, server = served
        body = wire.encode_query(NormsQuery())
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", "/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("X-Repro-Cache") is None
            response.read()
            health = DistanceClient(server.url).health()
            assert "cache" not in health
        finally:
            connection.close()
