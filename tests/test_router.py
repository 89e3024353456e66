"""Scatter-gather router tests: N backends must equal one big store.

The acceptance contract of :class:`repro.serving.RouterService`: a
query answered by a router over backends that partition a store is
bit-identical to local ``execute()`` on the concatenated store — over
local services, over HTTP clients, and when the router itself is
served by a :class:`SketchQueryServer` (the full
``client -> router server -> N store servers`` topology).
"""

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    PairwiseQuery,
    RadiusQuery,
    RouterService,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
)

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=32, sparsity=4, seed=13)
_SPLITS = (0, 20, 41, 57)  # deliberately uneven backend blocks
_PAST_INT64 = (2**63, 2**64, -(2**64))  # valid query fields, no int64 fits them


def _build():
    """One 57-row store plus three part-stores holding the same rows."""
    sk = PrivateSketcher(_CONFIG)
    rng = np.random.default_rng(7)
    batch = sk.sketch_batch(rng.standard_normal((57, 64)), noise_rng=1)
    combined = ShardedSketchStore(shard_capacity=9)
    combined.add_batch(batch)
    parts = []
    for lo, hi in zip(_SPLITS, _SPLITS[1:]):
        store = ShardedSketchStore(shard_capacity=9)
        # global labels: backend order concatenates back to the store
        store.add_batch(batch[lo:hi], labels=range(lo, hi))
        parts.append(store)
    return sk, combined, parts


def _queries(sk):
    rng = np.random.default_rng(21)
    single = sk.sketch(rng.standard_normal(64), noise_rng=3)
    batch = sk.sketch_batch(rng.standard_normal((4, 64)), noise_rng=4)
    return single, batch


def _assert_router_matches_local(router, local, sk):
    single, batch = _queries(sk)

    top_local = local.execute(TopKQuery(queries=batch, k=9))
    top_routed = router.execute(TopKQuery(queries=batch, k=9))
    assert top_routed.payload == top_local.payload

    cutoff = float(np.median([est for _, est in top_local.payload[0]]))
    r_local = local.execute(RadiusQuery(query=single, radius_sq=cutoff))
    r_routed = router.execute(RadiusQuery(query=single, radius_sq=cutoff))
    assert r_routed.payload == r_local.payload

    c_local = local.execute(CrossQuery(queries=batch))
    c_routed = router.execute(CrossQuery(queries=batch))
    assert c_routed.payload.tobytes() == c_local.payload.tobytes()

    n_local = local.execute(NormsQuery())
    n_routed = router.execute(NormsQuery())
    assert n_routed.payload.tobytes() == n_local.payload.tobytes()


class TestRouterOverLocalServices:
    @pytest.fixture()
    def setup(self):
        sk, combined, parts = _build()
        local = DistanceService(combined, ExecutionPolicy(workers=1))
        router = RouterService(
            [DistanceService(p, ExecutionPolicy(workers=1)) for p in parts],
            close_backends=True,
        )
        with router, local:
            yield sk, local, router

    def test_merged_results_match_single_store(self, setup):
        sk, local, router = setup
        _assert_router_matches_local(router, local, sk)

    def test_len_and_health_aggregate_backends(self, setup):
        _, local, router = setup
        assert len(router) == len(local) == 57
        health = router.health()
        assert health["rows"] == 57
        assert health["backends"] == 3
        assert health["backend_rows"] == [20, 21, 16]

    def test_stats_sum_counters_and_take_max_elapsed(self, setup):
        sk, _, router = setup
        single, _ = _queries(sk)
        result = router.execute(TopKQuery(queries=single, k=3))
        assert result.stats.rows_total == 57
        assert result.stats.rows_scanned <= 57
        # ceil(20/9) + ceil(21/9) + ceil(16/9) shards across the backends
        assert result.stats.shards_visited + result.stats.shards_pruned == 8
        assert result.stats.elapsed_seconds >= 0.0

    def test_execute_many_preserves_order(self, setup):
        sk, local, router = setup
        single, batch = _queries(sk)
        queries = [NormsQuery(), TopKQuery(queries=single, k=5), CrossQuery(queries=batch)]
        routed = router.execute_many(queries)
        locals_ = local.execute_many(queries)
        assert routed[1].payload == locals_[1].payload
        assert routed[2].payload.tobytes() == locals_[2].payload.tobytes()

    def test_pairwise_within_one_backend_translates_indices(self, setup):
        sk, local, router = setup
        # rows 20..40 all live in backend 1
        query = PairwiseQuery(indices=(20, 27, 40))
        routed = router.execute(query)
        expected = local.execute(query)
        assert routed.payload.tobytes() == expected.payload.tobytes()
        assert routed.stats.rows_total == 57  # logical store, not the backend

    def test_pairwise_negative_indices_resolve_against_logical_store(self, setup):
        sk, local, router = setup
        query = PairwiseQuery(indices=(-1, -10))  # rows 56 and 47: last backend
        routed = router.execute(query)
        expected = local.execute(query)
        assert routed.payload.tobytes() == expected.payload.tobytes()

    def test_pairwise_spanning_backends_is_rejected(self, setup):
        _, _, router = setup
        with pytest.raises(ValueError, match="spanning multiple router backends"):
            router.execute(PairwiseQuery(indices=(0, 56)))

    def test_pairwise_out_of_range_raises_index_error(self, setup):
        _, _, router = setup
        with pytest.raises(IndexError, match="out of range"):
            router.execute(PairwiseQuery(indices=(0, 57)))

    @pytest.mark.parametrize("index", _PAST_INT64)
    def test_pairwise_index_past_int64_raises_index_error(self, setup, index):
        _, _, router = setup
        with pytest.raises(IndexError, match="out of range"):
            router.execute(PairwiseQuery(indices=(index,)))

    def test_untyped_query_raises_type_error(self, setup):
        sk, _, router = setup
        with pytest.raises(TypeError, match="typed query"):
            router.execute(sk.sketch(np.ones(64), noise_rng=0))

    def test_router_needs_at_least_one_backend(self):
        with pytest.raises(ValueError, match="at least one backend"):
            RouterService([])


class TestRouterOverHttpBackends:
    """The scale-out topology: client -> router server -> store servers."""

    @pytest.fixture()
    def topology(self, tmp_path):
        sk, combined, parts = _build()
        local = DistanceService(combined, ExecutionPolicy(workers=1))
        servers = []
        for i, part in enumerate(parts):
            part.save(tmp_path / f"part{i}")
            servers.append(
                SketchQueryServer.from_store_dir(
                    tmp_path / f"part{i}", port=0, policy=ExecutionPolicy(workers=1)
                ).start()
            )
        router = RouterService(
            [DistanceClient(s.url) for s in servers], close_backends=True
        )
        front = SketchQueryServer(router, port=0).start()
        client = DistanceClient(front.url)
        try:
            yield sk, local, router, front, client, servers
        finally:
            front.close()
            local.close()
            for server in servers:
                server.close()

    def test_routed_http_results_match_single_store(self, topology):
        sk, local, router, _, client, _ = topology
        # the router over DistanceClients...
        _assert_router_matches_local(router, local, sk)
        # ...and the full double-hop through the router *server*
        _assert_router_matches_local(client, local, sk)

    def test_router_frontend_health_and_meta(self, topology):
        _, _, _, front, client, servers = topology
        health = client.health()
        assert health["rows"] == 57
        assert health["backends"] == 3
        meta = client.meta()
        assert meta["router"] is True
        assert meta["rows"] == 57
        assert meta["backends"] == [s.url for s in servers]

    def test_bad_query_still_raises_value_error_through_both_hops(self, topology):
        _, _, _, _, client, _ = topology
        with pytest.raises(IndexError, match="out of range"):
            client.execute(PairwiseQuery(indices=(0, 10_000)))
        with pytest.raises(ValueError, match="spanning multiple router backends"):
            client.execute(PairwiseQuery(indices=(0, 56)))

    @pytest.mark.parametrize("index", _PAST_INT64)
    def test_pairwise_index_past_int64_is_a_400_through_the_router_server(
        self, topology, index
    ):
        # a 500 would surface as ConnectionError; a store server answers 400
        _, _, _, _, client, _ = topology
        with pytest.raises(IndexError, match="out of range"):
            client.execute(PairwiseQuery(indices=(index,)))

    def test_dead_backend_surfaces_as_502_connection_error(self, topology):
        _, _, _, _, client, servers = topology
        servers[1].close()  # one store server dies; the router stays up
        with pytest.raises(ConnectionError, match="cannot reach"):
            client.execute(NormsQuery())
        # health still answers: a liveness probe must not need every backend
        # (len() of a DistanceClient backend raises, so expect the error)
        with pytest.raises(ConnectionError):
            client.health()


def _tombstoned(dead):
    """A 20-row store and two 10-row part stores of the same rows, with
    the labels ``dead`` deleted wherever they live."""
    sk = PrivateSketcher(_CONFIG)
    batch = sk.sketch_batch(
        np.random.default_rng(5).standard_normal((20, 64)), noise_rng=2
    )
    single = ShardedSketchStore(shard_capacity=4)
    single.add_batch(batch, labels=range(20))
    single.delete(dead)
    parts = []
    for lo in (0, 10):
        part = ShardedSketchStore(shard_capacity=4)
        part.add_batch(batch[lo : lo + 10], labels=range(lo, lo + 10))
        part.delete([label for label in dead if lo <= label < lo + 10])
        parts.append(part)
    return single, parts


#: (deleted labels, pairwise indices).  Two dead rows in the first
#: backend put the second backend's first rows at live positions 8 and
#: 9; two dead rows in the last backend make -1 and -2 its last live rows.
_TOMBSTONE_CASES = [([0, 1], (8, 9)), ([0, 1], (0, 3)), ([18, 19], (-1, -2))]
_TOMBSTONE_IDS = ["after-dead-rows", "among-dead-rows", "negative"]


class TestRouterPairwiseOverTombstones:
    """Pairwise indices number live rows, whatever the backend kind."""

    def _assert_matches_single_store(self, router, single, indices):
        query = PairwiseQuery(indices=indices)
        want = DistanceService(single, ExecutionPolicy(workers=1)).execute(query)
        got = router.execute(query)
        assert got.payload.tobytes() == want.payload.tobytes()
        assert got.stats.rows_total == want.stats.rows_total == 18

    @pytest.mark.parametrize("dead,indices", _TOMBSTONE_CASES, ids=_TOMBSTONE_IDS)
    def test_local_and_nested_backends(self, dead, indices):
        single, parts = _tombstoned(dead)
        services = [DistanceService(p, ExecutionPolicy(workers=1)) for p in parts]
        with RouterService(services) as router:
            self._assert_matches_single_store(router, single, indices)
            assert router.health()["live_rows"] == 18
        with RouterService([RouterService(services[:1]), services[1]]) as nested:
            self._assert_matches_single_store(nested, single, indices)

    @pytest.mark.parametrize("dead,indices", _TOMBSTONE_CASES, ids=_TOMBSTONE_IDS)
    def test_http_backends(self, tmp_path, dead, indices):
        single, parts = _tombstoned(dead)
        servers = []
        try:
            for i, part in enumerate(parts):
                part.save(tmp_path / f"part{i}")
                servers.append(
                    SketchQueryServer.from_store_dir(
                        tmp_path / f"part{i}", port=0, policy=ExecutionPolicy(workers=1)
                    ).start()
                )
            router = RouterService(
                [DistanceClient(s.url) for s in servers], close_backends=True
            )
            with router, SketchQueryServer(router, port=0) as front:
                self._assert_matches_single_store(router, single, indices)
                # client -> router server -> store servers, and a router
                # over that client, which reads live rows from the
                # router server's /healthz
                with DistanceClient(front.url) as client:
                    self._assert_matches_single_store(client, single, indices)
                    with RouterService([client]) as outer:
                        self._assert_matches_single_store(outer, single, indices)
        finally:
            for server in servers:
                server.close()
