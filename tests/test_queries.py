"""The typed query plane: execute(), stats, clamping, pins.

Covers the acceptance contract of the query-plane redesign:

* ``QueryResult.stats`` reports shard prune counts consistent with the
  norm-bound prefilter's behaviour;
* negative debiased estimates clamp at zero in exactly one place
  (:func:`repro.core.estimators.clamp_sq_estimates`) and only for
  ranking payloads — matrix payloads stay unbiased;
* construction-path pins: ``expected_digest`` and the tampered-metadata
  cross-check reject foreign releases on *every* path.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    PairwiseQuery,
    QueryStats,
    RadiusQuery,
    ShardedSketchStore,
    TopKQuery,
)
from tests.helpers import full_scan

_CONFIG = SketchConfig(input_dim=128, epsilon=8.0, output_dim=64, sparsity=4, seed=11)


def _sketcher(config=_CONFIG):
    return PrivateSketcher(config)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 128)), noise_rng=seed, labels=labels)


def _service(n=17, shard_capacity=5, seed=21):
    sk = _sketcher()
    stored = _batch(sk, n, seed)
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    store.add_batch(stored)
    return sk, stored, DistanceService(store)


class TestQueryStats:
    def test_full_scan_counts_every_shard_and_row(self):
        sk, _, service = _service(n=17, shard_capacity=5)
        query = sk.sketch(np.ones(128), noise_rng=1)
        for typed in (
            TopKQuery(queries=query, k=3),
            RadiusQuery(query=query, radius_sq=1e18),
            CrossQuery(queries=query),
            NormsQuery(),
        ):
            stats = service.execute(typed).stats
            assert stats.shards_total == service.store.n_shards
            assert stats.rows_total == 17
            assert stats.rows_scanned <= 17
            assert stats.elapsed_seconds > 0.0
        cross_stats = service.execute(CrossQuery(queries=query)).stats
        assert cross_stats.shards_pruned == 0
        assert cross_stats.rows_scanned == 17

    def test_pairwise_stats_count_touched_shards_only(self):
        _, _, service = _service(n=17, shard_capacity=5)  # shards of 5,5,5,2
        stats = service.execute(PairwiseQuery(indices=(0, 1, 16))).stats
        assert stats.shards_visited == 2  # rows 0,1 in shard 0; row 16 in shard 3
        assert stats.shards_pruned == 2  # untouched shards preserve the invariant
        assert stats.shards_total == service.store.n_shards
        assert stats.rows_scanned == 3
        assert stats.rows_total == 17

    def test_pairwise_stats_count_distinct_rows(self):
        _, _, service = _service(n=17, shard_capacity=5)
        stats = service.execute(PairwiseQuery(indices=(0, 1, 1, 1))).stats
        assert stats.rows_scanned == 2  # duplicates are one stored row
        assert stats.shards_total == service.store.n_shards

    def test_empty_store_stats_are_zero(self):
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 3, 1)[0:0])  # pinned, zero rows
        service = DistanceService(store)
        result = service.execute(TopKQuery(queries=sk.sketch(np.ones(128), noise_rng=0)))
        assert result.stats == dataclasses.replace(
            QueryStats(), elapsed_seconds=result.stats.elapsed_seconds
        )

    def _norm_separated(self, sk, scale=1e6):
        base = _batch(sk, 32, 0)
        values = np.zeros((32, 64))
        values[:, 0] = np.repeat(np.arange(4.0) * scale, 8) + np.linspace(0, 1, 32)
        batch = dataclasses.replace(base, values=values, labels=())
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(batch)
        query = dataclasses.replace(base.row(0), values=np.zeros(64))
        return store, query

    def test_prefilter_prune_counts_visible_in_stats(self):
        # the same store shape as the PR 3 prefilter tests: 4 shards at
        # wildly separated norms; the stats must agree with the counts
        # those tests established by monkeypatching the estimator
        sk = _sketcher()
        store, query = self._norm_separated(sk)
        service = DistanceService(store, ExecutionPolicy())

        radius = RadiusQuery(query=query, radius_sq=1e9)
        radius_on = service.execute(radius)
        assert radius_on.stats.shards_visited == 1
        assert radius_on.stats.shards_pruned == 3
        assert radius_on.stats.rows_scanned == 8
        assert radius_on.payload == full_scan(store, radius)

        top = TopKQuery(queries=query, k=3)
        top_on = service.execute(top)
        assert top_on.stats.shards_pruned >= 1
        assert top_on.stats.shards_visited + top_on.stats.shards_pruned == 4
        assert top_on.payload == full_scan(store, top)

    def test_parallel_policies_report_consistent_prune_totals(self):
        sk = _sketcher()
        store, query = self._norm_separated(sk)
        with DistanceService(store, ExecutionPolicy(workers=4)) as service:
            stats = service.execute(RadiusQuery(query=query, radius_sq=1e9)).stats
        assert stats.shards_total == 4
        assert stats.shards_visited == 1  # the radius bound is schedule-free


class TestClampPolicy:
    """Negative debiased estimates clamp at 0.0 — in one place only."""

    def _tiny_distance_setup(self):
        # identical stored and query rows: the raw sketch distance is 0,
        # so the debiased estimate is exactly -correction < 0
        sk = _sketcher()
        base = _batch(sk, 4, 1)
        values = np.tile(np.linspace(1.0, 2.0, 64), (4, 1))
        batch = dataclasses.replace(base, values=values, labels=())
        store = ShardedSketchStore(shard_capacity=2)
        store.add_batch(batch)
        query = dataclasses.replace(base.row(0), values=values[0].copy())
        correction = estimators.sq_distance_correction(batch)
        assert correction > 0  # the premise: the correction can overshoot
        return DistanceService(store), query, batch, correction

    def test_helper_clamps_scalars_and_arrays(self):
        assert estimators.clamp_sq_estimates(-3.5) == 0.0
        assert estimators.clamp_sq_estimates(2.25) == 2.25
        np.testing.assert_array_equal(
            estimators.clamp_sq_estimates(np.array([-1.0, 0.0, 4.0])),
            [0.0, 0.0, 4.0],
        )

    def test_estimate_distance_routes_through_clamp(self):
        sk = _sketcher()
        a = sk.sketch(np.ones(128), noise_rng=1)
        b = dataclasses.replace(a, values=a.values.copy())
        assert estimators.estimate_sq_distance(a, b) < 0  # raw stays unbiased
        assert estimators.estimate_distance(a, b) == 0.0

    def test_top_k_payload_clamps_but_orders_on_raw(self):
        service, query, _, _ = self._tiny_distance_setup()
        ranking = service.execute(TopKQuery(queries=query, k=4)).payload[0]
        assert [label for label, _ in ranking] == [0, 1, 2, 3]  # stable ties
        assert [est for _, est in ranking] == [0.0, 0.0, 0.0, 0.0]

    def test_radius_membership_is_raw_payload_is_clamped(self):
        service, query, _, _ = self._tiny_distance_setup()
        # raw estimates are negative, so radius_sq=0.0 must still match
        hits = service.execute(RadiusQuery(query=query, radius_sq=0.0)).payload
        assert [label for label, _ in hits] == [0, 1, 2, 3]
        assert all(est == 0.0 for est in [est for _, est in hits])

    def test_matrix_payloads_stay_unbiased(self):
        service, query, batch, correction = self._tiny_distance_setup()
        cross = service.execute(CrossQuery(queries=query)).payload
        np.testing.assert_allclose(cross[0], -correction, atol=1e-9)
        pairwise = service.execute(PairwiseQuery(indices=(0, 1))).payload
        np.testing.assert_allclose(pairwise[0, 1], -correction, atol=1e-9)


class TestNormsQuery:
    def test_matches_flat_estimator(self):
        sk, stored, service = _service()
        want = estimators.sq_norms(stored)
        got = service.execute(NormsQuery()).payload
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_unpinned_store_rejected(self):
        service = DistanceService(ShardedSketchStore())
        with pytest.raises(ValueError, match="empty"):
            service.execute(NormsQuery())

    def test_pinned_empty_store_returns_empty(self):
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 3, 1)[0:0])
        assert DistanceService(store).execute(NormsQuery()).payload.size == 0


class TestExecuteMany:
    def test_matches_individual_executes_in_order(self):
        sk, _, service = _service()
        query = sk.sketch(np.ones(128), noise_rng=1)
        typed = [TopKQuery(queries=query, k=3), NormsQuery(), CrossQuery(queries=query)]
        many = service.execute_many(typed)
        assert len(many) == 3
        assert many[0].payload == service.execute(typed[0]).payload
        np.testing.assert_array_equal(many[1].payload, service.execute(typed[1]).payload)
        np.testing.assert_array_equal(many[2].payload, service.execute(typed[2]).payload)

    def test_empty_sequence(self):
        _, _, service = _service()
        assert service.execute_many([]) == []


class TestPairwiseQueryValidation:
    def test_numpy_indices_coerce_to_ints(self):
        query = PairwiseQuery(indices=np.array([0, 3, 5]))
        assert query.indices == (0, 3, 5)
        assert all(type(i) is int for i in query.indices)

    def test_non_integer_indices_rejected(self):
        for bad in (("a", "b"), ("5",), (np.bool_(True),)):
            with pytest.raises(ValueError, match="integers"):
                PairwiseQuery(indices=bad)

    def test_float_indices_rejected_not_truncated(self):
        # int() would quietly map 1.9 to row 1 — the wrong row, no error
        for bad in (1.9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="integers"):
                PairwiseQuery(indices=(bad,))
        with pytest.raises(ValueError, match="integers"):
            PairwiseQuery(indices=(True, 2))
        with pytest.raises(ValueError, match="integers"):
            PairwiseQuery(indices=3)

    def test_exactly_integral_floats_accepted(self):
        # a float-dtype index array from upstream arithmetic is fine as
        # long as every value is exactly integral (the legacy domain)
        query = PairwiseQuery(indices=np.array([0.0, 5.0]))
        assert query.indices == (0, 5)
        assert all(type(i) is int for i in query.indices)
        # exact ints skip the numbers-ABC checks; a float beside them does not
        query = PairwiseQuery(indices=(5, -2, 5.0))
        assert query.indices == (5, -2, 5)
        assert all(type(i) is int for i in query.indices)

    def test_query_subclasses_rejected_like_local_execute(self):
        class Tagged(NormsQuery):
            pass

        _, _, service = _service(n=3)
        with pytest.raises(TypeError, match="typed query"):
            service.execute(Tagged())
        from repro.serving import wire

        with pytest.raises(TypeError, match="typed query"):
            wire.encode_query(Tagged())


class TestConstructionPathPins:
    """Satellite: every construction path fails fast on foreign batches."""

    def _foreign_batch(self, seed=12):
        other = PrivateSketcher(dataclasses.replace(_CONFIG, seed=seed))
        return other.sketch_batch(
            np.random.default_rng(0).standard_normal((3, 128)), noise_rng=1
        )

    def test_from_batches_rejects_mutually_mismatched_digests(self):
        sk = _sketcher()
        with pytest.raises(ValueError, match="different configurations"):
            DistanceService.from_batches(_batch(sk, 3, 1), self._foreign_batch())

    def test_from_batches_with_expected_digest_rejects_first_foreign_batch(self):
        # without the pin, a self-consistent foreign set silently becomes
        # the store's configuration; with it, the very first batch fails
        with pytest.raises(ValueError, match="different"):
            DistanceService.from_batches(
                self._foreign_batch(), expected_digest=_CONFIG.digest()
            )

    def test_expected_digest_accepts_matching_batches(self):
        sk = _sketcher()
        service = DistanceService.from_batches(
            _batch(sk, 4, 1), expected_digest=_CONFIG.digest()
        )
        assert len(service) == 4
        assert service.store.expected_digest == _CONFIG.digest()

    def test_doctored_digest_with_foreign_metadata_rejected(self):
        # failing-before regression: a batch whose digest was rewritten to
        # match — but whose noise metadata still differs (here: a different
        # epsilon, hence a different noise scale and debias constant) —
        # used to be accepted by from_batches, silently mixing corrections
        sk = _sketcher()
        genuine = _batch(sk, 3, 1)
        loose = PrivateSketcher(dataclasses.replace(_CONFIG, epsilon=2.0))
        doctored = dataclasses.replace(
            loose.sketch_batch(
                np.random.default_rng(0).standard_normal((3, 128)), noise_rng=1
            ),
            config_digest=genuine.config_digest,
        )
        assert doctored.noise_second_moment != genuine.noise_second_moment
        with pytest.raises(ValueError, match="tampered"):
            DistanceService.from_batches(genuine, doctored)

    def test_doctored_query_rejected_at_execute(self):
        sk, _, service = _service()
        foreign = PrivateSketcher(
            dataclasses.replace(_CONFIG, epsilon=2.0)
        ).sketch(np.ones(128), noise_rng=0)
        doctored = dataclasses.replace(
            foreign, config_digest=service.store.metadata.config_digest
        )
        with pytest.raises(ValueError, match="tampered"):
            service.execute(TopKQuery(queries=doctored, k=1))

    def test_store_level_pin_applies_to_mmap_loads(self, tmp_path):
        sk = _sketcher()
        store = ShardedSketchStore()
        store.add_batch(_batch(sk, 4, 1))
        store.save(tmp_path / "store")
        pinned = ShardedSketchStore(expected_digest="0" * 16)
        info_digest = _CONFIG.digest()
        assert info_digest != "0" * 16
        from repro.serving.serialization import read_batch_info
        from tests.helpers import shard_file

        with pytest.raises(ValueError, match="different"):
            pinned._attach(read_batch_info(shard_file(tmp_path / "store")))


class TestExecutionPolicyEnv:
    """Satellite: env parsing fails loudly, and the repr reads well."""

    def test_repr(self):
        assert repr(ExecutionPolicy()) == "ExecutionPolicy(serial)"
        assert repr(ExecutionPolicy(workers=4)) == "ExecutionPolicy(workers=4)"

    def test_garbage_worker_count_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_WORKERS", "four")
        with pytest.raises(ValueError, match=r"REPRO_SERVING_WORKERS='four'.*integer"):
            ExecutionPolicy.from_env()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_nonpositive_worker_count_rejected_not_clamped(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVING_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_SERVING_WORKERS.*>= 1"):
            ExecutionPolicy.from_env()

    def test_empty_env_values_mean_the_default(self, monkeypatch):
        # docker-compose / CI YAML "unset" a variable by exporting it
        # empty; the parser must treat that as the default, not garbage
        monkeypatch.setenv("REPRO_SERVING_WORKERS", "")
        assert ExecutionPolicy.from_env() == ExecutionPolicy(workers=1)
