"""Property suite for the quantisation error envelope and round trips.

Pins the two contracts of low-precision storage:

* **Envelope** — served squared-distance and squared-norm estimates
  from an ``f4``/``f2``/``int8`` store stay within the documented
  worst-case bound of :mod:`repro.theory.quantisation` of the float64
  path, across storage specs, magnitudes, shard-boundary splits and
  int8 shard reseals.
* **Determinism** — ``compact(storage=...)`` to a lower precision
  followed by save/load/mmap is bit-identical: the decoded values, the
  norm caches and the re-saved shard bytes never drift.

Labels are orthogonal to quantisation and must stay so: NaN/inf float
labels round-trip through a quantised store unchanged.
"""

import dataclasses
import math
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    RadiusQuery,
    ShardedSketchStore,
    TopKQuery,
)
from repro.serving.service import _shard_lower_bounds
from repro.theory.quantisation import sq_distance_error_bound, sq_norm_error_bound
from tests.helpers import full_scan

_SPECS = st.sampled_from(["f4", "f2", "int8"])
#: magnitudes stay inside float16 range even with the outlier factor
_EXPONENTS = st.integers(-4, 2)


@lru_cache(maxsize=None)
def _template(dim: int):
    """A zero-row release whose sketches have ``dim`` coordinates."""
    config = SketchConfig(input_dim=32, epsilon=8.0, output_dim=dim, sparsity=4, seed=7)
    return PrivateSketcher(config).sketch_batch(np.zeros((1, 32)), noise_rng=0)[0:0]


def _values(rng, n, dim, exponent, outlier):
    values = rng.standard_normal((n, dim)) * 10.0 ** exponent
    if outlier and n > 1:
        # a 50x row mid-store forces an int8 shard reseal (and stresses
        # the relative envelopes) while staying inside the f2 range
        values[n // 2] *= 50.0
    return values


class TestErrorEnvelope:
    @given(
        spec=_SPECS,
        dim=st.sampled_from([8, 16, 32]),
        n=st.integers(1, 24),
        capacity=st.integers(1, 7),
        seed=st.integers(0, 10_000),
        exponent=_EXPONENTS,
        outlier=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_cross_estimates_within_documented_bound(
        self, spec, dim, n, capacity, seed, exponent, outlier
    ):
        rng = np.random.default_rng(seed)
        values = _values(rng, n, dim, exponent, outlier)
        queries = rng.standard_normal((2, dim)) * 10.0 ** exponent
        template = _template(dim)
        stored = dataclasses.replace(template, values=values, labels=())
        released = dataclasses.replace(template, values=queries, labels=())

        store = ShardedSketchStore(shard_capacity=capacity, storage=spec)
        store.add_batch(stored)
        got = DistanceService(store).execute(CrossQuery(queries=released)).payload
        want = estimators.cross_sq_distances(released, stored)

        for view in store.snapshot():
            for j in range(view.size):
                row = values[view.start + j]
                for i in range(queries.shape[0]):
                    bound = sq_distance_error_bound(spec, queries[i], row, view.scale)
                    error = abs(got[i, view.start + j] - want[i, view.start + j])
                    assert error <= bound, (
                        f"{spec}: |{got[i, view.start + j]} - "
                        f"{want[i, view.start + j]}| = {error} > bound {bound}"
                    )

    @given(
        spec=_SPECS,
        n=st.integers(1, 20),
        capacity=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        exponent=_EXPONENTS,
        outlier=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_norms_within_documented_bound(
        self, spec, n, capacity, seed, exponent, outlier
    ):
        dim = 16
        rng = np.random.default_rng(seed)
        values = _values(rng, n, dim, exponent, outlier)
        template = _template(dim)
        stored = dataclasses.replace(template, values=values, labels=())

        store = ShardedSketchStore(shard_capacity=capacity, storage=spec)
        store.add_batch(stored)
        got = DistanceService(store).execute(NormsQuery()).payload
        want = estimators.sq_norms(stored)
        for view in store.snapshot():
            for j in range(view.size):
                bound = sq_norm_error_bound(spec, values[view.start + j], view.scale)
                assert abs(got[view.start + j] - want[view.start + j]) <= bound

    def test_f8_envelope_collapses_to_slack(self):
        # the documented bound degrades gracefully: the full-precision
        # spec's envelope is the float64 slack alone, and the served
        # estimates actually are bit-identical to the flat estimator
        rng = np.random.default_rng(0)
        values = rng.standard_normal((10, 16))
        queries = rng.standard_normal((2, 16))
        bound = sq_distance_error_bound("f8", queries[0], values[0])
        assert bound < 1e-9
        template = _template(16)
        store = ShardedSketchStore(shard_capacity=3, storage="f8")
        store.add_batch(dataclasses.replace(template, values=values, labels=()))
        released = dataclasses.replace(template, values=queries, labels=())
        got = DistanceService(store).execute(CrossQuery(queries=released)).payload
        np.testing.assert_array_equal(
            got, estimators.cross_sq_distances(released, store.to_batch())
        )


class TestPrefilterExactOverQuantisedShards:
    @given(
        spec=st.sampled_from(["f4", "f2", "int8"]),
        n=st.integers(4, 32),
        capacity=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        exponent=_EXPONENTS,
        separate=st.booleans(),
        k=st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_top_k_and_radius_identical_with_prefilter(
        self, spec, n, capacity, seed, exponent, separate, k
    ):
        # the prefilter contract survives quantisation: its slack is
        # widened by the float32 accumulation envelope, so pruning can
        # only skip shards whose every (float32-rounded) estimate
        # genuinely loses — results match the full scan exactly,
        # even when estimates tie within GEMM rounding
        dim = 16
        rng = np.random.default_rng(seed)
        values = _values(rng, n, dim, exponent, outlier=False)
        if separate:
            # norm-separated shards: the regime where pruning actually
            # fires (and where a too-tight bound would drop winners);
            # offsets capped inside the f2 range (~6.5e4)
            n_shards = (n + capacity - 1) // capacity
            values[:, 0] += np.repeat(
                np.linspace(0.0, 2.0e4, n_shards), capacity
            )[:n]
        template = _template(dim)
        store = ShardedSketchStore(shard_capacity=capacity, storage=spec)
        store.add_batch(dataclasses.replace(template, values=values, labels=()))
        query = dataclasses.replace(template, values=values[:1].copy(), labels=())

        service = DistanceService(store, ExecutionPolicy())
        top = TopKQuery(queries=query, k=k)
        assert service.execute(top).payload == full_scan(store, top)
        cutoff = float(
            np.median(service.execute(CrossQuery(queries=query)).payload[0])
        )
        radius = RadiusQuery(query=query.row(0), radius_sq=max(cutoff, 0.0))
        assert service.execute(radius).payload == full_scan(store, radius)

    @given(
        spec=st.sampled_from(["f8", "f4", "f2", "int8"]),
        n=st.integers(1, 32),
        capacity=st.integers(1, 8),
        n_queries=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        exponent=_EXPONENTS,
        collinear=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_norm_bound_is_sound(
        self, spec, n, capacity, n_queries, seed, exponent, collinear
    ):
        # the norm bound's twin of the centroid-ball soundness property:
        # no entry of the bound matrix exceeds the smallest estimate the
        # served kernel computes in that shard's block, so no cutoff can
        # prune a true result.  Near-collinear rows and queries make the
        # norm gap tight, where float32 rounding would breach a slack
        # sized for float64 alone.
        dim = 16
        rng = np.random.default_rng(seed)
        values = _values(rng, n, dim, exponent, outlier=False)
        queries = rng.standard_normal((n_queries, dim)) * 10.0 ** exponent
        if collinear:
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            scale = 10.0 ** exponent
            values = np.outer(1.0 + np.abs(rng.normal(0.0, 0.02, n)), direction) * scale
            queries = np.outer(rng.uniform(0.5, 1.5, n_queries), direction) * scale
        template = _template(dim)
        store = ShardedSketchStore(shard_capacity=capacity, storage=spec)
        store.add_batch(dataclasses.replace(template, values=values, labels=()))
        released = dataclasses.replace(template, values=queries, labels=())
        service = DistanceService(store, ExecutionPolicy(workers=1))
        matrix = service.execute(CrossQuery(queries=released)).payload
        sq_rows = np.einsum("ij,ij->i", queries, queries)
        views = store.snapshot()
        bounds = _shard_lower_bounds(
            views,
            sq_rows,
            np.sqrt(sq_rows),
            estimators.sq_distance_correction(store.metadata),
            service._scan_gamma(),
        )
        for i, view in enumerate(views):
            block = matrix[:, view.start : view.start + view.size]
            assert (bounds[:, i] <= block.min(axis=1)).all(), (
                f"{spec}: norm bound {bounds[:, i]} above the block's least "
                f"estimates {block.min(axis=1)}"
            )

    def test_lower_bound_covers_float32_rounding_on_collinear_shards(self):
        # regression: the pre-quantisation slack (sized for float64
        # rounding) is provably violated by float32 scans — near-
        # collinear rows make the norm-gap bound tight while the f32
        # GEMM rounds estimates below it by ~1e-3 at these magnitudes,
        # so the prefilter could prune a shard holding a true winner.
        # The widened slack must lower-bound every computed estimate.
        template = _template(64)
        for seed, scale in ((0, 100.0), (1, 1000.0), (3, 10.0)):
            rng = np.random.default_rng(seed)
            direction = rng.standard_normal(64)
            direction /= np.linalg.norm(direction)
            factors = 1.0 + np.abs(rng.normal(0.0, 0.02, 256)) + 1e-4
            values = np.outer(factors, direction) * scale
            store = ShardedSketchStore(shard_capacity=256, storage="f4")
            store.add_batch(dataclasses.replace(template, values=values, labels=()))
            released = dataclasses.replace(
                template, values=(direction * scale)[np.newaxis, :], labels=()
            )
            service = DistanceService(store, ExecutionPolicy(workers=1))
            block = service.execute(CrossQuery(queries=released)).payload[0]
            rows = np.asarray(released.values, dtype=np.float64)
            sq_rows = np.einsum("ij,ij->i", rows, rows)
            views = store.snapshot()
            assert len(views) == 1
            bound = _shard_lower_bounds(
                views,
                sq_rows,
                np.sqrt(sq_rows),
                estimators.sq_distance_correction(store.metadata),
                service._scan_gamma(),
            )[0, 0]
            assert block.min() >= bound, (
                f"prefilter bound {bound} above computed estimate "
                f"{block.min()} (seed {seed}, scale {scale})"
            )


class TestQuantisedRoundTripDeterminism:
    @given(
        spec=_SPECS,
        n=st.integers(1, 20),
        capacity=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        exponent=_EXPONENTS,
    )
    @settings(max_examples=25, deadline=None)
    def test_compact_save_load_mmap_bit_identical(
        self, spec, n, capacity, seed, exponent
    ):
        dim = 16
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, dim)) * 10.0 ** exponent
        template = _template(dim)
        store = ShardedSketchStore(shard_capacity=capacity, storage="f8")
        store.add_batch(dataclasses.replace(template, values=values, labels=()))
        store.compact(storage=spec)
        assert store.storage.name == spec

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "store"
            store.save(root)
            eager = ShardedSketchStore.load(root)
            mapped = ShardedSketchStore.load(root, mmap=True)
            for loaded in (eager, mapped):
                assert loaded.storage.name == spec
                for i in range(store.n_shards):
                    np.testing.assert_array_equal(
                        np.asarray(loaded.shard_values(i)),
                        np.asarray(store.shard_values(i)),
                    )
                    np.testing.assert_array_equal(
                        loaded.shard_sq_norms(i), store.shard_sq_norms(i)
                    )
            # re-saving what was loaded reproduces the files byte for
            # byte: nothing re-rounds after the one quantisation
            resaved = Path(tmp) / "resaved"
            eager.save(resaved)
            blobs = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
            assert blobs == sorted(
                p.relative_to(resaved) for p in resaved.rglob("*") if p.is_file()
            )
            for blob in blobs:
                assert (resaved / blob).read_bytes() == (root / blob).read_bytes(), (
                    f"{blob} drifted on a save/load/save round trip"
                )

    def test_nan_and_inf_labels_survive_quantised_stores(self, tmp_path):
        labels = (float("nan"), float("inf"), float("-inf"), "ok", 7)
        template = _template(16)
        rng = np.random.default_rng(3)
        batch = dataclasses.replace(
            template, values=rng.standard_normal((5, 16)), labels=labels
        )
        store = ShardedSketchStore(shard_capacity=2, storage="f4")
        store.add_batch(batch)
        store.save(tmp_path / "store")
        for mmap in (False, True):
            loaded = ShardedSketchStore.load(tmp_path / "store", mmap=mmap).labels
            assert math.isnan(loaded[0])
            assert loaded[1:] == [float("inf"), float("-inf"), "ok", 7]
