"""Tombstone deletion: invisibility, bit-identity, persistence, physical drop.

``ShardedSketchStore.delete`` marks rows dead without touching the
published values (PR 7's LSM tentpole).  The contracts under test:

* deleted rows vanish from every query kind, and the *survivors'*
  estimates are bit-identical to what they were before the deletion —
  distance blocks still run over the full shard and read the dead
  entries as a mask, so no float changes;
* top-k selection and the masks agree with one unbounded pass over
  NaN, infinite and duplicate rows (a hypothesis property);
* tombstones persist through ``save``/``load`` via the manifest;
* ``compact()`` physically drops the rows (labels included), clears
  the tombstone set and bumps the generation;
* ``merge()`` skips tombstoned rows on the way through.

Deletion never refunds privacy budget — the DP argument lives in the
:mod:`repro.serving.store` module docstring; here we only check the
accounting surface (``live_row_count``, ``describe``) tells the truth.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    PairwiseQuery,
    RadiusQuery,
    ShardedSketchStore,
    TopKQuery,
)
from tests.helpers import full_scan, scan_jitter_atol

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=32, sparsity=4, seed=7)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _batch(sk, n, seed, labels=()):
    rng = np.random.default_rng(seed)
    return sk.sketch_batch(rng.standard_normal((n, 64)), noise_rng=seed, labels=labels)


def _store(n=14, shard_capacity=4, seed=1):
    sk = _sketcher()
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    store.add_batch(_batch(sk, n, seed, labels=tuple(f"row-{i}" for i in range(n))))
    return store, sk


def _stacked(store):
    return np.concatenate([store.shard_values(i) for i in range(store.n_shards)])


class TestDeleteSemantics:
    def test_a_single_string_label_is_one_label_not_an_iterable(self):
        store, _ = _store()
        assert store.delete("row-3") == 1
        assert store.tombstones == (3,)

    def test_an_iterable_tombstones_every_named_row(self):
        store, _ = _store()
        assert store.delete(["row-1", "row-5", "row-13"]) == 3
        assert store.tombstones == (1, 5, 13)

    def test_unknown_labels_raise_keyerror_naming_them(self):
        store, _ = _store()
        with pytest.raises(KeyError, match="row-99"):
            store.delete(["row-2", "row-99"])
        # the failed call tombstoned nothing: missing labels are
        # detected before any mutation
        assert store.tombstones == ()

    def test_redeleting_is_a_noop_counting_only_new_rows(self):
        store, _ = _store()
        assert store.delete("row-4") == 1
        assert store.delete(["row-4", "row-6"]) == 1
        assert store.tombstones == (4, 6)

    def test_duplicate_labels_tombstone_all_their_rows(self):
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=4)
        store.add_batch(_batch(sk, 3, 9, labels=("dup", "dup", "solo")))
        assert store.delete("dup") == 2
        assert store.tombstones == (0, 1)

    def test_empty_iterable_deletes_nothing(self):
        store, _ = _store()
        assert store.delete([]) == 0
        assert store.tombstones == ()

    def test_accounting_surface_reports_live_rows(self):
        store, _ = _store(n=10)
        store.delete(["row-0", "row-9"])
        assert len(store) == 10  # physical rows, unchanged
        assert store.live_row_count == 8
        assert store.describe()["tombstones"] == 2


class TestQueryInvisibility:
    """Survivor estimates are bit-identical before and after delete."""

    DEAD = ["row-2", "row-5", "row-13"]

    @pytest.fixture()
    def setup(self):
        store, sk = _store(n=14)
        service = DistanceService(store)
        queries = _batch(sk, 3, 2)
        return store, service, queries

    def _live(self, store):
        return np.delete(np.arange(len(store)), list(store.tombstones))

    def test_cross_matrix_drops_exactly_the_dead_columns(self, setup):
        store, service, queries = setup
        before = service.execute(CrossQuery(queries=queries)).payload
        store.delete(self.DEAD)
        after = service.execute(CrossQuery(queries=queries)).payload
        np.testing.assert_array_equal(after, before[:, self._live(store)])

    def test_norms_drop_exactly_the_dead_entries(self, setup):
        store, service, _ = setup
        before = service.execute(NormsQuery()).payload
        store.delete(self.DEAD)
        after = service.execute(NormsQuery()).payload
        np.testing.assert_array_equal(after, before[self._live(store)])

    def test_top_k_is_the_old_ranking_minus_the_dead(self, setup):
        store, service, queries = setup
        before = service.execute(TopKQuery(queries=queries, k=len(store))).payload
        store.delete(self.DEAD)
        live = store.live_row_count
        after = service.execute(TopKQuery(queries=queries, k=live)).payload
        dead = set(self.DEAD)
        for old, new in zip(before, after):
            survivors = [pair for pair in old if pair[0] not in dead]
            assert new == survivors  # labels AND estimates, bit-exact

    def test_radius_is_the_old_hit_list_minus_the_dead(self, setup):
        store, service, queries = setup
        radius_sq = 1e9  # everything is a hit; ordering carries the signal
        before = service.execute(
            RadiusQuery(query=queries[0], radius_sq=radius_sq)
        ).payload
        store.delete(self.DEAD)
        after = service.execute(
            RadiusQuery(query=queries[0], radius_sq=radius_sq)
        ).payload
        dead = set(self.DEAD)
        assert after == [pair for pair in before if pair[0] not in dead]

    def test_pairwise_renumbers_over_the_live_sequence(self, setup):
        # pairwise *gathers* the addressed rows into a fresh matrix, so
        # the post-delete GEMM runs at a different shape — that is scan
        # jitter (ulp-level), not the masked-scan bit-identity the
        # other kinds get
        store, service, _ = setup
        n = len(store)
        before = service.execute(PairwiseQuery(indices=range(n))).payload
        store.delete(self.DEAD)
        live = self._live(store)
        after = service.execute(
            PairwiseQuery(indices=range(store.live_row_count))
        ).payload
        rows = _stacked(store)[live]
        atol = scan_jitter_atol(store, rows, rows)
        np.testing.assert_allclose(
            after, before[np.ix_(live, live)], atol=atol, rtol=0.0
        )

    def test_pairwise_indices_range_shrinks_to_live_rows(self, setup):
        store, service, _ = setup
        store.delete(self.DEAD)
        with pytest.raises(IndexError, match="out of range"):
            service.execute(PairwiseQuery(indices=[store.live_row_count]))


class TestPersistence:
    def test_tombstones_survive_save_load(self, tmp_path):
        store, _ = _store()
        store.delete(["row-3", "row-7"])
        store.save(tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["tombstones"] == [3, 7]
        for mmap in (False, True):
            loaded = ShardedSketchStore.load(tmp_path / "store", mmap=mmap)
            assert loaded.tombstones == (3, 7)
            assert loaded.live_row_count == store.live_row_count
            assert loaded.labels == store.labels

    def test_a_clean_store_writes_no_tombstone_key(self, tmp_path):
        store, _ = _store()
        store.save(tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert "tombstones" not in manifest

    def test_out_of_range_manifest_tombstones_are_rejected(self, tmp_path):
        store, _ = _store()
        store.save(tmp_path / "store")
        path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["tombstones"] = [999]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="tombstones"):
            ShardedSketchStore.load(tmp_path / "store")

    def test_saved_tombstones_are_invisible_after_reload(self, tmp_path):
        store, sk = _store()
        queries = _batch(sk, 2, 3)
        before = DistanceService(store).execute(CrossQuery(queries=queries)).payload
        store.delete(["row-0", "row-11"])
        store.save(tmp_path / "store")
        loaded = ShardedSketchStore.load(tmp_path / "store", mmap=True)
        after = DistanceService(loaded).execute(CrossQuery(queries=queries)).payload
        live = np.delete(np.arange(len(store)), [0, 11])
        np.testing.assert_array_equal(after, before[:, live])


class TestCompactDropsTombstones:
    def test_compact_drops_rows_labels_and_clears_tombstones(self):
        store, _ = _store(n=14)
        survivors = _stacked(store)
        store.delete(["row-2", "row-5", "row-13"])
        survivors = np.delete(survivors, [2, 5, 13], axis=0)
        assert store.generation == 0
        store.compact()
        assert store.generation == 1
        assert store.tombstones == ()
        assert len(store) == store.live_row_count == 11
        assert "row-2" not in store.labels and "row-13" not in store.labels
        np.testing.assert_array_equal(_stacked(store), survivors)

    def test_survivor_results_match_across_the_compaction(self):
        # physical repacking shifts shard membership, so the GEMM edge
        # kernels may differ by an ulp — scan_jitter_atol, not exact
        store, sk = _store(n=14)
        service = DistanceService(store)
        queries = _batch(sk, 3, 4)
        store.delete(["row-2", "row-5", "row-13"])
        before = service.execute(CrossQuery(queries=queries)).payload
        stored = _stacked(store)
        store.compact()
        after = service.execute(CrossQuery(queries=queries)).payload
        atol = scan_jitter_atol(store, queries.values, stored)
        np.testing.assert_allclose(after, before, atol=atol, rtol=0.0)
        ranked = service.execute(TopKQuery(queries=queries, k=3)).payload
        assert all(len(r) == 3 for r in ranked)

    def test_merge_skips_tombstoned_rows(self):
        sk = _sketcher()
        a = ShardedSketchStore(shard_capacity=4)
        a.add_batch(_batch(sk, 6, 1, labels=tuple(f"a-{i}" for i in range(6))))
        b = ShardedSketchStore(shard_capacity=4)
        b.add_batch(_batch(sk, 5, 2, labels=tuple(f"b-{i}" for i in range(5))))
        expect = np.concatenate(
            [
                np.delete(_stacked(a), [1, 4], axis=0),
                np.delete(_stacked(b), [0], axis=0),
            ]
        )
        a.delete(["a-1", "a-4"])
        b.delete("b-0")
        merged = ShardedSketchStore.merge(a, b)
        assert merged.tombstones == ()
        assert len(merged) == 8
        assert list(merged.labels) == [
            "a-0", "a-2", "a-3", "a-5", "b-1", "b-2", "b-3", "b-4",
        ]
        np.testing.assert_array_equal(_stacked(merged), expect)


def _bits(ranking):
    """A ranking with each estimate as its bytes, so NaN equals itself."""
    return [(label, np.float64(estimate).tobytes()) for label, estimate in ranking]


class TestSelectionAndMasksProperty:
    """Top-k selection and tombstone masks against one unbounded pass.

    Stores repeat a few distinct rows at a few norm scales (exact ties,
    and bounds that visit shards out of storage order), carry NaN and
    infinite rows (f8 and f4 both hold them) and lose random rows and
    whole shards to deletes.  For every ``k`` up to past the live rows,
    top-k must equal :func:`tests.helpers.full_scan` bit for bit, and so
    must radius at 0, at an estimate and at infinity; cross must be the
    pre-delete matrix's live columns; no tombstoned label may surface.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_masked_scans_equal_the_full_scan(self, data):
        n = data.draw(st.integers(1, 20), label="rows")
        capacity = data.draw(st.integers(1, 8), label="shard_capacity")
        storage = data.draw(st.sampled_from(["f8", "f4"]), label="storage")
        odd_share = data.draw(st.sampled_from([0.0, 0.3, 0.8]), label="NaN/inf share")
        dead_share = data.draw(st.sampled_from([0.0, 0.2, 0.5]), label="dead share")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((rng.integers(1, 5), 32))
        pool *= rng.choice([0.25, 1.0, 4.0], size=(len(pool), 1))
        values = pool[rng.integers(0, len(pool), size=n)]
        odd = np.flatnonzero(rng.random(n) < odd_share)
        values[odd, rng.integers(0, 32, size=odd.size)] = rng.choice(
            [np.nan, np.inf, -np.inf], size=odd.size
        )
        sk = _sketcher()
        labels = tuple(f"row-{i}" for i in range(n))
        batch = dataclasses.replace(_batch(sk, n, seed), values=values, labels=labels)
        store = ShardedSketchStore(shard_capacity=capacity, storage=storage)
        store.add_batch(batch)

        m = data.draw(st.integers(1, 6), label="query rows")
        queries = _batch(sk, m, seed + 1)
        queries = dataclasses.replace(
            queries, values=queries.values * rng.choice([0.25, 1.0, 4.0], size=(m, 1))
        )
        before = DistanceService(store).execute(CrossQuery(queries=queries)).payload

        doomed = set(np.flatnonzero(rng.random(n) < dead_share).tolist())
        for shard in data.draw(st.lists(st.integers(0, (n - 1) // capacity), max_size=2)):
            doomed.update(range(shard * capacity, min(n, (shard + 1) * capacity)))
        if doomed:
            store.delete([labels[i] for i in doomed])
        dead = {labels[i] for i in doomed}
        live = np.setdiff1d(np.arange(n), sorted(doomed))

        # a finite radius is one of the estimates themselves: a tie at the edge
        edges = before[np.isfinite(before) & (before >= 0)].tolist() or [1.0]
        radius_sq = data.draw(
            st.sampled_from([0.0, np.inf]) | st.sampled_from(edges), label="radius_sq"
        )
        reference = full_scan(store, TopKQuery(queries=queries, k=n + 1))
        for workers in (1, 4):
            with DistanceService(store, ExecutionPolicy(workers=workers)) as service:
                for k in range(1, n + 2):
                    ranked = service.execute(TopKQuery(queries=queries, k=k)).payload
                    assert [_bits(r) for r in ranked] == [_bits(r[:k]) for r in reference]
                    assert not dead & {label for r in ranked for label, _ in r}
                for row in range(m):
                    radius = RadiusQuery(query=queries.row(row), radius_sq=radius_sq)
                    hits = service.execute(radius).payload
                    assert _bits(hits) == _bits(full_scan(store, radius))
                    assert not dead & {label for label, _ in hits}
                cross = service.execute(CrossQuery(queries=queries)).payload
                assert cross.tobytes() == before[:, live].tobytes()
