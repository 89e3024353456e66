"""Batch paths must agree with the scalar paths they vectorise.

The batch engine (``apply_batch`` / ``sketch_batch`` / the matrix
estimators) is a pure performance layer: for every registered transform
and both perturbation modes, feeding the same data and the same noise
generator through the batch path and the row-by-row scalar path must
give the same numbers to near machine precision — and exactly the same
numbers for the sparse transforms behind ``CooProjector``, whatever the
batch size or the way a batch is split.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.hashing import prg
from repro.transforms import TRANSFORMS, base, create_transform
from tests.helpers import TRANSFORM_SPECS, make_transform, spec_id

_DIM = 64
_OUT = 32

#: Transforms whose batch path is the tiled ``CooProjector``: their
#: batch and scalar projections agree bit for bit.
_COO_BACKED = {"sjlt", "dks", "fjlt"}

#: One sketcher-level case per registered transform (plus the SJLT's
#: second construction); kwargs are SketchConfig fields.
SKETCHER_CASES = [
    ("sjlt", {"output_dim": _OUT, "sparsity": 4}),
    ("sjlt", {"output_dim": _OUT, "sparsity": 4, "sjlt_construction": "graph"}),
    ("dks", {"output_dim": _OUT, "sparsity": 4}),
    ("gaussian", {"output_dim": _OUT}),
    ("achlioptas", {"output_dim": _OUT}),
    ("fjlt", {"output_dim": _OUT}),
]


def _case_id(case) -> str:
    name, kwargs = case
    extras = "-".join(f"{k}={v}" for k, v in sorted(kwargs.items()) if k != "output_dim")
    return f"{name}({extras})" if extras else name


def test_every_registered_transform_has_a_sketcher_case():
    assert {name for name, _ in SKETCHER_CASES} == set(TRANSFORMS)


@pytest.mark.parametrize("spec", TRANSFORM_SPECS, ids=spec_id)
class TestApplyBatch:
    def test_rows_match_scalar_apply(self, spec):
        t = make_transform(spec)
        X = np.random.default_rng(0).standard_normal((6, t.input_dim))
        out = t.apply_batch(X)
        assert out.shape == (6, t.output_dim)
        for i in range(6):
            if spec[0] in _COO_BACKED:
                np.testing.assert_array_equal(out[i], t.apply(X[i]))
            else:
                np.testing.assert_allclose(out[i], t.apply(X[i]), rtol=0, atol=1e-10)

    def test_matches_dense_matmul(self, spec):
        t = make_transform(spec)
        X = np.random.default_rng(1).standard_normal((4, t.input_dim))
        np.testing.assert_allclose(t.apply_batch(X), X @ t.to_dense().T, atol=1e-9)

    def test_empty_batch(self, spec):
        t = make_transform(spec)
        out = t.apply_batch(np.empty((0, t.input_dim)))
        assert out.shape == (0, t.output_dim)

    def test_wrong_row_dimension_rejected(self, spec):
        t = make_transform(spec)
        with pytest.raises(ValueError, match="row dimension"):
            t.apply_batch(np.ones((3, t.input_dim + 1)))


#: (transform, kwargs) behind ``CooProjector``, SJLT in both constructions.
_SPLIT_CASES = [
    ("sjlt", {"sparsity": 4}),
    ("sjlt", {"sparsity": 4, "construction": "graph"}),
    ("dks", {"sparsity": 4}),
    ("fjlt", {}),
]
#: A small width, the benchmark's width, and one so wide that the byte
#: budget alone would give 1-row tiles, so the row floor sets the tile.
_SPLIT_WIDTHS = [160, 1024, 40_000]


@functools.lru_cache(maxsize=None)
def _split_transform(case_index: int, width: int):
    name, kwargs = _SPLIT_CASES[case_index]
    return create_transform(name, width, 16, seed=case_index, **kwargs)


def _tile_rows(t) -> int:
    """Rows per tile of ``t``'s projector (FJLT projects the padded width)."""
    width = getattr(t, "padded_dim", t.input_dim)
    return max(base._MIN_TILE_ROWS, base._TILE_BYTES // (8 * width))


_CASE_IDS = [spec_id(case) for case in _SPLIT_CASES]


@pytest.mark.parametrize("width", _SPLIT_WIDTHS, ids=lambda w: f"d={w}")
@pytest.mark.parametrize("case_index", range(len(_SPLIT_CASES)), ids=_CASE_IDS)
class TestBatchSplitInvariance:
    """A row's release does not depend on the batch it is projected in."""

    def test_tile_rows_follow_the_byte_budget(self, case_index, width):
        t = _split_transform(case_index, width)
        t.apply_batch(np.zeros((1, t.input_dim)))
        assert t._projector.tile_rows == _tile_rows(t)
        if width == max(_SPLIT_WIDTHS):
            assert _tile_rows(t) == base._MIN_TILE_ROWS
        else:
            assert _tile_rows(t) > base._MIN_TILE_ROWS

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_splits_and_rows_match_whole_batch(self, case_index, width, data):
        t = _split_transform(case_index, width)
        tiles = _tile_rows(t)
        n = data.draw(
            st.sampled_from(sorted({0, 1, tiles - 1, tiles, tiles + 1, 3 * tiles + 2})),
            label="n",
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4), label="cuts"))
        seed = data.draw(st.integers(0, 2**16), label="seed")
        X = np.random.default_rng(seed).standard_normal((n, t.input_dim))

        whole = t.apply_batch(X)
        assert whole.shape == (n, t.output_dim)
        assert whole.flags.c_contiguous
        bounds = [0, *cuts, n]
        parts = [t.apply_batch(X[a:b]) for a, b in zip(bounds, bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        for i in range(n):
            np.testing.assert_array_equal(t.apply(X[i]), whole[i])


class TestCooProjectorFallbackParity:
    """The scipy-less ``bincount`` scatter agrees with the tiled scipy path."""

    @pytest.mark.parametrize("case_index", range(len(_SPLIT_CASES)), ids=_CASE_IDS)
    def test_transform_fallback_matches_tiled_path(self, case_index, monkeypatch):
        pytest.importorskip("scipy")
        name, kwargs = _SPLIT_CASES[case_index]
        tiled = create_transform(name, 1024, 16, seed=7, **kwargs)
        tiles = _tile_rows(tiled)
        X = np.random.default_rng(case_index).standard_normal((3 * tiles + 2, 1024))
        tiled.apply_batch(X[:1])  # builds the projector while scipy is present
        monkeypatch.setattr(base, "_load_scipy_sparse", lambda: None)
        fallback = create_transform(name, 1024, 16, seed=7, **kwargs)
        fallback.apply_batch(X[:1])
        assert tiled._projector._matrix is not None
        assert fallback._projector._matrix is None
        for n in (1, tiles - 1, tiles, tiles + 1, X.shape[0]):
            np.testing.assert_allclose(
                fallback.apply_batch(X[:n]), tiled.apply_batch(X[:n]), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicate_entries_are_summed_on_both_paths(self, seed, monkeypatch):
        pytest.importorskip("scipy")
        # DKS-style columns: s rows drawn with replacement from only
        # k = 4, so most columns repeat a (row, col) pair
        k, m, s = 4, 300, 6
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, k, size=(s, m))
        cols = np.broadcast_to(np.arange(m), rows.shape)
        values = rng.choice([-1.0, 1.0], size=(s, m)) * rng.uniform(0.5, 2.0, size=(s, m))
        assert np.unique(rows * m + cols).size < rows.size
        tiled = base.CooProjector(rows, cols, values, k, m)
        monkeypatch.setattr(base, "_load_scipy_sparse", lambda: None)
        fallback = base.CooProjector(rows, cols, values, k, m)
        dense = np.zeros((k, m))
        np.add.at(dense, (rows.ravel(), cols.ravel()), values.ravel())
        X = np.random.default_rng(99).standard_normal((2 * tiled.tile_rows + 3, m))
        np.testing.assert_allclose(fallback(X), tiled(X), rtol=0, atol=1e-12)
        np.testing.assert_allclose(tiled(X), X @ dense.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["output", "input"])
@pytest.mark.parametrize("case", SKETCHER_CASES, ids=_case_id)
class TestSketchBatchMatchesScalar:
    def _sketcher(self, case, mode):
        name, kwargs = case
        config = SketchConfig(
            input_dim=_DIM,
            epsilon=1.5,
            delta=1e-6,
            transform=name,
            noise="gaussian",
            perturbation=mode,
            **kwargs,
        )
        return PrivateSketcher(config)

    def test_rows_match_scalar_sketches(self, case, mode):
        sk = self._sketcher(case, mode)
        X = np.random.default_rng(3).standard_normal((5, _DIM))
        batch = sk.sketch_batch(X, noise_rng=prg.derive_rng(11, "batch-vs-loop"))
        generator = prg.derive_rng(11, "batch-vs-loop")
        for i in range(5):
            scalar = sk.sketch(X[i], noise_rng=generator)
            if case[0] in _COO_BACKED:
                np.testing.assert_array_equal(batch.values[i], scalar.values)
            else:
                np.testing.assert_allclose(batch.values[i], scalar.values, rtol=0, atol=1e-9)

    def test_rows_carry_scalar_metadata(self, case, mode):
        sk = self._sketcher(case, mode)
        X = np.random.default_rng(4).standard_normal((2, _DIM))
        batch = sk.sketch_batch(X, noise_rng=0)
        scalar = sk.sketch(X[0], noise_rng=0)
        row = batch[0]
        assert row.config_digest == scalar.config_digest
        assert row.perturbation == scalar.perturbation
        assert row.noise_spec == scalar.noise_spec
        assert row.noise_second_moment == scalar.noise_second_moment
        assert row.guarantee == scalar.guarantee

    def test_estimates_match_scalar_estimators(self, case, mode):
        sk = self._sketcher(case, mode)
        X = np.random.default_rng(5).standard_normal((4, _DIM))
        batch = sk.sketch_batch(X, noise_rng=1)
        pairwise = estimators.pairwise_sq_distances(batch)
        norms = estimators.sq_norms(batch)
        for i in range(4):
            assert norms[i] == pytest.approx(
                estimators.estimate_sq_norm(batch[i]), abs=1e-8
            )
            for j in range(i + 1, 4):
                assert pairwise[i, j] == pytest.approx(
                    estimators.estimate_sq_distance(batch[i], batch[j]), abs=1e-8
                )


class TestDiscreteNoiseStreamContract:
    """Per-row noise draws keep batch == loop even for rejection samplers."""

    @pytest.mark.parametrize("noise", ["discrete_laplace", "discrete_gaussian"])
    def test_batch_matches_loop_for_discrete_noise(self, noise):
        delta = 1e-6 if noise == "discrete_gaussian" else 0.0
        config = SketchConfig(
            input_dim=_DIM, epsilon=1.0, delta=delta, noise=noise,
            output_dim=_OUT, sparsity=4,
        )
        sk = PrivateSketcher(config)
        X = np.random.default_rng(6).standard_normal((4, _DIM))
        batch = sk.sketch_batch(X, noise_rng=prg.derive_rng(7, "discrete"))
        generator = prg.derive_rng(7, "discrete")
        for i in range(4):
            scalar = sk.sketch(X[i], noise_rng=generator)
            np.testing.assert_array_equal(batch.values[i], scalar.values)


class TestStreamingBatchUpdates:
    def test_update_batch_matches_scalar_updates(self):
        config = SketchConfig(input_dim=_DIM, epsilon=1.0, output_dim=_OUT, sparsity=4)
        a, b = PrivateSketcher(config), PrivateSketcher(config)
        from repro.core.streaming import StreamingSketch

        rng = np.random.default_rng(8)
        indices = rng.integers(0, _DIM, size=200)
        deltas = rng.standard_normal(200)
        vec, loop = StreamingSketch(a), StreamingSketch(b)
        vec.update_batch(indices, deltas)
        for index, delta in zip(indices, deltas):
            loop.update(int(index), float(delta))
        np.testing.assert_allclose(
            vec.current_projection(), loop.current_projection(), atol=1e-9
        )
        assert vec.n_updates == loop.n_updates == 200
