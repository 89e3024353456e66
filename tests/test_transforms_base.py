"""Tests for the LinearTransform interface shared by all projections."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.transforms import exact_sensitivity
from tests.helpers import TRANSFORM_SPECS, fresh_vector, make_transform, spec_id


@pytest.mark.parametrize("spec", TRANSFORM_SPECS, ids=spec_id)
class TestInterfaceContract:
    def test_apply_shape_single(self, spec):
        t = make_transform(spec)
        y = t.apply(fresh_vector())
        assert y.shape == (t.output_dim,)

    def test_apply_shape_batch(self, spec):
        t = make_transform(spec)
        batch = np.random.default_rng(0).standard_normal((5, t.input_dim))
        out = t.apply(batch)
        assert out.shape == (5, t.output_dim)

    def test_batch_rows_match_single(self, spec):
        t = make_transform(spec)
        batch = np.random.default_rng(1).standard_normal((4, t.input_dim))
        out = t.apply(batch)
        for i in range(4):
            assert np.allclose(out[i], t.apply(batch[i]), atol=1e-10)

    def test_linearity(self, spec):
        t = make_transform(spec)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(t.input_dim), rng.standard_normal(t.input_dim)
        assert np.allclose(t.apply(x + 3.0 * y), t.apply(x) + 3.0 * t.apply(y), atol=1e-9)

    def test_zero_maps_to_zero(self, spec):
        t = make_transform(spec)
        assert np.allclose(t.apply(np.zeros(t.input_dim)), 0.0)

    def test_determinism_across_instances(self, spec):
        x = fresh_vector()
        a = make_transform(spec, seed=7).apply(x)
        b = make_transform(spec, seed=7).apply(x)
        assert np.allclose(a, b)

    def test_different_seeds_give_different_maps(self, spec):
        x = fresh_vector()
        a = make_transform(spec, seed=1).apply(x)
        b = make_transform(spec, seed=2).apply(x)
        assert not np.allclose(a, b)

    def test_to_dense_agrees_with_apply(self, spec):
        t = make_transform(spec)
        x = fresh_vector()
        assert np.allclose(t.to_dense() @ x, t.apply(x), atol=1e-9)

    def test_column_block_matches_dense(self, spec):
        t = make_transform(spec)
        dense = t.to_dense()
        cols = np.array([0, 3, t.input_dim - 1])
        assert np.allclose(t.column_block(cols), dense[:, cols], atol=1e-12)

    def test_apply_sparse_matches_dense_apply(self, spec):
        t = make_transform(spec)
        x = np.zeros(t.input_dim)
        idx = np.array([1, 5, 17, t.input_dim - 1])
        vals = np.array([1.5, -2.0, 0.5, 3.0])
        x[idx] = vals
        assert np.allclose(t.apply_sparse(idx, vals), t.apply(x), atol=1e-9)

    def test_coordinate_embedding_matches_column(self, spec):
        t = make_transform(spec)
        dense = t.to_dense()
        rows, values = t.coordinate_embedding(4)
        rebuilt = np.zeros(t.output_dim)
        np.add.at(rebuilt, rows, values)
        assert np.allclose(rebuilt, dense[:, 4], atol=1e-12)

    def test_exact_sensitivity_matches_dense(self, spec):
        t = make_transform(spec)
        dense = t.to_dense()
        for p in (1, 2):
            expected = np.abs(dense) ** p
            expected = float((expected.sum(axis=0) ** (1.0 / p)).max())
            assert exact_sensitivity(t, p, block_size=17) == pytest.approx(expected)

    def test_wrong_dimension_rejected(self, spec):
        t = make_transform(spec)
        with pytest.raises(ValueError):
            t.apply(np.ones(t.input_dim + 1))

    def test_sparse_indices_validated(self, spec):
        t = make_transform(spec)
        with pytest.raises(ValueError):
            t.apply_sparse(np.array([t.input_dim]), np.array([1.0]))

    def test_coordinate_embedding_index_validated(self, spec):
        t = make_transform(spec)
        with pytest.raises(ValueError):
            t.coordinate_embedding(t.input_dim)


@pytest.mark.parametrize("spec", TRANSFORM_SPECS, ids=spec_id)
def test_lpp_within_monte_carlo_error(spec):
    """Definition 4: E[||Sx||^2] == ||x||^2 for every transform."""
    from tests.helpers import mean_distortion

    x = fresh_vector(seed=3)
    ratio = mean_distortion(spec, x, trials=300)
    assert ratio == pytest.approx(1.0, abs=0.08)


class TestConstructorValidation:
    def test_rejects_zero_input_dim(self):
        from repro.transforms.gaussian import GaussianTransform

        with pytest.raises(ValueError):
            GaussianTransform(0, 4, seed=0)

    def test_rejects_zero_output_dim(self):
        from repro.transforms.gaussian import GaussianTransform

        with pytest.raises(ValueError):
            GaussianTransform(4, 0, seed=0)

    def test_exact_sensitivity_validates_p(self):
        t = make_transform(("gaussian", {}))
        with pytest.raises(ValueError):
            exact_sensitivity(t, 0.5)


class TestScipyImport:
    """scipy.sparse loads with the first CooProjector, not with the package."""

    def _run(self, source: str) -> str:
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(source)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        return done.stdout.strip()

    def test_serving_imports_leave_scipy_sparse_unloaded(self):
        assert self._run(
            """
            import sys
            import repro.serving, repro.serving.server
            print("scipy.sparse" in sys.modules)
            """
        ) == "False"

    def test_the_first_projector_loads_it(self):
        # where scipy is installed; without it the bincount fallback runs
        assert self._run(
            """
            import importlib.util, sys
            import numpy as np
            from repro.transforms import SJLT
            t = SJLT(16, 8, 2, seed=0)
            before = "scipy.sparse" in sys.modules
            t.apply_batch(np.ones((2, 16)))
            installed = importlib.util.find_spec("scipy") is not None
            print(before, ("scipy.sparse" in sys.modules) == installed)
            """
        ) == "False True"
