"""Release checks the projection for non-finite values before the input.

:meth:`~repro.transforms.base.LinearTransform.apply_batch` checks the
``(n, k)`` projection instead of the ``(n, d)`` input when its
:class:`~repro.transforms.base.CooProjector` holds a stored entry in
every input column (SJLT, DKS): a NaN or infinite coordinate then
reaches some output coordinate, and ``X`` is read only when a projected
entry is not finite.  Every other transform checks ``X`` first.  The
order must be invisible: the property feeds every transform (and a
sparse one with an empty column, where output-first would be wrong)
float32, Fortran-ordered and strided inputs with non-finite cells and
rows scaled until the projection overflows, and compares each call with
the input-first reference — same error and message, or the same bytes,
and the same warnings.  A rejected ``sketch_batch`` draws no noise.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.transforms import base
from repro.transforms.base import CooProjector, LinearTransform
from repro.utils.validation import as_float_matrix
from tests.helpers import TRANSFORM_SPECS, make_transform, spec_id

_D, _K = 24, 8
_BIG = np.finfo(np.float64).max / 4  # finite, but a few summed overflow


class _EmptyColumnTransform(LinearTransform):
    """A sparse projection that never reads input column 0."""

    name = "empty-column"

    def __init__(self, input_dim: int, output_dim: int, seed: int) -> None:
        super().__init__(input_dim, output_dim, seed)
        rng = np.random.default_rng(seed)
        cols = np.repeat(np.arange(1, input_dim), 2)
        rows = rng.integers(0, output_dim, size=cols.size)
        values = rng.choice([-1.0, 1.0], size=cols.size)
        self._projector = CooProjector(rows, cols, values, output_dim, input_dim)

    def _input_projector(self) -> CooProjector:
        return self._projector

    def _apply_batch(self, X: np.ndarray) -> np.ndarray:
        return self._projector(X)


_SPECS = [*TRANSFORM_SPECS, ("empty-column", {})]

#: The sketcher-level cases: every registered transform, as in
#: ``tests/test_batch_consistency.py``; kwargs are SketchConfig fields.
_SKETCHER_CASES = [
    ("sjlt", {"sparsity": 4}),
    ("sjlt", {"sparsity": 4, "sjlt_construction": "graph"}),
    ("dks", {"sparsity": 4}),
    ("gaussian", {}),
    ("achlioptas", {}),
    ("fjlt", {}),
]


@functools.cache
def _transform(index: int) -> LinearTransform:
    spec = _SPECS[index]
    if spec[0] == "empty-column":
        return _EmptyColumnTransform(_D, _K, seed=5)
    return make_transform(spec, input_dim=_D, output_dim=_K, seed=5)


@functools.cache
def _sketcher(index: int, mode: str) -> PrivateSketcher:
    name, kwargs = _SKETCHER_CASES[index]
    return PrivateSketcher(
        SketchConfig(
            input_dim=_D, epsilon=2.0, delta=1e-6, output_dim=_K, transform=name,
            noise="gaussian", perturbation=mode, seed=5, **kwargs,
        )
    )


def _reference(transform: LinearTransform, X) -> np.ndarray:
    """The input-first order: check every input entry, then project."""
    return transform._apply_batch(as_float_matrix(X, transform.input_dim, "X"))


def _outcome(call, X):
    """``(result, warnings)``: the output's bytes or the error, and what it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call(X)
            result = ("ok", out.dtype.str, out.shape, out.tobytes())
        except Exception as exc:  # noqa: BLE001 - compared, not swallowed
            result = ("raised", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@st.composite
def _inputs(draw):
    """An input matrix in any dtype and layout, finite or not."""
    n = draw(st.integers(0, 40), label="rows")
    dtype = draw(st.sampled_from([np.float64, np.float32]), label="dtype")
    layout = draw(st.sampled_from(["C", "F", "strided"]), label="layout")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    X = rng.standard_normal((n, _D))
    if n:
        for row in draw(st.lists(st.integers(0, n - 1), max_size=3), label="huge rows"):
            X[row] = np.where(X[row] < 0, -_BIG, _BIG)  # overflows as float64
        cells = st.tuples(
            st.integers(0, n - 1),
            st.one_of(st.just(0), st.integers(1, _D - 1)),  # 0: the empty column
            st.sampled_from([np.nan, np.inf, -np.inf]),
        )
        for row, col, value in draw(st.lists(cells, max_size=4), label="non-finite"):
            X[row, col] = value
    with np.errstate(over="ignore"):  # float32 turns the huge rows into inf
        X = X.astype(dtype)
    if layout == "F":
        return np.asfortranarray(X)
    if layout == "strided":
        wide = np.zeros((2 * n, 2 * _D), dtype=dtype)
        wide[::2, ::2] = X
        return wide[::2, ::2]
    return X


class TestValidationOrder:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        index=st.sampled_from(range(len(_SPECS))),
        X=_inputs(),
    )
    def test_apply_batch_matches_the_input_first_reference(self, index, X):
        transform = _transform(index)
        before = X.copy()
        got = _outcome(transform.apply_batch, X)
        want = _outcome(functools.partial(_reference, transform), X)
        assert got == want, _SPECS[index]
        np.testing.assert_array_equal(X, before)  # the input is never written

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        index=st.sampled_from(range(len(_SKETCHER_CASES))),
        mode=st.sampled_from(["output", "input"]),
        seed=st.integers(0, 2**16),
        X=_inputs(),
    )
    def test_sketch_batch_rejects_before_drawing_noise(self, index, mode, seed, X):
        sketcher = _sketcher(index, mode)
        reference, _ = _outcome(functools.partial(_reference, sketcher.transform), X)
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        result, caught = _outcome(lambda X: sketcher.sketch_batch(X, noise_rng=rng).values, X)
        if reference[0] == "raised":
            assert result == reference
            assert caught == []
            assert rng.bit_generator.state == state
        else:
            assert result[0] == "ok"


class TestProjectorCoverage:
    @pytest.mark.parametrize("scipy_path", [True, False], ids=["scipy", "bincount"])
    @pytest.mark.parametrize("spec", TRANSFORM_SPECS, ids=spec_id)
    def test_only_sjlt_and_dks_check_the_projection(self, spec, scipy_path, monkeypatch):
        if scipy_path:
            pytest.importorskip("scipy")
        else:
            monkeypatch.setattr(base, "_load_scipy_sparse", lambda: None)
        projector = make_transform(spec, input_dim=_D, output_dim=_K)._input_projector()
        if spec[0] in ("sjlt", "dks"):
            assert projector.covers_every_column
        else:
            assert projector is None

    @pytest.mark.parametrize("scipy_path", [True, False], ids=["scipy", "bincount"])
    def test_coverage_is_read_from_the_matrix(self, scipy_path, monkeypatch):
        if scipy_path:
            pytest.importorskip("scipy")
        else:
            monkeypatch.setattr(base, "_load_scipy_sparse", lambda: None)
        # column 2 holds a duplicate pair that sums to zero: still stored
        rows, cols = [0, 1, 1, 1, 0], [0, 1, 2, 2, 3]
        values = [1.0, -1.0, 1.0, -1.0, 2.0]
        assert CooProjector(rows, cols, values, 2, 4).covers_every_column
        assert not CooProjector(rows, cols, values, 2, 5).covers_every_column
        X = np.zeros((1, 4))
        X[0, 2] = np.inf
        assert not np.isfinite(CooProjector(rows, cols, values, 2, 4)(X)).all()
