"""Ablations of the sketch's design choices (docs/ARCHITECTURE.md maps the layers).

Each benchmark varies exactly one choice and asserts the expected
direction of the effect:

* SJLT construction (b) graph vs (c) block — same sensitivities, same
  asymptotic variance; apply cost comparable;
* precomputed vs lazy SJLT hash tables — precompute buys apply speed at
  O(sd) memory, lazy keeps memory flat;
* classical vs analytic Gaussian calibration — analytic needs strictly
  less noise at the same (eps, delta);
* hash independence t=2 vs t=8 — higher independence costs Horner
  steps, but the projection statistics the estimator needs survive.
"""

import dataclasses

import numpy as np

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.dp.mechanisms import analytic_gaussian_sigma, classical_gaussian_sigma
from repro.transforms.sjlt import SJLT

_D = 1 << 12
_K = 256
_S = 8


def _x():
    return np.random.default_rng(0).standard_normal(_D)


def test_ablation_block_construction_apply(benchmark):
    transform = SJLT(_D, _K, _S, seed=0, construction="block")
    out = benchmark(transform.apply, _x())
    assert out.shape == (_K,)


def test_ablation_graph_construction_apply(benchmark):
    transform = SJLT(_D, _K, _S, seed=0, construction="graph")
    out = benchmark(transform.apply, _x())
    assert out.shape == (_K,)


def test_ablation_graph_vs_block_same_sensitivities(benchmark):
    def sensitivities():
        block = SJLT(_D, _K, _S, seed=1, construction="block")
        graph = SJLT(_D, _K, _S, seed=1, construction="graph")
        return block.sensitivity(1), graph.sensitivity(1), block.sensitivity(2), graph.sensitivity(2)

    b1, g1, b2, g2 = benchmark(sensitivities)
    assert b1 == g1 and b2 == g2  # deterministic closed forms for both


def test_ablation_precomputed_apply(benchmark):
    transform = SJLT(_D, _K, _S, seed=0, precompute=True)
    out = benchmark(transform.apply, _x())
    assert out.shape == (_K,)


def test_ablation_lazy_apply(benchmark):
    transform = SJLT(_D, _K, _S, seed=0, precompute=False)
    out = benchmark(transform.apply, _x())
    assert out.shape == (_K,)


def test_ablation_lazy_matches_precomputed(benchmark):
    eager = SJLT(_D, _K, _S, seed=3, precompute=True)
    lazy = SJLT(_D, _K, _S, seed=3, precompute=False)
    x = _x()

    def both():
        return eager.apply(x), lazy.apply(x)

    a, b = benchmark(both)
    assert np.allclose(a, b)


def test_ablation_analytic_gaussian_noise_saving(benchmark):
    """The analytic calibration is strictly tighter at every (eps, delta)."""

    def ratios():
        out = []
        for eps in (0.3, 1.0, 3.0):
            for delta in (1e-4, 1e-8):
                out.append(
                    analytic_gaussian_sigma(1.0, eps, delta)
                    / classical_gaussian_sigma(1.0, min(eps, 1.0), delta)
                )
        return out

    values = benchmark(ratios)
    assert all(r < 1.0 for r in values)


def test_ablation_analytic_gaussian_variance_effect(benchmark):
    """End to end: analytic calibration lowers the estimator variance."""
    base = SketchConfig(
        input_dim=_D, epsilon=1.0, delta=1e-6, output_dim=_K, sparsity=_S,
        noise="gaussian",
    )

    def variances():
        classical = PrivateSketcher(base)
        analytic = PrivateSketcher(dataclasses.replace(base, analytic_gaussian=True))
        return classical.theoretical_variance(16.0), analytic.theoretical_variance(16.0)

    classical_var, analytic_var = benchmark(variances)
    assert analytic_var < classical_var


def test_ablation_independence_2(benchmark):
    transform = SJLT(_D, _K, _S, seed=0, independence=2, precompute=False)
    out = benchmark(transform.apply, _x())
    assert out.shape == (_K,)


def test_ablation_independence_8(benchmark):
    transform = SJLT(_D, _K, _S, seed=0, independence=8, precompute=False)
    out = benchmark(transform.apply, _x())
    assert out.shape == (_K,)


def test_ablation_independence_preserves_lpp(benchmark):
    """Even pairwise independence preserves LPP in expectation (the
    estimator's unbiasedness only needs 2-wise sign moments)."""
    x = np.random.default_rng(1).standard_normal(256)

    def mean_distortion():
        total = 0.0
        for seed in range(150):
            t = SJLT(256, 64, 4, seed=seed, independence=2)
            y = t.apply(x)
            total += float(y @ y)
        return total / 150 / float(x @ x)

    ratio = benchmark.pedantic(mean_distortion, rounds=1, iterations=1)
    assert 0.85 < ratio < 1.15
