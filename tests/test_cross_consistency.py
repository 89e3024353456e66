"""Cross-module consistency: independent code paths must agree.

Several quantities are computed in more than one place (by design:
theory formulas vs live mechanisms, baseline vs core, config resolution
vs theory helpers).  These tests pin the implementations to each other
so they cannot drift apart silently.
"""

import math

import numpy as np
import pytest

from repro.baselines.kenthapadi import KenthapadiSketcher
from repro.core.mechanism_choice import build_mechanism
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.dp.noise import noise_from_spec
from repro.experiments.registry import EXPERIMENTS
from repro.theory.bounds import jl_output_dimension, sjlt_dimensions


class TestSketcherVsBaseline:
    def test_same_sigma_as_kenthapadi_given_same_transform(self):
        """PrivateSketcher(gaussian, exact sensitivity) and the baseline
        must calibrate identically on the same seed."""
        config = SketchConfig(
            input_dim=64, epsilon=1.0, delta=1e-5, transform="gaussian",
            noise="gaussian", output_dim=16, seed=9,
        )
        ours = PrivateSketcher(config)
        theirs = KenthapadiSketcher(64, 16, epsilon=1.0, delta=1e-5, seed=9)
        assert ours.noise.sigma == pytest.approx(theirs.sigma)

    def test_same_estimates_given_same_draws(self):
        config = SketchConfig(
            input_dim=64, epsilon=1.0, delta=1e-5, transform="gaussian",
            noise="gaussian", output_dim=16, seed=9,
        )
        ours = PrivateSketcher(config)
        theirs = KenthapadiSketcher(64, 16, epsilon=1.0, delta=1e-5, seed=9)
        x, y = np.ones(64), np.zeros(64)
        ours_est = ours.estimate_sq_distance(
            ours.sketch(x, noise_rng=1), ours.sketch(y, noise_rng=2)
        )
        theirs_est = theirs.estimate_sq_distance(
            theirs.sketch(x, noise_rng=1), theirs.sketch(y, noise_rng=2)
        )
        # same transform (same seed), same sigma, same correction — the
        # noise streams differ only through rng context, so compare the
        # corrections structurally instead of the raw values:
        assert ours.distance_correction == pytest.approx(2 * 16 * theirs.sigma**2)
        assert np.isfinite(ours_est) and np.isfinite(theirs_est)

    def test_baseline_variance_equals_core_formula(self):
        from repro.core.variance import kenthapadi_variance

        theirs = KenthapadiSketcher(64, 32, epsilon=1.0, delta=1e-5, seed=0)
        assert theirs.theoretical_variance(4.0) == pytest.approx(
            kenthapadi_variance(32, theirs.sigma, 4.0)
        )


class TestConfigVsTheory:
    def test_default_dimensions_match_theory_helpers(self):
        config = SketchConfig(input_dim=512, epsilon=1.0, alpha=0.2, beta=0.01)
        sk = PrivateSketcher(config)
        k, s = sjlt_dimensions(0.2, 0.01)
        assert (sk.output_dim, sk.sparsity) == (k, s)

    def test_dense_transform_dimension_matches_theory(self):
        config = SketchConfig(
            input_dim=512, epsilon=1.0, delta=1e-5, transform="gaussian",
            noise="gaussian", alpha=0.2, beta=0.01,
        )
        assert PrivateSketcher(config).output_dim == jl_output_dimension(0.2, 0.01)

    def test_note5_choice_matches_rule_module(self):
        from repro.core.mechanism_choice import choose_noise_name

        config = SketchConfig(input_dim=64, epsilon=1.0, delta=1e-9, output_dim=16, sparsity=4)
        sk = PrivateSketcher(config)
        rule = choose_noise_name(math.sqrt(4), 1.0, 1.0, 1e-9)
        assert sk.noise.name == rule.noise_name

    def test_theoretical_variance_matches_theorem3_formula(self):
        from repro.core.variance import sjlt_laplace_variance_bound

        config = SketchConfig(input_dim=64, epsilon=2.0, output_dim=32, sparsity=4)
        sk = PrivateSketcher(config)
        assert sk.theoretical_variance(9.0) == pytest.approx(
            sjlt_laplace_variance_bound(32, 4, 2.0, 9.0)
        )


class TestNoiseSpecRoundtrips:
    @pytest.mark.parametrize(
        "name,delta",
        [("laplace", 0.0), ("discrete_laplace", 0.0), ("gaussian", 1e-5),
         ("discrete_gaussian", 1e-5)],
    )
    def test_every_mechanism_noise_spec_roundtrips(self, name, delta):
        mech = build_mechanism(name, 2.0, 1.0, 1.0, delta)
        rebuilt = noise_from_spec(mech.noise.spec())
        assert type(rebuilt) is type(mech.noise)
        assert rebuilt.second_moment == pytest.approx(mech.noise.second_moment)
        assert rebuilt.fourth_moment == pytest.approx(mech.noise.fourth_moment)

    def test_sketch_carries_live_second_moment(self):
        config = SketchConfig(input_dim=64, epsilon=1.0, output_dim=16, sparsity=4)
        sk = PrivateSketcher(config)
        sketch = sk.sketch(np.ones(64))
        rebuilt = noise_from_spec(sketch.noise_spec)
        assert sketch.noise_second_moment == pytest.approx(rebuilt.second_moment)


class TestRegistryVsDesign:
    def test_every_experiment_has_bench_file(self):
        """Every experiment ID in the registry has one bench target."""
        import pathlib

        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        bench_source = "\n".join(
            p.read_text() for p in bench_dir.glob("bench_*.py")
        )
        for eid in EXPERIMENTS:
            assert f'"{eid}"' in bench_source or f"'{eid}'" in bench_source, (
                f"{eid} has no benchmark regenerating it"
            )

    def test_experiment_ids_unique_prefix_format(self):
        for eid in EXPERIMENTS:
            assert eid.startswith("EXP-")

    def test_experiments_runnable_objects(self):
        for eid, cls in EXPERIMENTS.items():
            instance = cls()
            assert hasattr(instance, "run")
