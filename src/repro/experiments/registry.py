"""Registry mapping experiment IDs to their implementations.

This is the experiment index: each ID maps to one claim in the paper.
``run_experiment`` is the single entry point used by the CLI
(``python -m repro.experiments``) and the benchmarks.
"""

from __future__ import annotations

from repro.experiments.exp_audit import AuditExperiment
from repro.experiments.exp_comparison import ComparisonExperiment
from repro.experiments.exp_crossover_note5 import CrossoverExperiment
from repro.experiments.exp_discrete_noise import DiscreteNoiseExperiment
from repro.experiments.exp_inner_product import InnerProductExperiment
from repro.experiments.exp_jl_quality import JLQualityExperiment
from repro.experiments.exp_lower_bound import LowerBoundExperiment
from repro.experiments.exp_optimal_k import OptimalKExperiment
from repro.experiments.exp_secret_projection import SecretProjectionExperiment
from repro.experiments.exp_sensitivity import SensitivityExperiment
from repro.experiments.exp_streaming import StreamingExperiment
from repro.experiments.exp_timing import TimingExperiment
from repro.experiments.exp_variance_fjlt import FJLTVarianceExperiment
from repro.experiments.exp_variance_iid import IIDVarianceExperiment
from repro.experiments.exp_variance_sjlt import SJLTVarianceExperiment
from repro.experiments.harness import Experiment, ExperimentResult

EXPERIMENTS: dict[str, type[Experiment]] = {
    cls.id: cls
    for cls in (
        IIDVarianceExperiment,
        SJLTVarianceExperiment,
        FJLTVarianceExperiment,
        CrossoverExperiment,
        ComparisonExperiment,
        TimingExperiment,
        StreamingExperiment,
        JLQualityExperiment,
        SensitivityExperiment,
        LowerBoundExperiment,
        DiscreteNoiseExperiment,
        AuditExperiment,
        OptimalKExperiment,
        SecretProjectionExperiment,
        InnerProductExperiment,
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Instantiate an experiment by ID (case-insensitive)."""
    key = experiment_id.upper()
    try:
        return EXPERIMENTS[key]()
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str, scale: str = "full", seed: int = 0) -> ExperimentResult:
    """Run one experiment end to end."""
    return get_experiment(experiment_id).run(scale=scale, seed=seed)


def run_all(scale: str = "full", seed: int = 0) -> list[ExperimentResult]:
    """Run every registered experiment in ID order."""
    return [run_experiment(eid, scale=scale, seed=seed) for eid in sorted(EXPERIMENTS)]
