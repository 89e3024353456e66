"""Experiment harness reproducing every quantitative claim in the paper.

See :mod:`repro.experiments.registry` for the experiment index and
``python -m repro.experiments list`` for the runnable inventory.
"""

from repro.experiments.harness import Experiment, ExperimentResult, summarize, trials_for, unbiased
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_all, run_experiment

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "get_experiment",
    "run_all",
    "run_experiment",
    "summarize",
    "trials_for",
    "unbiased",
]
