"""Experiment harness: run one paper claim, print one paper-style table.

The paper has no numbered tables or figures (it is a theory paper), so
each experiment reproduces one *quantitative claim* — a theorem's
variance formula, a crossover, a running-time regime — and reports

* an ascii table with the swept parameters and measured quantities, and
* a set of named boolean *shape checks* (who wins, does the bound hold,
  is the estimator unbiased within Monte-Carlo error) that encode the
  claim being reproduced.

``scale="smoke"`` shrinks trial counts so the whole suite runs in
seconds (used by the benchmark harness); ``scale="full"``, the
default of ``python -m repro.experiments``, runs the full trial counts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.utils.tables import Table

SCALES = ("smoke", "full")


@dataclass
class ExperimentResult:
    """The output of one experiment run."""

    experiment_id: str
    title: str
    paper_reference: str
    table: Table
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every shape check reproduced the paper's claim."""
        return all(self.checks.values())

    def render(self) -> str:
        lines = [
            f"== {self.experiment_id}: {self.title}",
            f"   paper reference: {self.paper_reference}",
            "",
            self.table.render(),
            "",
        ]
        for name, ok in self.checks.items():
            lines.append(f"   [{'PASS' if ok else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class Experiment(ABC):
    """One reproducible claim.  Subclasses set the metadata class attrs."""

    id: str = "EXP-?"
    title: str = ""
    paper_reference: str = ""

    @abstractmethod
    def run(self, scale: str = "full", seed: int = 0) -> ExperimentResult:
        """Execute and return the table + shape checks."""

    def _result(self, table: Table) -> ExperimentResult:
        return ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_reference=self.paper_reference,
            table=table,
        )

    @staticmethod
    def _check_scale(scale: str) -> str:
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
        return scale


def trials_for(scale: str, smoke: int, full: int) -> int:
    """Pick the trial count for the requested scale."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return smoke if scale == "smoke" else full


def summarize(estimates, true_value: float) -> dict:
    """Mean/variance summary of Monte-Carlo estimates against ground truth.

    Returns mean, variance, the standardised bias ``z_bias = (mean -
    true) / stderr(mean)`` (|z| < ~4 is consistent with unbiasedness)
    and the stderr itself.
    """
    arr = np.asarray(estimates, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least two estimates to summarise")
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    stderr = float(np.sqrt(var / arr.size))
    z_bias = (mean - true_value) / stderr if stderr > 0 else 0.0
    return {"mean": mean, "var": var, "stderr": stderr, "z_bias": float(z_bias)}


def unbiased(summary: dict, z_threshold: float = 5.0) -> bool:
    """Monte-Carlo consistency check for unbiasedness."""
    return abs(summary["z_bias"]) < z_threshold
