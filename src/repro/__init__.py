"""repro — differentially private Euclidean distance sketches.

A production-quality reproduction of *"Improved Differentially Private
Euclidean Distance Approximation"* (Nina Mesing Stausholm, PODS 2021):
private Johnson-Lindenstrauss sketches from which squared Euclidean
distances, norms and inner products can be estimated without revealing
the underlying vectors.

Quickstart::

    import numpy as np
    from repro import SketchConfig, PrivateSketcher

    config = SketchConfig(input_dim=4096, epsilon=1.0)   # pure DP, SJLT
    sketcher = PrivateSketcher(config)
    sx = sketcher.sketch(x)       # party holding x
    sy = sketcher.sketch(y)       # party holding y
    d2 = sketcher.estimate_sq_distance(sx, sy)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced claim.
"""

from repro.core import (
    EnsembleSketch,
    EnsembleSketcher,
    MechanismChoice,
    Party,
    PrivateNeighborIndex,
    PrivateSketch,
    PrivateSketcher,
    SketchBatch,
    SketchConfig,
    SketchingSession,
    StreamingSketch,
    choose_noise_name,
    cross_sq_distances,
    estimate_distance,
    estimate_distance_matrix,
    estimate_inner_product,
    estimate_sq_distance,
    estimate_sq_norm,
    pairwise_sq_distances,
    sq_norms,
)
from repro.dp import PrivacyAccountant, PrivacyGuarantee
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    MaintenancePolicy,
    NormsQuery,
    PairwiseQuery,
    QueryResult,
    QueryStats,
    RadiusQuery,
    ReleaseCache,
    RouterService,
    ShardedSketchStore,
    StorageSpec,
    StoreMaintainer,
    TopKQuery,
    compact_store,
    merge_stores,
)
from repro.transforms import create_transform

__version__ = "1.0.0"


def __getattr__(name):
    # lazy for the same reason as repro.serving: keep the
    # `python -m repro.serving.server` entry point import-clean
    if name == "SketchQueryServer":
        from repro.serving.server import SketchQueryServer

        return SketchQueryServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CrossQuery",
    "DistanceClient",
    "DistanceService",
    "NormsQuery",
    "PairwiseQuery",
    "QueryResult",
    "QueryStats",
    "RadiusQuery",
    "ReleaseCache",
    "RouterService",
    "SketchQueryServer",
    "TopKQuery",
    "EnsembleSketch",
    "EnsembleSketcher",
    "ExecutionPolicy",
    "MaintenancePolicy",
    "MechanismChoice",
    "Party",
    "PrivacyAccountant",
    "PrivateNeighborIndex",
    "PrivacyGuarantee",
    "PrivateSketch",
    "PrivateSketcher",
    "ShardedSketchStore",
    "StorageSpec",
    "StoreMaintainer",
    "SketchBatch",
    "SketchConfig",
    "SketchingSession",
    "StreamingSketch",
    "__version__",
    "choose_noise_name",
    "compact_store",
    "create_transform",
    "cross_sq_distances",
    "estimate_distance",
    "estimate_distance_matrix",
    "estimate_inner_product",
    "estimate_sq_distance",
    "estimate_sq_norm",
    "merge_stores",
    "pairwise_sq_distances",
    "sq_norms",
]
