"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.estimators import clamp_sq_estimates
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    RadiusQuery,
    TopKQuery,
)
from repro.serving.serialization import SHARD_PATTERN, read_manifest, shard_dir
from repro.transforms import create_transform


def any_case(text: str):
    """A hypothesis strategy: ``text`` with each letter upper- or lower-cased."""
    return st.lists(st.booleans(), min_size=len(text), max_size=len(text)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(text, upper))
    )


def shard_file(root, i=0):
    """Path of shard ``i`` of the saved store at ``root``, via its manifest."""
    return shard_dir(root, read_manifest(root)) / SHARD_PATTERN.format(i)


def store_contents(store) -> tuple:
    """A store's rows as scanned (bytes), labels and tombstones."""
    values = [view.values.tobytes() for view in store.snapshot()]
    return b"".join(values), store.labels, store.tombstones


# -- typed-query-plane wrappers (shared by the serving test modules) ----------


def execute_top_k(service, query, k=1):
    """One ranking: a single-sketch TopKQuery through execute()."""
    return service.execute(TopKQuery(queries=query, k=k)).payload[0]


def execute_top_k_batch(service, queries, k=1):
    return service.execute(TopKQuery(queries=queries, k=k)).payload


def execute_radius(service, query, radius_sq):
    return service.execute(RadiusQuery(query=query, radius_sq=radius_sq)).payload


def execute_cross(service, queries):
    return service.execute(CrossQuery(queries=queries)).payload


def full_scan(store, query):
    """The reference answer to a top-k or radius query: one unbounded pass.

    Runs a :class:`CrossQuery` over every shard of ``store`` (the pass
    the service makes for cross queries, with no bound), ranks each
    query row by (estimate, global position) and clamps the reported
    estimates at zero, as the service's merge does.  Every shard block
    is the same arithmetic a bounded top-k or radius scan runs, and each
    estimate's bits depend only on its two rows, so a bounded answer
    over any layout of the same rows must equal this to the bit.  Returns what
    ``execute(query).payload`` returns: a ranking per query row for
    top-k, one ranking for radius.
    """
    radius = isinstance(query, RadiusQuery)
    release = query.query if radius else query.queries
    service = DistanceService(store, ExecutionPolicy(workers=1))
    matrix = service.execute(CrossQuery(queries=release)).payload
    # the cross columns are the live rows, in store order
    positions = np.setdiff1d(np.arange(len(store)), store.tombstones)
    rankings = []
    for row in matrix:
        order = np.lexsort((positions, row))
        order = order[row[order] <= query.radius_sq] if radius else order[: query.k]
        rankings.append(
            [(store.label(int(positions[j])), clamp_sq_estimates(row[j])) for j in order]
        )
    return rankings[0] if radius else rankings


# -- storage-aware expectations (the suite also runs under a quantised
# -- store default, e.g. CI's REPRO_STORE_DTYPE=f4 leg) ------------------------


def storage_roundtrip(store, values):
    """``values`` as ``store``'s float storage spec holds them.

    Identity for f8 stores, so full-precision assertions stay exact;
    int8 is rejected (its per-shard scale has no store-independent
    round trip — compare against the store's own shards instead).
    """
    return store.storage.roundtrip(np.asarray(values, dtype=np.float64))


def envelope_atol(store, queries_values, stored_values):
    """Worst-pair quantisation envelope vs the full-precision estimates.

    The documented bound of :mod:`repro.theory.quantisation`, maximised
    over every (query, stored-row) pair — suitable as ``atol`` when a
    store-served matrix is compared against the float64 flat estimator
    on the original rows.  Collapses to ~1e-9 slack for f8 stores.
    """
    from repro.theory.quantisation import sq_distance_error_bound

    q = np.atleast_2d(np.asarray(queries_values, dtype=np.float64))
    r = np.atleast_2d(np.asarray(stored_values, dtype=np.float64))
    scales = [view.scale for view in store.snapshot() if view.scale is not None]
    scale = max(scales) if scales else None
    return max(
        sq_distance_error_bound(store.storage, qi, ri, scale)
        for qi in q
        for ri in r
    )


#: (name, kwargs) for every transform at a test-friendly size.
TRANSFORM_SPECS = [
    ("gaussian", {}),
    ("achlioptas", {}),
    ("achlioptas", {"sparse": True}),
    ("dks", {"sparsity": 4}),
    ("sjlt", {"sparsity": 4}),
    ("sjlt", {"sparsity": 4, "construction": "graph"}),
    ("fjlt", {}),
]


def spec_id(spec) -> str:
    name, kwargs = spec
    suffix = "-".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    return f"{name}({suffix})" if suffix else name


def make_transform(spec, input_dim=96, output_dim=32, seed=0):
    name, kwargs = spec
    return create_transform(name, input_dim, output_dim, seed=seed, **kwargs)


def mean_distortion(spec, x, trials=400, input_dim=96, output_dim=32):
    """Monte-Carlo E[||Sx||^2] / ||x||^2 over independent transforms."""
    total = 0.0
    for seed in range(trials):
        t = make_transform(spec, input_dim, output_dim, seed=seed)
        y = t.apply(x)
        total += float(y @ y)
    return total / trials / float(x @ x)


def fresh_vector(dim=96, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(dim)
