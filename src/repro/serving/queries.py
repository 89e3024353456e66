"""Typed query objects: the algebra the serving layer answers.

The query-release framing of the metric literature (Huang & Roth,
"Exploiting Metric Structure for Efficient Private Query Release") is a
small *algebra* of distance queries answered from private state.  This
module is that algebra as data: each query kind is a frozen dataclass
that validates its own parameters at construction, and every backend —
the local :class:`~repro.serving.service.DistanceService`, the HTTP
:class:`~repro.serving.client.DistanceClient`, and any future
low-precision or multi-process engine — answers the same objects
through one ``execute(query)`` entry point.

Queries are *data, not behaviour*: they carry no reference to a store
or service, so the same object can be executed locally, serialised over
the wire (:mod:`repro.serving.wire`), replayed, or logged.  Parameter
validation (``k >= 1``, ``radius_sq >= 0``, integer indices) happens in
``__post_init__`` so a malformed query fails where it is built — at the
client — rather than deep inside a backend.  Validation *against a
store* (compatibility, empty-store rules) stays with the backend, which
is the only party that knows the store.

Every execution returns a :class:`QueryResult`: the payload plus a
:class:`QueryStats` record of what the backend actually did — shards
visited and pruned by the exact shard bounds, rows scanned, wall
time.  The stats make the bounds' work-skipping observable without
monkeypatching estimators, and let a remote client see server-side cost.

Payload shapes by query kind (identical local and remote):

=================  ==========================================================
query              ``QueryResult.payload``
=================  ==========================================================
:class:`TopKQuery`     one ranking per query row: ``list[list[(label, est)]]``
:class:`RadiusQuery`   hits in ascending order: ``list[(label, est)]``
:class:`CrossQuery`    ``(n_queries, n_stored)`` ``np.ndarray``
:class:`PairwiseQuery` ``(len(indices), len(indices))`` ``np.ndarray``
:class:`NormsQuery`    ``(n_stored,)`` ``np.ndarray`` of squared-norm estimates
=================  ==========================================================

Ranking payloads (top-k, radius) report estimates clamped at zero
through :func:`repro.core.estimators.clamp_sq_estimates` — see that
function for the one documented owner of the clamping rule.  Matrix
payloads (cross, pairwise, norms) stay *unbiased* and may be negative.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

#: The union of query dataclasses — kept in one tuple so dispatchers and
#: codecs enumerate the algebra from a single place.
__all__ = [
    "CrossQuery",
    "NormsQuery",
    "PairwiseQuery",
    "QUERY_TYPES",
    "QueryResult",
    "QueryStats",
    "RadiusQuery",
    "TopKQuery",
]


@dataclass(frozen=True, eq=False)
class TopKQuery:
    """The ``k`` stored entries closest to each row of ``queries``.

    ``queries`` is a released :class:`~repro.core.sketch.PrivateSketch`
    or :class:`~repro.core.sketch.SketchBatch`; the payload is one
    ranking per row (a single sketch yields a one-entry list), each a
    list of ``(label, clamped squared-distance estimate)`` pairs in
    ascending distance order, ties broken by insertion order.
    """

    #: kind tags are the wire names; they never change once released
    kind = "top_k"

    queries: object
    k: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"top must be an integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))  # np.int64 -> JSON-safe int
        if self.k < 1:
            raise ValueError(f"top must be >= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class RadiusQuery:
    """All stored entries within squared distance ``radius_sq`` of ``query``.

    ``query`` must be a single sketch (one row); the payload is a list
    of ``(label, clamped estimate)`` hits in ascending distance order.
    The radius cut is applied to the *raw* debiased estimates, then the
    reported estimates are clamped — so membership is exactly the
    legacy rule and displayed values are never negative.
    """

    kind = "radius"

    query: object
    radius_sq: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius_sq", float(self.radius_sq))
        if not self.radius_sq >= 0:  # rejects NaN too
            raise ValueError(f"radius_sq must be >= 0, got {self.radius_sq}")


@dataclass(frozen=True, eq=False)
class CrossQuery:
    """The full ``(n_queries, n_stored)`` unbiased distance-estimate matrix."""

    kind = "cross"

    queries: object


@dataclass(frozen=True, eq=False)
class PairwiseQuery:
    """All-pairs unbiased estimates among the stored rows at ``indices``.

    Entry ``(i, j)`` of the payload estimates the distance between
    stored rows ``indices[i]`` and ``indices[j]``, zero diagonal by
    convention.  Negative indices address from the end, as in Python
    sequences.
    """

    kind = "pairwise"

    indices: tuple

    def __post_init__(self) -> None:
        try:
            items = tuple(self.indices)
        except TypeError as exc:
            raise ValueError(
                f"indices must be a sequence of integers, got {self.indices!r}"
            ) from exc
        indices = []
        for i in items:
            # int() would silently truncate 1.9 to row 1; only exactly
            # integral values (5, np.int64(5), 5.0) are accepted
            if isinstance(i, bool) or not isinstance(i, numbers.Real):
                raise ValueError(f"indices must be a sequence of integers, got {i!r}")
            if not isinstance(i, numbers.Integral) and not float(i).is_integer():
                raise ValueError(f"indices must be a sequence of integers, got {i!r}")
            indices.append(int(i))
        object.__setattr__(self, "indices", tuple(indices))


@dataclass(frozen=True, eq=False)
class NormsQuery:
    """Unbiased squared-norm estimates for every stored row.

    Answered entirely from the store's cached per-shard norms (no
    distance block is computed), debiased by ``m E[eta^2]`` — the
    squared-norm analogue of the distance correction.
    """

    kind = "norms"


QUERY_TYPES = (TopKQuery, RadiusQuery, CrossQuery, PairwiseQuery, NormsQuery)


@dataclass(frozen=True)
class QueryStats:
    """What one execution actually did, for observability and tests.

    ``shards_pruned`` counts shards skipped without computing their
    distance block — by the exact shard lower bounds (see
    :mod:`repro.serving.service`), or (for pairwise
    gathers) because no requested row lives in them; ``shards_visited``
    counts the shards whose block (or cached norms) was actually
    consumed — the two always sum to the snapshot's shard count.
    ``rows_scanned`` is the number of distinct stored rows whose
    values or cached norms fed the answer (pruned rows are never
    scanned).  ``elapsed_seconds`` is backend wall time: for a remote
    execution it is the *server-side* time, so a client can separate
    network cost from compute cost.

    ``shards_routed`` counts the skipped shards that the centroid-ball
    bound of :mod:`repro.serving.routing` alone proves hopeless.  A
    shard that only the larger of the centroid-ball and norm bounds
    rules out — possible for multi-row batches, where each bound can
    spare a different row — counts as pruned, not routed.  Routed
    shards are a subset of ``shards_pruned``, so the visited + pruned
    == total invariant is unchanged.

    Under ``ExecutionPolicy(workers > 1)`` the prune counts depend on
    thread scheduling: each shard is checked against the running
    top-``k`` cutoff as it stands when the shard starts, and shards
    running concurrently see a cutoff that lags the serial schedule.
    The answers never depend on it.
    """

    shards_visited: int = 0
    shards_pruned: int = 0
    shards_routed: int = 0
    rows_scanned: int = 0
    rows_total: int = 0
    elapsed_seconds: float = 0.0

    @property
    def shards_total(self) -> int:
        return self.shards_visited + self.shards_pruned

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True, eq=False)
class QueryResult:
    """One executed query: the payload plus its :class:`QueryStats`.

    ``payload`` has the kind-specific shape tabulated in the module
    docstring; ``stats`` is always present (remote backends carry the
    server's stats across the wire verbatim).
    """

    payload: object
    stats: QueryStats
