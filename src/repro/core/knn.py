"""Nearest-neighbour index over published private sketches.

The paper's introduction motivates the sketches with approximate
nearest-neighbour search; this module provides the adoption-grade API:
collect published :class:`~repro.core.sketch.PrivateSketch` objects and
answer top-``m`` / radius queries with the unbiased distance estimator.

The index never touches raw data — it is an *analyst-side* structure
built entirely from releases, so adding a sketch spends no additional
privacy budget beyond the release itself.

The heavy lifting lives in :mod:`repro.serving`: the index is a thin
facade over a :class:`~repro.serving.store.ShardedSketchStore` (appends
land in preallocated shards — no full-matrix recopy per insert) queried
through :meth:`~repro.serving.service.DistanceService.execute` with the
typed queries of :mod:`repro.serving.queries` (per-shard cached norms,
``argpartition``-based top-``k`` selection instead of a full sort).
Rankings order by the raw unbiased estimates, whose debias correction
can overshoot at tiny distances; the *reported* estimates are clamped
at zero through :func:`repro.core.estimators.clamp_sq_estimates` (the
single owner of that rule), so this index never returns a negative
distance estimate.
"""

from __future__ import annotations

from repro.core.sketch import PrivateSketch, SketchBatch
from repro.serving.execution import ExecutionPolicy
from repro.serving.queries import RadiusQuery, TopKQuery
from repro.serving.service import DistanceService
from repro.serving.store import DEFAULT_SHARD_CAPACITY, ShardedSketchStore


class PrivateNeighborIndex:
    """A flat index of private sketches supporting distance queries.

    ``policy`` selects how queries are executed (serial, or fanned out
    across a thread pool of shard workers); results are identical
    whatever the policy.
    """

    def __init__(
        self,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        self._store = ShardedSketchStore(shard_capacity=shard_capacity)
        self._service = DistanceService(self._store, policy=policy)

    @classmethod
    def from_store(
        cls, store: ShardedSketchStore, policy: ExecutionPolicy | None = None
    ) -> "PrivateNeighborIndex":
        """Wrap an existing store — e.g. one loaded with ``mmap=True``."""
        index = cls.__new__(cls)
        index._store = store
        index._service = DistanceService(store, policy=policy)
        return index

    @property
    def store(self) -> ShardedSketchStore:
        """The backing sharded store (shared, not a copy)."""
        return self._store

    def close(self) -> None:
        """Release the query worker pool (no-op for serial policies)."""
        self._service.close()

    def __enter__(self) -> "PrivateNeighborIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def add(self, sketch: PrivateSketch, label=None) -> None:
        """Register a published sketch (label defaults to its position)."""
        self._store.add(sketch, label=label)

    def add_batch(self, batch: SketchBatch, labels=None) -> None:
        """Register every row of a published batch at once.

        The batch's payload is appended into the store's shards — no
        per-row copies, no rebuild of previously added rows.
        """
        self._store.add_batch(batch, labels=labels)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def labels(self) -> list:
        return self._store.labels

    def query(self, sketch: PrivateSketch, top: int = 1) -> list[tuple[object, float]]:
        """The ``top`` entries closest to ``sketch``.

        Returns ``(label, estimated squared distance)`` pairs in
        ascending distance order, ties broken by insertion order.
        """
        return self._service.execute(TopKQuery(queries=sketch, k=top)).payload[0]

    def query_batch(self, batch: SketchBatch, top: int = 1) -> list[list[tuple[object, float]]]:
        """Answer one top-``m`` query per row of ``batch`` in a single pass.

        Every (entry, query) pair is scored through the shard-streaming
        estimators; the result is a list of :meth:`query`-style
        rankings, one per row.
        """
        return self._service.execute(TopKQuery(queries=batch, k=top)).payload

    def query_radius(self, sketch: PrivateSketch, radius_sq: float) -> list[tuple[object, float]]:
        """All entries with estimated squared distance at most ``radius_sq``."""
        return self._service.execute(
            RadiusQuery(query=sketch, radius_sq=radius_sq)
        ).payload
