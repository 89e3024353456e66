"""Scatter-gather router: one ``execute()`` over several store backends.

:class:`RouterService` implements the same ``execute(query)`` /
``execute_many(queries)`` protocol as
:class:`~repro.serving.service.DistanceService` and
:class:`~repro.serving.client.DistanceClient`, over an **ordered
sequence of backends** that partition one logical store: backend ``i``
holds a contiguous block of rows, in order, exactly as if the blocks
were concatenated into a single store.  A query is scattered to every
backend concurrently and the per-backend partials are merged with the
same shard-ordered reduction the local engine uses —
:func:`~repro.serving.service.stable_smallest_k` over the partials in
backend order — so the merged answer equals a single-store run on the
concatenated rows.  The backends are the shards, promoted across the
network.

Backends are anything speaking the protocol: a
:class:`~repro.serving.client.DistanceClient` per store server (the
scale-out topology), local :class:`DistanceService` instances (useful
in tests), or even another ``RouterService`` (two-level fan-out).  A
router can itself be served by a
:class:`~repro.serving.server.SketchQueryServer`, giving the full
topology ``client -> router server -> N store servers``; a backend
that cannot be reached surfaces as ``ConnectionError`` (HTTP 502
through a router server), distinct from a bad query's ``ValueError``.

Merge rules per query kind (mirroring the local per-shard reduction):

* **top-k** — each backend returns its local top ``k``; the merged top
  ``k`` is selected from the union with the stable tie-break of
  :func:`stable_smallest_k`, where "position" is backend order — the
  same order a single store's global row index gives.  One caveat,
  inherited from the wire format: ranking payloads carry estimates
  *clamped at zero* (see :mod:`repro.serving.queries`), so distinct
  negative raw estimates from different backends compare equal at the
  router and merge in backend order — locally their raw values would
  order them.  This can permute entries whose *reported* estimates are
  all exactly ``0.0`` (tiny true distances only); every other case is
  bit-identical.
* **radius** — hits concatenated in backend order, stably re-sorted by
  estimate: equal estimates keep backend (= global row) order, exactly
  the local ``lexsort((index, estimate))`` rule.  Same clamped-zero
  caveat as top-k.
* **cross / norms** — per-backend blocks concatenated along the stored
  axis in backend order; bit-identical always, wherever the split falls
  (each estimate's bits depend only on its query row and its stored
  row, and matrix payloads ride the wire as raw float64, never
  clamped).
* **pairwise** — answered when every requested row lives in a single
  backend (indices are translated and forwarded).  Indices number live
  rows, as they do locally, so backend offsets count live rows, not
  ``len()``, which includes tombstones.  A pairwise query *spanning*
  backends is rejected with ``ValueError``, because
  cross-backend pairs need the stored values themselves, which no
  backend exposes.  Span the store with :class:`CrossQuery` instead.

Merged :class:`~repro.serving.queries.QueryStats` sum the counters
(shards visited/pruned, rows scanned/total) across backends;
``elapsed_seconds`` is the *maximum* backend time, since the scatter
runs concurrently.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serving.execution import run_ordered
from repro.serving.queries import (
    QUERY_TYPES,
    CrossQuery,
    NormsQuery,
    PairwiseQuery,
    QueryResult,
    QueryStats,
    RadiusQuery,
    TopKQuery,
)
from repro.serving.service import stable_smallest_k


def _merge_stats(parts: list[QueryStats]) -> QueryStats:
    return QueryStats(
        shards_visited=sum(s.shards_visited for s in parts),
        shards_pruned=sum(s.shards_pruned for s in parts),
        shards_routed=sum(s.shards_routed for s in parts),
        rows_scanned=sum(s.rows_scanned for s in parts),
        rows_total=sum(s.rows_total for s in parts),
        elapsed_seconds=max((s.elapsed_seconds for s in parts), default=0.0),
    )


def _live_rows(backend) -> int:
    """The rows ``backend`` serves, which its pairwise indices number.

    A local service reads its store; a client or a nested router
    reports them as ``live_rows`` in its health payload.
    """
    store = getattr(backend, "store", None)
    if store is not None:
        return store.live_row_count
    return int(backend.health()["live_rows"])


def _merge_ranking(partials: list[list], k: int | None) -> list:
    """Merge per-backend ``(label, estimate)`` lists, backend order = row order.

    Concatenating the partials in backend order and stably selecting by
    estimate reproduces the local ``lexsort((global_index, estimate))``
    tie-break: each partial is already in (estimate, local index) order,
    and backend order extends local index order to global index order.
    """
    labels: list = []
    estimates: list = []
    for partial in partials:
        for label, estimate in partial:
            labels.append(label)
            estimates.append(estimate)
    order = stable_smallest_k(
        np.asarray(estimates, dtype=np.float64),
        len(estimates) if k is None else k,
    )
    return [(labels[i], estimates[i]) for i in order]


class RouterService:
    """Scatter queries across ordered backends and merge the partials.

    Parameters
    ----------
    backends:
        Ordered sequence of ``execute()``-protocol objects, each
        holding one contiguous block of the logical store's rows (the
        concatenation, in this order, is the store the router serves).
        All backends must hold sketches of one configuration — an
        incompatible query raises the same ``ValueError`` everywhere.
    close_backends:
        When true, :meth:`close` also closes every backend (use when
        the router owns its clients).
    """

    def __init__(self, backends, *, close_backends: bool = False) -> None:
        self.backends = tuple(backends)
        if not self.backends:
            raise ValueError("a RouterService needs at least one backend")
        self.close_backends = close_backends
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def __len__(self) -> int:
        return sum(len(backend) for backend in self.backends)

    def health(self) -> dict:
        """Aggregate liveness: total and live rows, per-backend row counts."""
        rows = [len(backend) for backend in self.backends]
        return {
            "status": "ok",
            "rows": sum(rows),
            "live_rows": sum(_live_rows(backend) for backend in self.backends),
            "backends": len(self.backends),
            "backend_rows": rows,
        }

    def describe(self) -> dict:
        return {
            "backends": [
                getattr(backend, "base_url", type(backend).__name__)
                for backend in self.backends
            ],
            "rows": len(self),
        }

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self.close_backends:
            for backend in self.backends:
                backend.close()

    def __enter__(self) -> "RouterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scatter -------------------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor | None:
        if len(self.backends) == 1:
            return None
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(self.backends),
                    thread_name_prefix="repro-router",
                )
            return self._pool

    def _scatter(self, query) -> list[QueryResult]:
        """Execute ``query`` on every backend, results in backend order.

        A backend exception (incompatible query, unreachable server)
        propagates unchanged — the same class local execution raises.
        """
        return run_ordered(
            lambda backend: backend.execute(query),
            list(self.backends),
            executor=self._executor(),
        )

    # -- the execute() protocol ----------------------------------------------

    def execute(self, query) -> QueryResult:
        """Answer one typed query across every backend; merged payload."""
        if type(query) not in QUERY_TYPES:
            raise TypeError(
                f"execute() takes a typed query "
                f"(one of {[t.__name__ for t in QUERY_TYPES]}), "
                f"got {type(query).__name__}"
            )
        if isinstance(query, PairwiseQuery):
            return self._execute_pairwise(query)
        parts = self._scatter(query)
        stats = _merge_stats([p.stats for p in parts])
        if isinstance(query, TopKQuery):
            payload = [
                _merge_ranking([p.payload[q] for p in parts], query.k)
                for q in range(len(parts[0].payload))
            ]
        elif isinstance(query, RadiusQuery):
            payload = _merge_ranking([p.payload for p in parts], None)
        elif isinstance(query, CrossQuery):
            payload = np.concatenate([p.payload for p in parts], axis=1)
        else:  # NormsQuery
            payload = np.concatenate([p.payload for p in parts])
        return QueryResult(payload=payload, stats=stats)

    def execute_many(self, queries) -> list[QueryResult]:
        """Execute a sequence of typed queries, results in input order."""
        return [self.execute(query) for query in queries]

    # -- pairwise: a gather, not a scatter -----------------------------------

    def _execute_pairwise(self, query: PairwiseQuery) -> QueryResult:
        sizes = [_live_rows(backend) for backend in self.backends]
        offsets = list(itertools.accumulate(sizes, initial=0))
        total = offsets[-1]
        # range-check the Python ints first: an index past int64 is a bad
        # query, not an OverflowError
        indices = query.indices
        if indices and (min(indices) < -total or max(indices) >= total):
            raise IndexError(f"indices out of range for store of {total} rows")
        positions = [i % total for i in indices]
        owners = {bisect.bisect_right(offsets, p) - 1 for p in positions}
        if len(owners) > 1:
            raise ValueError(
                "a pairwise query spanning multiple router backends is not "
                "supported (cross-backend pairs need the stored sketch values, "
                "which backends do not expose) — keep the indices within one "
                "backend or use CrossQuery with released query sketches"
            )
        owner = owners.pop() if owners else 0
        local = PairwiseQuery(indices=tuple(p - offsets[owner] for p in positions))
        result = self.backends[owner].execute(local)
        # untouched backends' live rows count toward the logical total,
        # like the local engine's untouched shards
        stats = dataclasses.replace(result.stats, rows_total=total)
        return QueryResult(payload=result.payload, stats=stats)
