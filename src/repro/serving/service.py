"""The query plane: one ``execute()`` entry point over a sharded store.

:class:`DistanceService` answers the typed query algebra of
:mod:`repro.serving.queries` — :class:`~repro.serving.queries.TopKQuery`,
:class:`~repro.serving.queries.RadiusQuery`,
:class:`~repro.serving.queries.CrossQuery`,
:class:`~repro.serving.queries.PairwiseQuery`,
:class:`~repro.serving.queries.NormsQuery` — from a
:class:`~repro.serving.store.ShardedSketchStore`, streaming the store's
shards through the vectorised estimators of
:mod:`repro.core.estimators` and reusing each shard's cached squared
norms so a query touches every stored row at most once.

Everything enters through :meth:`DistanceService.execute` (or
:meth:`~DistanceService.execute_many`), which owns — exactly once, for
every query kind — store validation, snapshotting, the
:class:`~repro.serving.execution.ExecutionPolicy` fan-out, and the
:class:`~repro.serving.queries.QueryStats` accounting.  The HTTP
:class:`~repro.serving.client.DistanceClient` implements the same
``execute()`` protocol, so local and remote backends are
interchangeable.

Top-k, radius and cross queries run through one scan driver.  It
validates the query, freezes one snapshot, visits the shards and hands
each shard's distance block to a small consumer for the query kind:
threshold top-k selection, radius hits, or the cross writer.  A visited
shard costs one BLAS call plus an epilogue computed in place, in the
arithmetic order of :func:`repro.core.estimators.cross_sq_distances`.
Top-k selects by threshold: while a row holds fewer than ``k`` numeric
candidates a block contributes its ``k`` smallest live entries
(:func:`stable_smallest_k`); after that only the entries at or below
the row's running ``k``-th best, which then updates from those few.  A
final merge over the candidates ranks them exactly as one flat scan
would.  Four mechanisms keep large stores fast:

* **Shard parallelism** — an :class:`~repro.serving.execution.ExecutionPolicy`
  with ``workers > 1`` dispatches per-shard distance blocks across a
  thread pool (BLAS releases the GIL); the merge depends only on the
  blocks, not on which thread computed them or when, so results are
  bit-identical to serial execution.
* **Exact shard bounds** — before any block is computed, the driver
  builds one ``(query rows x shards)`` matrix of lower bounds on every
  estimate a shard can produce: the larger of the *norm bound* (reverse
  triangle inequality over the shard's cached squared-norm range) and,
  on a store carrying a :class:`~repro.serving.routing.ShardRouting`
  table (built by a clustered compaction), the *centroid-ball bound*
  ``max(0, ||q - c_i|| - r_i)^2`` of :mod:`repro.serving.routing`.  A
  shard is skipped only when its bound is strictly above the query
  kind's cutoff for every query row — the running ``k``-th best for
  top-k, ``radius_sq`` for radius; cross has no cutoff and computes no
  bounds.  Both bounds subtract a relative safety slack that dominates
  floating-point rounding, so answers are *identical* to an unbounded
  scan, ties included — pure work-skipping, never approximation.
  Skipped shards are reported in ``stats.shards_pruned``, and those the
  centroid-ball bound alone rules out also in ``stats.shards_routed``.
  Both bounds always run, since neither can change an answer; a store
  sheds the ball bound only by shedding its table (an append, a
  delete, or a compaction without ``routing=``).
* **Best-first order** — shards are visited in ascending order of their
  least bound over the query rows, so the running ``k``-th best
  tightens on the most promising shards first and rules out the rest
  early.  The order never changes an answer: rankings merge on the
  estimate, then the global row position.
* **Snapshot reads** — every query freezes a
  :meth:`~repro.serving.store.ShardedSketchStore.snapshot` first, so it
  sees a consistent prefix of the store even while one writer keeps
  appending (the store-level concurrency contract: one writer at a
  time, any number of readers).

Two maintenance-facing contracts ride on the same snapshot discipline:

* **Tombstones** — rows the store has
  :meth:`~repro.serving.store.ShardedSketchStore.delete`-d are invisible
  to every query kind.  Distance blocks are still computed over the
  full shard, in place, and the tombstones read as a mask on the
  block: top-k and radius see NaN in the dead entries, which no
  threshold admits and which a top-k row short of ``k`` numbers
  selects around, and cross copies only the live columns into its
  output.  The surviving rows' estimates are therefore
  *bit-identical* to what they were before the deletion — and to what
  they will be after compaction physically drops the tombstones.
  Matrix-shaped payloads (cross, pairwise, norms) cover live rows
  only, in store order, exactly the shape a compacted store would
  serve.
* **Live store swap** — every handler reads ``self.store`` exactly
  once, up front; :meth:`DistanceService.swap_store` can therefore
  replace the store mid-flight (e.g. when maintenance publishes a new
  generation) and a query that already started simply finishes on the
  snapshot of the store it began with.

Empty-store behaviour is uniform across every query kind: a store that
has *never* seen a release has no pinned metadata to validate against,
so ``execute`` raises ``ValueError``; a store that is empty but carries
pinned metadata (e.g. a zero-row batch was added) validates the query
normally and returns empty results.

.. note:: **Negative estimates.**  Every distance this layer computes is
   the *unbiased* squared-distance estimate of Lemma 3 / Lemma 8: the
   noise correction ``2 m E[eta^2]`` is subtracted from the raw sketch
   distance, and at tiny true distances the correction can overshoot,
   producing a negative number.  Orderings and radius membership are
   decided on the raw values (the correction is a constant shift, so
   order is unaffected); ranking payloads (top-k, radius) then clamp
   the *reported* estimates at zero through
   :func:`repro.core.estimators.clamp_sq_estimates` — the single
   documented owner of the clamping rule — while matrix payloads
   (cross, pairwise, norms) stay raw and unbiased.

**One entry point.**  The pre-query-plane method-per-query shims
served their deprecation period and are gone: build the typed query
and call ``execute()``.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from repro.core import estimators
from repro.core.sketch import SketchBatch
from repro.serving.execution import ExecutionPolicy, pin_blas_threads, run_ordered
from repro.theory.quantisation import accumulation_gamma
from repro.serving.queries import (
    CrossQuery,
    NormsQuery,
    PairwiseQuery,
    QueryResult,
    QueryStats,
    RadiusQuery,
    TopKQuery,
)
from repro.serving.store import DEFAULT_SHARD_CAPACITY, ShardedSketchStore, ShardView


def stable_smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries, in stable ascending order.

    Equivalent to ``np.argsort(values, kind="stable")[:k]`` — ties are
    broken by position, including ties *across* the ``k``-th boundary,
    NaNs sort last (after ``+inf``) and keep their relative order — but
    runs in O(n + k log k) via :func:`np.argpartition` instead of
    sorting all ``n`` entries.  ``k <= 0`` selects nothing.
    """
    values = np.asarray(values)
    n = values.size
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= n:
        return np.argsort(values, kind="stable")
    kth = np.partition(values, k - 1)[k - 1]
    if np.isnan(kth):
        # partition places NaNs last, so a NaN k-th pivot means every
        # non-NaN entry is selected and NaNs fill the remaining slots
        # in index order — `values == kth` would select nothing.
        below = np.flatnonzero(~np.isnan(values))
        tied = np.flatnonzero(np.isnan(values))
    else:
        below = np.flatnonzero(values < kth)
        tied = np.flatnonzero(values == kth)
    take = np.concatenate([below, tied[: k - below.size]])
    return take[np.argsort(values[take], kind="stable")]


#: Relative safety slack applied to prefilter bounds.  Double-precision
#: rounding in a distance block is ~1e-16 relative; a 1e-9 margin
#: dominates it by seven orders of magnitude while giving up essentially
#: none of the prefilter's skipping power.
_PREFILTER_REL_SLACK = 1e-9


def _shard_lower_bounds(
    views: list[ShardView],
    sq_rows: np.ndarray,
    query_norms: np.ndarray,
    correction: float,
    gamma: float = 0.0,
) -> np.ndarray:
    """Conservative ``(query rows, shards)`` lower bounds on the estimates.

    Reverse triangle inequality in sketch space: ``||q - b|| >=
    | ||q|| - ||b|| |``, so with a shard's cached squared-norm range
    ``[lo, hi]`` every entry of its distance block is at least
    ``gap^2 - correction`` where ``gap = max(0, sqrt(lo) - ||q||,
    ||q|| - sqrt(hi))``.  A relative slack larger than any rounding the
    block arithmetic can accumulate is subtracted, so comparing the
    bound *strictly greater* against a threshold can only skip shards
    whose every entry genuinely exceeds the threshold — bounded results
    are identical to a full scan's, ties included.

    On a float32-scanned shard (a quantised store) the block's GEMM
    rounds far more coarsely than float64 — up to the accumulation
    envelope of :mod:`repro.theory.quantisation` — so the caller passes
    that store's ``gamma`` and the slack widens by
    ``4 * gamma * ||q|| * sqrt(hi)``; the cached norms already bound
    the *decoded* rows, so quantisation itself needs no extra term.
    The widened slack is still orders of magnitude below any real
    pruning margin, so skipping power is effectively unchanged.
    """
    lo, hi = np.array([view.norm_bounds() for view in views], dtype=np.float64).T
    sq_rows, query_norms = sq_rows[:, np.newaxis], query_norms[:, np.newaxis]
    gap = np.maximum(np.sqrt(lo) - query_norms, query_norms - np.sqrt(hi))
    gap = np.maximum(gap, 0.0)
    slack = _PREFILTER_REL_SLACK * (sq_rows + hi + abs(correction)) + 1e-12
    if gamma:
        reach = np.where(np.isfinite(hi), np.sqrt(hi), 0.0)
        slack = slack + 4.0 * gamma * query_norms * reach
    return gap * gap - correction - slack


def _smallest_live(row: np.ndarray, k: int, dead: np.ndarray | None) -> np.ndarray:
    """:func:`stable_smallest_k` over the live entries of a masked block row.

    Tombstoned entries hold NaN, which sorts after every number, so
    ``k`` picks that are all numbers are already the live answer; only
    a row short of ``k`` numbers (NaN estimates, or fewer than ``k``
    entries) selects again over its live entries alone.
    """
    picks = stable_smallest_k(row, k)
    if dead is None or (picks.size == k and not np.isnan(row[picks[-1]])):
        return picks
    live = np.delete(np.arange(row.size), dead)
    return live[stable_smallest_k(row[live], k)]


class _Scan(NamedTuple):
    """One query's validated rows over one frozen snapshot."""

    store: ShardedSketchStore
    rows: np.ndarray  # (n_queries, output_dim) float64
    sq_rows: np.ndarray
    views: list[ShardView]  # live views only
    offsets: np.ndarray  # each view's first column among the live rows



def _rankings(store: ShardedSketchStore, parts: list, n_queries: int, limit=None) -> list:
    """Merge per-shard ``(positions, estimates)`` candidates, one ranking per row.

    Ties resolve by global position — the order a stable sort over the
    whole store gives, whichever order the shards were visited in.
    Ordering is decided on the raw estimates; the *reported* estimate
    is then clamped (see :func:`repro.core.estimators.clamp_sq_estimates`).
    """
    rankings = []
    for q in range(n_queries):
        idx = np.concatenate([p[0][q] for p in parts] or [np.empty(0, dtype=np.intp)])
        est = np.concatenate([p[1][q] for p in parts] or [np.empty(0)])
        rankings.append(
            [
                (store.label(int(idx[i])), estimators.clamp_sq_estimates(float(est[i])))
                for i in np.lexsort((idx, est))[:limit]
            ]
        )
    return rankings


def _shard_stats(
    views: list[ShardView],
    scanned_mask: list[bool],
    routed_mask: list[bool] | None = None,
) -> QueryStats:
    """Stats for a per-shard scan; ``scanned_mask[i]`` is False when pruned.

    Row counts are *live* rows — tombstoned rows are not served, so they
    are not reported, matching what a compacted store would say.
    ``routed_mask`` marks the pruned shards the centroid-ball bound
    alone rules out.
    """
    rows_total = sum(view.live_size for view in views)
    rows_scanned = sum(
        view.live_size for view, scanned in zip(views, scanned_mask) if scanned
    )
    visited = sum(scanned_mask)
    return QueryStats(
        shards_visited=visited,
        shards_pruned=len(views) - visited,
        shards_routed=0 if routed_mask is None else sum(routed_mask),
        rows_scanned=rows_scanned,
        rows_total=rows_total,
    )


class DistanceService:
    """Serves the typed query algebra from a :class:`ShardedSketchStore`.

    Construct over an existing store, or use :meth:`from_batches` to
    build store and service in one step.  The service is a pure reader:
    it never mutates the store, so one appending writer and any number
    of querying readers interleave freely (each query sees a consistent
    snapshot).  ``policy`` selects serial or thread-pool execution; by
    default it comes from :meth:`ExecutionPolicy.from_env`.

    A parallel service owns a lazily created thread pool; :meth:`close`
    (or use as a context manager) releases it.
    """

    def __init__(
        self, store: ShardedSketchStore, policy: ExecutionPolicy | None = None
    ) -> None:
        self.store = store
        self.policy = ExecutionPolicy.from_env() if policy is None else policy
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @classmethod
    def from_batches(
        cls,
        *batches: SketchBatch,
        shard_capacity: int | None = None,
        policy: ExecutionPolicy | None = None,
        expected_digest: str | None = None,
        storage=None,
    ) -> "DistanceService":
        """Build a store from released batches and wrap it.

        ``expected_digest`` pins the store to one public configuration
        *before* any batch arrives: every construction path then fails
        fast on a foreign batch, exactly like
        :meth:`~repro.core.protocol.SketchingSession.serve` (which
        routes through here with its session's digest).  ``storage``
        selects the store's precision
        (:class:`~repro.serving.storage.StorageSpec`; default from
        ``REPRO_STORE_DTYPE``).
        """
        store = ShardedSketchStore(
            shard_capacity=DEFAULT_SHARD_CAPACITY
            if shard_capacity is None
            else shard_capacity,
            expected_digest=expected_digest,
            storage=storage,
        )
        for batch in batches:
            store.add_batch(batch)
        return cls(store, policy=policy)

    def __len__(self) -> int:
        return len(self.store)

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial policies)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def swap_store(self, store: ShardedSketchStore) -> ShardedSketchStore:
        """Atomically switch to ``store``; returns the one it replaces.

        The live-swap seam: when maintenance publishes a new store
        generation, the server reloads it and swaps it in here without
        interrupting traffic.  Every handler binds ``self.store`` once,
        up front, so a query in flight finishes — consistently — on the
        snapshot of the store it started with, and the next query sees
        the replacement; nothing is ever half-and-half.  The new store
        must be compatible with the old (same public configuration):
        swapping in a store from a different configuration would change
        answers silently, so it is rejected.
        """
        old = self.store
        if old.metadata is not None and store.metadata is not None:
            estimators.check_compatible(old.metadata, store.metadata)
        self.store = store
        return old

    def __enter__(self) -> "DistanceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shard-scheduling core -----------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                # a parallel pool over a multi-threaded BLAS runs
                # workers × cores compute threads; pin BLAS to one
                # thread (REPRO_SERVING_BLAS_THREADS overrides) so the
                # pool is the only parallelism lever
                pin_blas_threads()
                self._pool = ThreadPoolExecutor(
                    max_workers=self.policy.workers,
                    thread_name_prefix="repro-serving",
                )
            return self._pool

    def _run_ordered(self, fn, items: list) -> list:
        """Apply ``fn`` to every item, results in input order.

        Serial policies stream on the calling thread; parallel policies
        dispatch onto the pool.  Either way the caller receives results
        in input order, so downstream merges are schedule-independent
        (the shared contract of :func:`repro.serving.execution.run_ordered`,
        which the network router reuses over backends).
        """
        pool = (
            self._executor() if self.policy.parallel and len(items) > 1 else None
        )
        return run_ordered(fn, items, executor=pool)

    def _scan_gamma(self, store: ShardedSketchStore | None = None) -> float:
        """The store's GEMM accumulation envelope for prefilter slack.

        Zero for float64 stores (the historical slack already covers
        float64 rounding); the float32 ``gamma_k`` otherwise, so the
        prefilter stays exact over quantised shards.  Handlers pass
        their once-bound store; ``None`` reads ``self.store`` (kept for
        external callers, e.g. the property suite).
        """
        store = self.store if store is None else store
        return accumulation_gamma(store.storage, store.metadata.output_dim)

    # -- the scan driver -----------------------------------------------------

    def _freeze(self, release) -> _Scan:
        """Validate a query release and freeze one snapshot to scan it against.

        Validation runs against the pinned metadata whenever any release
        has ever been added — including when the store currently holds
        zero rows — so an incompatible query is always rejected.  Only a
        store that has never seen a release cannot validate anything.
        ``self.store`` is read exactly once (the live-swap contract).
        """
        store = self.store
        meta = store.metadata
        if meta is None:
            raise ValueError("the index is empty")
        estimators.check_compatible(meta, release)
        rows = np.asarray(release.values, dtype=np.float64)
        rows = rows[np.newaxis, :] if rows.ndim == 1 else rows
        views = [v for v in store.snapshot() if v.live_size]
        offsets = np.cumsum([0] + [view.live_size for view in views])
        return _Scan(store, rows, np.einsum("ij,ij->i", rows, rows), views, offsets)

    def _bounds(self, scan: _Scan, correction: float):
        """``(combined, centroid-ball)`` lower-bound matrices.

        The norm bound always runs.  The centroid-ball bound joins it,
        and the combined bound is the larger of the two, whenever the
        store's routing table matches this exact snapshot's per-view
        sizes — a concurrent append between the table read and the
        snapshot can therefore never pair fresh rows with stale ball
        geometry.  Without such a table the ball matrix is ``None``; on
        an empty snapshot both are.
        """
        views, store = scan.views, scan.store
        if not views:
            return None, None
        query_norms = np.sqrt(scan.sq_rows)
        gamma = self._scan_gamma(store)
        bounds = _shard_lower_bounds(views, scan.sq_rows, query_norms, correction, gamma)
        routing = store.routing
        if routing is None or not routing.matches([v.size for v in views]):
            return bounds, None
        route = routing.lower_bounds(
            scan.rows, scan.sq_rows, query_norms, correction, gamma
        )
        return np.fmax(bounds, route), route

    def _visit(self, scan: _Scan, take, cutoff=None) -> tuple[list, QueryStats]:
        """Hand every shard's distance block to ``take``, best shard first.

        ``take(values, view, offset)`` gets a block over every physical
        row of the shard, its tombstoned entries overwritten with NaN,
        which no threshold admits; ``offset`` is the view's first column
        among the snapshot's live rows.  ``cutoff()`` returns the
        current per-row thresholds an estimate must not exceed to
        matter; a shard whose bound is strictly above them for every row
        is skipped.  Without a cutoff no bounds are computed and the
        shards run in storage order.  Returns the non-``None`` results
        of ``take`` (in visit order) and the stats.
        """
        views = scan.views
        correction = estimators.sq_distance_correction(scan.store.metadata)
        bounds, route = (None, None) if cutoff is None else self._bounds(scan, correction)
        order = np.arange(len(views))
        if bounds is not None:
            order = np.argsort(bounds.min(axis=0, initial=np.inf), kind="stable")
        scanned = [True] * len(views)
        routed = [False] * len(views)

        def visit(i):
            view = views[i]
            if bounds is not None:
                limit = cutoff()
                if np.all(bounds[:, i] > limit):
                    scanned[i] = False
                    routed[i] = route is not None and bool(np.all(route[:, i] > limit))
                    return None
            values = estimators.cross_sq_distances_from_parts(
                scan.rows, scan.sq_rows, view.values, view.sq_norms, correction
            )
            # the block covers every physical row, so the survivors keep
            # the bits a compacted store would give them
            if view.dead is not None:
                values[:, view.dead] = np.nan
            return take(values, view, int(scan.offsets[i]))

        results = self._run_ordered(visit, order.tolist())
        parts = [r for r in results if r is not None]
        return parts, _shard_stats(views, scanned, routed)

    # -- the one entry point -------------------------------------------------

    _HANDLERS: dict = {}  # populated after the class body; type -> method name

    def execute(self, query) -> QueryResult:
        """Answer one typed query; the single entry point for every kind.

        Dispatches on the query's type, validates it against the store,
        freezes a snapshot, fans the per-shard work out according to the
        :class:`ExecutionPolicy`, and returns a
        :class:`~repro.serving.queries.QueryResult` whose ``stats``
        record what was actually scanned, pruned and how long it took.
        Raises ``TypeError`` for an object outside the query algebra and
        ``ValueError`` for a query the store cannot answer.
        """
        handler = self._HANDLERS.get(type(query))
        if handler is None:
            raise TypeError(
                f"execute() takes a typed query "
                f"(one of {[t.__name__ for t in self._HANDLERS]}), "
                f"got {type(query).__name__}"
            )
        started = time.perf_counter()
        payload, stats = getattr(self, handler)(query)
        stats = dataclasses.replace(
            stats, elapsed_seconds=time.perf_counter() - started
        )
        return QueryResult(payload=payload, stats=stats)

    def execute_many(self, queries) -> list[QueryResult]:
        """Execute a sequence of typed queries, results in input order.

        Each query freezes its own snapshot (so under a concurrent
        writer, later queries may see more rows — the same rule as
        issuing them one by one).
        """
        return [self.execute(query) for query in queries]

    # -- per-kind executors --------------------------------------------------

    def _execute_top_k(self, query: TopKQuery) -> tuple[list, QueryStats]:
        k = query.k
        scan = self._freeze(query.queries)
        n_queries = scan.rows.shape[0]
        # per row: the k smallest estimates taken so far, ascending, and
        # the k-th of them once all k are numbers (NaN until then) — the
        # pruning cutoff, and the threshold later blocks select by
        best = [np.empty(0)] * n_queries
        kth = [math.nan] * n_queries
        lock = threading.Lock()

        def take(values, view, offset):
            positions, estimates = [], []
            for q, row in enumerate(values):
                limit = kth[q]
                if math.isnan(limit):
                    local = _smallest_live(row, k, view.dead)
                else:
                    # ties with the k-th stay in: the merge breaks them
                    # by global position
                    local = (row <= limit).nonzero()[0]
                found = row[local]
                if found.size:
                    with lock:
                        best[q] = merged = np.sort(np.concatenate([best[q], found]))[:k]
                        if merged.size == k:
                            kth[q] = float(merged[-1])
                positions.append(local + view.start)
                estimates.append(found)
            return positions, estimates

        parts, stats = self._visit(scan, take, lambda: kth)
        return _rankings(scan.store, parts, n_queries, k), stats

    def _execute_radius(self, query: RadiusQuery) -> tuple[list, QueryStats]:
        radius_sq = query.radius_sq
        scan = self._freeze(query.query)
        if scan.rows.shape[0] != 1:
            raise ValueError("radius queries take a single sketch")

        def take(values, view, offset):
            hits = np.flatnonzero(values[0] <= radius_sq)
            return [hits + view.start], [values[0][hits]]

        parts, stats = self._visit(scan, take, lambda: radius_sq)
        return _rankings(scan.store, parts, 1)[0], stats

    def _execute_cross(self, query: CrossQuery) -> tuple[np.ndarray, QueryStats]:
        scan = self._freeze(query.queries)
        # columns cover live rows only, in store order — the exact matrix
        # a compacted (tombstone-free) store would serve
        out = np.empty((scan.rows.shape[0], int(scan.offsets[-1])))

        def take(values, view, offset) -> None:
            columns = out[:, offset : offset + view.live_size]
            if view.dead is None:
                columns[...] = values
            else:
                live = np.ones(view.size, dtype=bool)
                live[view.dead] = False
                np.compress(live, values, axis=1, out=columns)

        return out, self._visit(scan, take)[1]

    def _execute_pairwise(self, query: PairwiseQuery) -> tuple[np.ndarray, QueryStats]:
        store = self.store  # bound once: a swap mid-query is invisible
        if store.metadata is None:
            raise ValueError("the index is empty")
        views = [v for v in store.snapshot() if v.live_size]
        # indices address the *live* row sequence — the numbering a
        # compacted store would have, so answers survive maintenance
        n = sum(view.live_size for view in views)
        indices = np.asarray(query.indices, dtype=np.int64)
        if indices.size and (indices.min() < -n or indices.max() >= n):
            raise IndexError(f"indices out of range for store of {n} rows")
        if indices.size:
            indices = indices % n
        bounds = np.cumsum([0] + [view.live_size for view in views])
        shard_ids = np.searchsorted(bounds, indices, side="right") - 1
        local = indices - bounds[shard_ids]
        gathered = np.empty((indices.size, store.metadata.output_dim))
        touched = np.unique(shard_ids)
        for shard in touched:
            view = views[int(shard)]
            mask = shard_ids == shard
            rows = local[mask]
            if view.dead is not None:
                rows = np.delete(np.arange(view.size), view.dead)[rows]
            gathered[mask] = view.values[rows]
        subset = dataclasses.replace(store.metadata, values=gathered, labels=())
        # shards the gather never touches count as pruned (skipped without
        # a read — on an mmap store their files stay cold), preserving the
        # visited + pruned == snapshot-shards invariant of QueryStats
        stats = QueryStats(
            shards_visited=int(touched.size),
            shards_pruned=len(views) - int(touched.size),
            rows_scanned=int(np.unique(indices).size),
            rows_total=n,
        )
        return estimators.pairwise_sq_distances(subset), stats

    def _execute_norms(self, query: NormsQuery) -> tuple[np.ndarray, QueryStats]:
        store = self.store  # bound once: a swap mid-query is invisible
        meta = store.metadata
        if meta is None:
            raise ValueError("the index is empty")
        views = [v for v in store.snapshot() if v.live_size]
        correction = estimators.sq_norm_correction(meta)
        if not views:
            return np.empty(0), QueryStats()
        norms = (
            np.concatenate(
                [
                    view.sq_norms if view.dead is None else np.delete(view.sq_norms, view.dead)
                    for view in views
                ]
            )
            - correction
        )
        return norms, _shard_stats(views, [True] * len(views))


DistanceService._HANDLERS = {
    TopKQuery: "_execute_top_k",
    RadiusQuery: "_execute_radius",
    CrossQuery: "_execute_cross",
    PairwiseQuery: "_execute_pairwise",
    NormsQuery: "_execute_norms",
}
