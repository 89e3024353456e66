"""Serving layer: sharded storage, a typed query plane, and a network frontend.

The paper's Section 2 point is that *anyone* can estimate distances
from published sketches; this package is the infrastructure for doing
that at scale.  :class:`ShardedSketchStore` accumulates released rows
into preallocated shards (amortised O(1) appends, cached per-shard
norms and norm bounds, generational binary persistence, lazy memory-mapped
loading for stores larger than RAM, compaction and merge tooling),
at a selectable storage precision (:class:`StorageSpec`: ``f8`` /
``f4`` / ``f2`` / scalar-quantised ``int8`` — 2-8x smaller shards and
files behind the unchanged :class:`ShardView` interface, within the
documented error envelope of :mod:`repro.theory.quantisation`; build
full-precision, then ``compact(storage="f4")`` to shrink).
Above it sits one protocol:

* :mod:`repro.serving.queries` — the typed query algebra
  (:class:`TopKQuery`, :class:`RadiusQuery`, :class:`CrossQuery`,
  :class:`PairwiseQuery`, :class:`NormsQuery`), answered as
  :class:`QueryResult` objects carrying payload + :class:`QueryStats`;
* :class:`DistanceService` — the local backend:
  ``execute(query)`` / ``execute_many(queries)`` stream the shards
  through the vectorised estimators, serially or across a thread pool
  (:class:`ExecutionPolicy`);
* :mod:`repro.serving.wire` — versioned JSON envelopes for queries,
  results and errors (sketch payloads ride as base64 float64 rows
  under one digest, bit-exact; typed labels survive);
* :class:`SketchQueryServer` / :class:`DistanceClient` — a stdlib-only
  HTTP frontend over a saved store (memory-mapped, so N worker
  processes share the same shard files) and the client that implements
  the *same* ``execute()`` protocol, making local and remote backends
  interchangeable.  The client speaks HTTP/1.1 itself over a pool of
  keep-alive sockets, sending each request in one write, and retries
  transport failures on a fresh connection; the server writes each
  reply in one write, and can run as ``--processes N``
  ``SO_REUSEPORT`` workers over one port and one mmapped store
  directory;
* :class:`RouterService` — scatter-gather over an ordered sequence of
  ``execute()`` backends that partition one logical store, merging
  per-backend partials with the same shard-ordered reduction the local
  engine uses, so ``client -> router -> N store servers`` answers
  match a single-store run (see :mod:`repro.serving.router` for the
  one clamped-at-zero tie caveat);
* :class:`ReleaseCache` — a bounded LRU of result envelopes the server
  consults before recomputing.  Caching is *privacy-free*: a release
  is deterministic post-processing of already-privatised sketches
  (noise is sampled once, when a sketch is released, and its budget
  spent then), so re-serving the byte-identical envelope for an
  identical query observes nothing new and costs no extra budget —
  see :mod:`repro.serving.cache` for the full argument;
* :mod:`repro.serving.maintenance` — LSM-style streaming store
  upkeep: :func:`compact_store` re-encodes a saved directory
  disk-to-disk in bounded row blocks (peak RSS stays O(block) however
  large the store), publishing each rewrite as a new numbered
  *generation* that readers — and a ``watch_interval`` server — pick up
  atomically; ``delete()`` tombstones plus a :class:`MaintenancePolicy`
  run by :class:`StoreMaintainer` automate the hot-write-tier →
  cold-read-tier (``f8`` → ``f4``/``int8``) lifecycle.  All of it is
  post-processing of already-released sketches: zero extra privacy
  budget, and deletion never refunds any (see :mod:`repro.serving.store`
  for the tombstone DP semantics).

**Concurrency contract.**  One writer at a time may append to a store;
any number of readers may query it concurrently.  Every query freezes a
store snapshot first and therefore sees a *consistent prefix* of the
rows (appends publish rows and norm caches before sizes, so a snapshot
never exposes a partially written row).  Queries never block appends
and appends never block queries.  ``save``/``load``/``compact``/
``merge`` are writer-side operations: run them from the writer, not
concurrently with another writer.  Every publish into a directory
(``save``, ``compact_store``, ``merge_stores``) keeps the generation it
replaces, so handles mmap-loaded from it keep answering; re-``load``
them before the next publish prunes it (see
:meth:`ShardedSketchStore.save`).

**Prefilter guarantee.**  Top-k and radius queries bound every shard
from below before scanning it: by the reverse triangle inequality over
the shard's cached norm range (the norm bound, which always runs) and,
on a routed store, over its centroid ball — minus a safety slack that
dominates floating-point rounding.  Shards are visited best bound
first, and one is skipped only when its bound proves every distance in
it strictly worse than the current threshold.  Query results are
therefore identical to a full scan of every shard, ties included; the
bounds are a work-skipping optimisation, never an approximation, and
no policy switches them.  Skipped shards are visible in
``QueryResult.stats.shards_pruned``.

**Centroid routing.**  ``compact(routing=True)`` clusters the live rows
(seeded, deterministic k-means) so each sealed shard holds one cluster,
and persists per-shard centroids and covering radii in the manifest
(:mod:`repro.serving.routing`).  On such stores the centroid-ball bound
``max(0, ||q - c|| - r)`` joins the norm bound under the same slack
discipline — bit-identical results, ties included; the shards it alone
rules out are reported in ``QueryStats.shards_routed``.  Routing is
post-processing of released sketches: no extra privacy budget.

**One entry point, one format.**  ``DistanceService.execute()`` is the
only query API (the pre-query-plane shim methods are gone); build typed
queries.  The wire format and the binary container are versioned
independently and reject unknown versions up front: stores use
container format 3 only, and wire version 3 carries query releases as
bare ``f8`` rows, never as containers.

The analyst-side index :class:`~repro.core.knn.PrivateNeighborIndex`
delegates to this layer, and a :class:`~repro.core.protocol.SketchingSession`
exposes it via :meth:`~repro.core.protocol.SketchingSession.serve`.
"""

from repro.serving.cache import ReleaseCache
from repro.serving.client import DistanceClient
from repro.serving.execution import ExecutionPolicy, pin_blas_threads
from repro.serving.maintenance import (
    MaintenancePolicy,
    StoreMaintainer,
    compact_store,
    merge_stores,
)
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
from repro.serving.routing import ShardRouting, build_shard_routing, kmeans_centroids
from repro.serving.serialization import (
    BatchInfo,
    SerializationError,
    batch_from_bytes,
    batch_to_bytes,
    decode_label,
    encode_label,
    iter_batch_rows,
    map_values,
    read_batch,
    read_batch_info,
)
from repro.serving.router import RouterService
from repro.serving.service import DistanceService, stable_smallest_k
from repro.serving.storage import STORAGE_SPECS, StorageSpec
from repro.serving.store import (
    DEFAULT_SHARD_CAPACITY,
    ShardedSketchStore,
    ShardView,
    read_manifest,
)
from repro.serving.wire import (
    WIRE_VERSION,
    WireError,
    decode_query,
    decode_result,
    encode_query,
    encode_result,
)


def __getattr__(name):
    # the HTTP server is the `python -m repro.serving.server` entry
    # point: importing it eagerly here would put the module in
    # sys.modules before runpy executes it as __main__ (the classic
    # double-import warning), so it loads on first attribute access
    if name == "SketchQueryServer":
        from repro.serving.server import SketchQueryServer

        return SketchQueryServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchInfo",
    "CrossQuery",
    "DEFAULT_SHARD_CAPACITY",
    "DistanceClient",
    "DistanceService",
    "ExecutionPolicy",
    "MaintenancePolicy",
    "NormsQuery",
    "PairwiseQuery",
    "QUERY_TYPES",
    "QueryResult",
    "QueryStats",
    "RadiusQuery",
    "ReleaseCache",
    "RouterService",
    "STORAGE_SPECS",
    "SerializationError",
    "ShardRouting",
    "ShardView",
    "ShardedSketchStore",
    "SketchQueryServer",
    "StorageSpec",
    "StoreMaintainer",
    "TopKQuery",
    "WIRE_VERSION",
    "WireError",
    "batch_from_bytes",
    "batch_to_bytes",
    "build_shard_routing",
    "compact_store",
    "decode_label",
    "decode_query",
    "decode_result",
    "encode_label",
    "encode_query",
    "encode_result",
    "iter_batch_rows",
    "kmeans_centroids",
    "map_values",
    "merge_stores",
    "pin_blas_threads",
    "read_batch",
    "read_batch_info",
    "read_manifest",
    "stable_smallest_k",
]
