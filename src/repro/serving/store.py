"""Append-only sharded storage for published sketch batches.

:class:`ShardedSketchStore` is the serving layer's data plane: released
rows accumulate into fixed-capacity *shards*, each a preallocated
``(capacity, k)`` buffer that fills in place.  Appending ``n`` rows
therefore copies exactly ``n`` rows — never the whole store, unlike a
flat index that re-``concatenate``s every chunk per insert.  Buffers
grow geometrically (doubling) up to the shard capacity, so small stores
stay small while the amortised cost per appended row is O(1).

The buffer element type is a :class:`~repro.serving.storage.StorageSpec`
chosen at construction (``storage="f8" | "f4" | "f2" | "int8"``, default
from ``REPRO_STORE_DTYPE``): full-precision float64, half-size float32,
quarter-size float16, or eighth-size scalar-quantised int8 with one
scale per shard.  Quantisation happens once, at append time; queries
scan the *decoded* rows (float32 for the low-precision specs — ``f4``
serves its stored bytes zero-copy, ``f2``/``int8`` decode lazily into a
cached float32 scan copy) through the unchanged :class:`ShardView`
interface, so the whole query
plane runs identically, trading a documented error envelope
(:mod:`repro.theory.quantisation`) for 2–8x smaller buffers and files.
An int8 shard never rescales published rows: a chunk that would clip
seals the shard and opens a fresh one with its own scale, keeping
snapshots immutable.

Every shard caches the squared norms of its filled rows (maintained
incrementally at append time) plus their min/max, which the query
plane's norm-bound prefilter uses to skip shards that provably cannot
contain a hit.

Stores persist as a directory — a ``manifest.json`` naming the live
``gen-NNNNN`` directory of v3 shard blobs
(:mod:`repro.serving.serialization`) — and load back bit-exactly,
**including label types** (integer labels come back as integers).
:meth:`ShardedSketchStore.save` publishes like every store writer: a
crash never touches the store on disk, and readers of the previous
generation keep answering from its retained files.

``load(path, mmap=True)`` attaches each shard as a lazy memory map
instead of reading it into RAM: nothing is touched until a query needs
the shard, whole shards the prefilter skips are never read, and pages
the OS maps in can be evicted again — stores larger than RAM stay
queryable.

Maintenance is LSM-style.  Published rows are immutable, so deletion is
*tombstoned*: :meth:`ShardedSketchStore.delete` marks rows by label,
tombstoned rows are skipped by every query and by :meth:`merge`, and
they are physically dropped (rows *and* labels) when :meth:`compact`
rewrites the shards.  **DP semantics of deletion** (documented once,
here): deleting a release never refunds privacy budget.  The noise was
sampled and the sketch *published* when the row was released — removing
it from this store afterwards is post-processing of an already-spent
budget, the same argument that makes result caching free
(:mod:`repro.serving.cache`), so the accountant's spend is deliberately
never decremented.  A tombstone is an availability control, not a
privacy rewind: anyone who saw the published sketch still holds it.

Every manifest carries a **generation** counter that each publish
raises, so a long-running server can watch it and hot-swap without a
restart.  :meth:`~ShardedSketchStore.compact`,
:meth:`~ShardedSketchStore.merge` and :func:`rewrite_store` (their disk
form) share one pass streaming live rows in bounded blocks
(:meth:`ShardView.iter_codes`: peak memory is O(block), not O(store)).

Concurrency contract (shared with :class:`~repro.serving.service.DistanceService`):
one writer at a time; any number of concurrent readers, each of which
sees a *consistent prefix* of the store as of its :meth:`snapshot`.
Rows and their cached norms are published before the shard's size, so a
snapshot never exposes partially written rows.

Readers take the store's shape from one immutable :class:`StoreLayout`
per state of the store: its shard views, row counts and cache token are
derived once, by the first reader after a mutation, and every later
request reads them without walking the shards.  Every mutation bumps a
version counter once its change is visible, which is what marks the
layout stale.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core import estimators
from repro.core.sketch import PrivateSketch, SketchBatch
from repro.serving.routing import (
    DEFAULT_TRAIN_SAMPLE,
    ShardRouting,
    assign_rows,
    build_shard_routing,
    default_cluster_count,
    kmeans_centroids,
)
from repro.serving.serialization import (
    DEFAULT_BLOCK_ROWS,
    ROUTING_BLOB_NAME,
    SHARD_PATTERN,
    BatchInfo,
    SerializationError,
    StreamingBatchWriter,
    iter_batch_rows,
    link_blob,
    map_values,
    publish,
    read_batch_info,
    read_batch_raw,
    read_manifest,
    read_routing_blob,
    shard_dir,
    write_routing_blob,
)
from repro.serving.storage import INT8_CODE_MAX, StorageSpec

#: Default rows per shard; 2^16 rows of a k=256 sketch is ~128 MiB.
DEFAULT_SHARD_CAPACITY = 65536


class _Shard:
    """One preallocated block of sketch rows plus its cached norms.

    The buffer holds rows in the store's storage dtype; ``scale`` is
    the int8 quantisation step (``None`` for the float specs), fixed by
    the first chunk the shard admits and never changed afterwards —
    published rows are immutable, so snapshots stay consistent.  Norms
    are always cached in float64, computed from the *decoded* rows (the
    exact values queries scan), so the prefilter bounds exactly what
    the distance kernel sees.

    ``source`` is the :class:`BatchInfo` of the published blob an
    eager load filled the shard from (see :meth:`adopt`), until an
    append changes the rows; ``None`` otherwise.
    """

    __slots__ = (
        "capacity",
        "size",
        "storage",
        "scale",
        "source",
        "_buffer",
        "_decoded",
        "_sq_norms",
        "_min_sq",
        "_max_sq",
    )

    def __init__(
        self,
        capacity: int,
        output_dim: int,
        storage: StorageSpec,
        initial_rows: int = 0,
    ) -> None:
        self.capacity = capacity
        self.size = 0
        self.storage = storage
        self.scale: float | None = None
        self.source: BatchInfo | None = None
        allocate = min(capacity, max(initial_rows, 1))
        self._buffer = np.empty((allocate, output_dim), dtype=storage.dtype)
        self._decoded: np.ndarray | None = None  # f2/int8 scan cache
        self._sq_norms = np.empty(allocate, dtype=np.float64)
        self._min_sq = np.inf
        self._max_sq = -np.inf

    @property
    def free(self) -> int:
        return self.capacity - self.size

    def admit(self, rows: np.ndarray) -> int:
        """How many leading ``rows`` this shard will take (0 = sealed).

        Float specs admit up to :attr:`free` rows.  An int8 shard with
        rows already published additionally requires the chunk to fit
        its fixed scale — a chunk that would clip returns 0, telling the
        store to seal this shard and open a fresh one whose scale the
        chunk then sets.  A fresh shard always admits at least one row,
        so the store's fill loop always progresses.
        """
        take = min(self.free, rows.shape[0])
        if take and self.storage.quantised and self.scale is not None:
            peak = float(np.max(np.abs(rows[:take])))
            if peak > INT8_CODE_MAX * self.scale:
                return 0
        return take

    def append(self, rows: np.ndarray) -> None:
        """Copy ``rows`` into the buffer, extending the norm caches.

        The size is published *last*, after the rows, their norms and
        the norm bounds — a concurrent reader that sees the new size
        therefore sees fully written rows and bounds covering them.
        """
        self.source = None  # the rows no longer match the blob
        end = self.size + rows.shape[0]
        if end > self._buffer.shape[0]:  # grow geometrically within capacity
            new_rows = min(self.capacity, max(end, 2 * self._buffer.shape[0]))
            grown = np.empty((new_rows, self._buffer.shape[1]), dtype=self._buffer.dtype)
            grown[: self.size] = self._buffer[: self.size]
            norms = np.empty(new_rows, dtype=np.float64)
            norms[: self.size] = self._sq_norms[: self.size]
            self._buffer, self._sq_norms = grown, norms
        if self.storage.quantised and self.scale is None:
            peak = float(np.max(np.abs(rows))) if rows.size else 0.0
            if not np.isfinite(peak):
                raise ValueError("int8 storage requires finite sketch values")
            self.scale = StorageSpec.int8_step(peak)
        self._buffer[self.size : end] = (
            rows
            if self.storage.name == "f8"
            else self.storage.encode(rows, self.scale)
        )
        decoded = np.asarray(
            self.storage.decode(self._buffer[self.size : end], self.scale),
            dtype=np.float64,
        )
        chunk_norms = np.einsum("ij,ij->i", decoded, decoded)
        self._sq_norms[self.size : end] = chunk_norms
        self._min_sq = min(self._min_sq, float(chunk_norms.min()))
        self._max_sq = max(self._max_sq, float(chunk_norms.max()))
        self.size = end

    def adopt(self, raw: np.ndarray, info: BatchInfo) -> None:
        """Fill an empty shard with raw storage codes from the stored blob ``info``.

        The eager-load path: codes land in the buffer verbatim (no
        decode/re-encode round trip, so quantised reloads are
        bit-identical) and the norm caches are rebuilt from the decoded
        rows exactly as :meth:`append` would have.  The shard remembers
        the blob as its :attr:`source`.
        """
        end = raw.shape[0]
        scale = self.scale = info.scale
        self._buffer[:end] = raw
        scan = self.storage.decode(self._buffer[:end], scale)
        if self.storage.name not in ("f8", "f4"):
            # a fresh f2/int8 decode: prime the scan cache right away
            scan.flags.writeable = False
            self._decoded = scan
        decoded = np.asarray(scan, dtype=np.float64)
        norms = np.einsum("ij,ij->i", decoded, decoded)
        self._sq_norms[:end] = norms
        if end:
            self._min_sq = float(norms.min())
            self._max_sq = float(norms.max())
        self.size = end
        self.source = info

    @property
    def values(self) -> np.ndarray:
        """The filled rows, decoded to the scan dtype (read-only).

        ``f8``/``f4`` are zero-copy views of the buffer; ``f2``/``int8``
        decode into a cached float32 array so repeated queries do not
        re-convert the shard (the cache is keyed by its row count, so
        appends naturally invalidate it, and a stale reference handed
        to an earlier snapshot stays valid — rows are immutable).
        """
        view = self._buffer[: self.size]
        if self.storage.name in ("f8", "f4"):
            view.flags.writeable = False
            return view
        cached = self._decoded
        if cached is None or cached.shape[0] != self.size:
            cached = self.storage.decode(view, self.scale)
            cached.flags.writeable = False
            self._decoded = cached
        return cached

    def iter_codes(self, block_rows: int = DEFAULT_BLOCK_ROWS):
        """The filled rows as bounded blocks of raw codes (read-only, zero copy)."""
        codes = self._buffer[: self.size]
        codes.flags.writeable = False
        for start in range(0, self.size, block_rows):
            yield codes[start : start + block_rows]

    @property
    def nbytes(self) -> int:
        """Bytes of stored values (filled rows only; norm and decode
        caches are excluded — this is the persisted/mapped footprint)."""
        return self.size * self._buffer.shape[1] * self.storage.itemsize

    @property
    def sq_norms(self) -> np.ndarray:
        """Cached ``||row||^2`` for every filled row (read-only view)."""
        view = self._sq_norms[: self.size]
        view.flags.writeable = False
        return view

    def norm_bounds(self) -> tuple[float, float]:
        """``(min, max)`` of the cached squared norms (infinite if empty)."""
        return self._min_sq, self._max_sq


class _MappedShard:
    """A shard whose rows live in a stored blob, mapped on first touch.

    Nothing is read at construction — the shard knows its row count,
    labels and squared-norm bounds from the blob header alone, so the
    norm-bound prefilter can rule the shard out without touching the
    file.  The first access to :attr:`values` memory-maps the raw
    values segment (read-only, pages loaded on demand by the OS); the
    first access to :attr:`sq_norms` makes one pass over the rows to
    build the norm cache.  Mapped shards are sealed: :attr:`free` is
    always zero, so appends to the owning store land in fresh in-memory
    shards.
    """

    __slots__ = ("size", "_info", "_values", "_sq_norms")

    def __init__(self, info: BatchInfo) -> None:
        self.size = info.n_rows
        self._info = info
        self._values: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None

    @property
    def capacity(self) -> int:
        return self.size

    @property
    def free(self) -> int:
        return 0

    def admit(self, rows: np.ndarray) -> int:
        return 0  # mapped shards are sealed

    @property
    def storage(self) -> StorageSpec:
        return self._info.storage_spec

    @property
    def scale(self) -> float | None:
        return self._info.scale

    @property
    def nbytes(self) -> int:
        return self._info.values_nbytes

    @property
    def materialized(self) -> bool:
        """Whether the values have been mapped yet (for tests/metrics)."""
        return self._values is not None

    @property
    def source(self) -> BatchInfo:
        """The published blob the rows live in (mapped shards never change)."""
        return self._info

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            # f8/f4 stay lazy memory maps (decode is a no-op), served as
            # a plain ndarray view whose base keeps the map alive, so a
            # scan's slices skip np.memmap's per-slice hooks; f2/int8
            # decode into a resident float32 array on first touch
            decoded = self.storage.decode(map_values(self._info), self.scale)
            decoded.flags.writeable = False
            self._values = decoded.view(np.ndarray)
        return self._values

    def iter_codes(self, block_rows: int = DEFAULT_BLOCK_ROWS):
        """Raw codes in bounded blocks via buffered reads, not ``mmap``.

        The maintenance path: plain block-sized reads keep peak memory
        *and address space* O(block) — a memory map would charge the
        whole file against ``RLIMIT_AS`` at map time — and the stored
        values digest is verified as the stream drains, so a corrupt
        shard aborts a rewrite instead of propagating into it.
        """
        yield from iter_batch_rows(self._info, block_rows)

    @property
    def sq_norms(self) -> np.ndarray:
        if self._sq_norms is None:
            values = np.asarray(self.values, dtype=np.float64)
            self._sq_norms = np.einsum("ij,ij->i", values, values)
        return self._sq_norms

    def norm_bounds(self) -> tuple[float, float]:
        return self._info.sq_norm_bounds  # recorded at write time


class ShardView:
    """An immutable view of one shard's filled prefix at snapshot time.

    ``start`` is the shard's global row offset; ``size`` the number of
    rows frozen by the snapshot.  Values and norms are exposed lazily so
    that a view of a memory-mapped shard the prefilter skips never
    touches the file.  Views belong to a :class:`StoreLayout` and are
    shared by every query that reads the same state of the store.

    ``dead`` is the sorted array of *local* row indices tombstoned at
    snapshot time (``None`` when the shard has none — the overwhelmingly
    common case, kept allocation-free).  Values and norms still cover
    every physical row: a scan computes each shard's full block in
    place and reads ``dead`` as a mask on it (top-k and radius see NaN
    there, cross copies only the live columns), which is what keeps
    the surviving rows' estimates bit-identical before and after the
    tombstones are physically compacted away.
    """

    __slots__ = ("start", "size", "dead", "_shard")

    def __init__(self, start: int, size: int, shard, dead=None) -> None:
        self.start = start
        self.size = size
        self.dead = dead
        self._shard = shard

    @property
    def live_size(self) -> int:
        """Rows the snapshot actually serves (``size`` minus tombstones)."""
        return self.size if self.dead is None else self.size - len(self.dead)

    @property
    def values(self) -> np.ndarray:
        return self._shard.values[: self.size]

    def iter_codes(self, block_rows: int = DEFAULT_BLOCK_ROWS):
        """The view's raw codes in bounded row blocks (tombstones included).

        In-memory shards yield zero-copy buffer slices; memory-mapped
        shards stream block-sized buffered reads so a disk-to-disk
        rewrite never holds (or even maps) more than one block.  Blocks
        cover every physical row of the view — callers dropping
        tombstones filter against :attr:`dead` as they go.
        """
        remaining = self.size
        for block in self._shard.iter_codes(block_rows):
            if remaining <= 0:
                return
            take = min(block.shape[0], remaining)
            yield block[:take]
            remaining -= take

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Raw codes of this view's shard as the float64 rows they scan as."""
        return np.asarray(self.storage.decode(codes, self.scale), dtype=np.float64)

    @property
    def storage(self) -> StorageSpec:
        return self._shard.storage

    @property
    def scale(self) -> float | None:
        """The shard's int8 quantisation step (``None`` for float specs)."""
        return self._shard.scale

    @property
    def source(self) -> BatchInfo | None:
        """The published blob holding exactly the shard's rows, if any."""
        return self._shard.source

    @property
    def sq_norms(self) -> np.ndarray:
        return self._shard.sq_norms[: self.size]

    def norm_bounds(self) -> tuple[float, float]:
        """Conservative ``(min, max)`` squared-norm bounds for the view.

        The underlying shard may have grown past the snapshot; its
        bounds then cover a superset of these rows, which only widens
        the interval — still valid for prefiltering.
        """
        return self._shard.norm_bounds()


class StoreLayout(NamedTuple):
    """The store's shape at one state, derived once and read per request.

    ``views`` holds one :class:`ShardView` per non-empty shard (fully
    tombstoned ones included, so the views tile the physical layout);
    ``live_views`` the views that still serve rows, and ``live_offsets``
    the first live-row number of each of them plus the live-row total
    (``len(live_views) + 1`` entries), the numbering pairwise indices
    and cross columns use.  ``token`` is the server's cache key for this
    state: rows, config digest, storage name, generation and tombstone
    count.  Building a layout reads shard sizes, never shard values, so
    on an mmap store it maps nothing.
    """

    version: int
    views: tuple
    live_views: tuple
    live_offsets: np.ndarray
    rows: int
    live_rows: int
    tombstones: int
    shard_sizes: tuple
    token: tuple


class ShardedSketchStore:
    """Append-only store of compatible released sketches, in shards.

    All rows must come from one public configuration (same config
    digest, same noise metadata); the first added release pins the
    metadata and later additions are checked against it with the same
    compatibility rule as the estimators.  ``expected_digest`` pins the
    configuration *before* any release arrives: a store constructed
    with it rejects the very first foreign batch instead of silently
    adopting its configuration — this is how
    :meth:`~repro.core.protocol.SketchingSession.serve` and
    :meth:`~repro.serving.service.DistanceService.from_batches` make
    every construction path fail fast on mismatched digests.

    Labels default to the row's global position, matching
    :class:`~repro.core.knn.PrivateNeighborIndex`, and survive a
    save/load round trip with their types intact.

    ``storage`` selects the shard element type
    (:class:`~repro.serving.storage.StorageSpec` or its name; the
    default comes from ``REPRO_STORE_DTYPE``, falling back to ``"f8"``).
    Low-precision stores quantise rows once at append time and serve
    the decoded values through the same :class:`ShardView` interface —
    the query plane runs unchanged, within the documented error
    envelope of :mod:`repro.theory.quantisation`.  Loading a saved
    store always uses the storage recorded in its manifest.

    ``len()``, :attr:`live_row_count`, :meth:`shard_sizes`,
    :meth:`snapshot` and the query plane read one :class:`StoreLayout`
    (:meth:`layout`).  Each mutation — an append, a new or attached
    shard, a delete, a tombstone restore on load, a compaction's swap,
    an assignment to :attr:`generation` — bumps ``_version`` after its
    change is visible, and the first reader that finds the cached
    layout's version behind rebuilds it.  A single-row :meth:`add` thus
    stays O(1), and a reader sees either the old layout or the new one,
    each a consistent prefix of the store.
    """

    def __init__(
        self,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        expected_digest: str | None = None,
        storage: StorageSpec | str | None = None,
    ) -> None:
        if shard_capacity < 1:
            raise ValueError(f"shard_capacity must be >= 1, got {shard_capacity}")
        self.shard_capacity = int(shard_capacity)
        self.expected_digest = expected_digest
        self.storage = (
            StorageSpec.from_env() if storage is None else StorageSpec.parse(storage)
        )
        self._shards: list = []
        self._labels: list[object] = []
        self._template: SketchBatch | None = None  # zero-row metadata carrier
        #: sorted global row indices, see delete(); replaced, never
        #: mutated, so a snapshot reads one consistent array
        self._tombstones = np.empty(0, dtype=np.intp)
        self._generation = 0
        #: Centroid routing table for the *current* shard layout, or
        #: ``None``; appends and deletes invalidate it (see `routing`).
        self._routing: ShardRouting | None = None
        #: bumped by every mutation once it is visible; see layout()
        self._version = 0
        self._layout: StoreLayout | None = None

    # -- introspection -------------------------------------------------------

    @property
    def generation(self) -> int:
        """Bumped every time maintenance rewrites the shard layout.

        Persisted in the manifest so servers can watch for swaps, and
        part of the cache token, so an assignment invalidates the layout.
        """
        return self._generation

    @generation.setter
    def generation(self, value: int) -> None:
        self._generation = value
        self._version += 1

    def layout(self) -> StoreLayout:
        """The :class:`StoreLayout` of the store's current state.

        Built by the first call after a mutation and shared by every
        call until the next one.  The version is read before the shards,
        so a layout built while a mutation lands is tagged with the
        version before it and rebuilt by the next reader after it.
        """
        version = self._version
        layout = self._layout
        if layout is None or layout.version != version:
            layout = self._layout = self._build_layout(version)
        return layout

    def _build_layout(self, version: int) -> StoreLayout:
        # tombstones are read before the shards: every tombstone names a
        # row that was visible when it was set, so it lies in the walk
        dead_global = self._tombstones
        views, sizes, start = [], [], 0
        for shard in list(self._shards):
            size = shard.size
            sizes.append(size)
            if size:
                dead = None
                if dead_global.size:
                    lo, hi = np.searchsorted(dead_global, (start, start + size))
                    if hi > lo:
                        dead = dead_global[lo:hi] - start
                # fully tombstoned views stay in the layout (persistence
                # relies on views tiling the physical layout); queries skip
                # them by their zero live_size without touching the shard
                views.append(ShardView(start, size, shard, dead=dead))
            start += size
        live = tuple(view for view in views if view.live_size)
        offsets = np.cumsum([0, *(view.live_size for view in live)])
        offsets.flags.writeable = False
        template = self._template
        token = (
            start,
            None if template is None else template.config_digest,
            self.storage.name,
            self._generation,
            dead_global.size,
        )
        return StoreLayout(
            version, tuple(views), live, offsets, start, start - dead_global.size,
            dead_global.size, tuple(sizes), token,
        )

    def __len__(self) -> int:
        return self.layout().rows

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def labels(self) -> list:
        return list(self._labels)

    def label(self, i: int):
        """The label of stored row ``i`` (no copy of the label list)."""
        return self._labels[i]

    @property
    def metadata(self) -> SketchBatch | None:
        """A zero-row batch carrying the store's shared metadata."""
        return self._template

    @property
    def routing(self) -> ShardRouting | None:
        """The centroid routing table, iff it matches the current layout.

        Returns ``None`` whenever routing is absent *or stale*: an
        append or delete since the last clustered
        :meth:`compact`/:func:`~repro.serving.maintenance.compact_store`
        invalidates the table (the per-shard balls no longer cover the
        rows), and this property is the one place that staleness rule
        is enforced — callers can never observe a table that does not
        describe exactly the shards they would scan.  Rebuild with
        ``compact(routing=True)`` or the maintenance layer's
        ``rebuild_routing``.
        """
        routing = self._routing
        if routing is None:
            return None
        layout = self.layout()
        if layout.tombstones or not routing.matches(layout.shard_sizes):
            return None
        return routing

    @property
    def nbytes(self) -> int:
        """Bytes of stored values across all shards (filled rows only).

        Counts the storage representation — codes for quantised shards,
        the mapped file bytes for memory-mapped ones — not the norm
        caches or any decode-on-scan scratch.  This is the number that
        shrinks 2–8x when a store is compacted to a lower precision.
        """
        return sum(shard.nbytes for shard in self._shards)

    def describe(self) -> dict:
        """A JSON-friendly summary of the store's shape and storage.

        The same dictionary the HTTP frontend's ``GET /meta`` embeds,
        so operators see identical numbers locally and remotely.
        """
        layout = self.layout()
        return {
            "rows": layout.rows,
            "live_rows": layout.live_rows,
            "tombstones": layout.tombstones,
            "generation": self.generation,
            "shards": self.n_shards,
            "shard_capacity": self.shard_capacity,
            "storage": self.storage.name,
            "nbytes": self.nbytes,
            "config_digest": (
                None if self._template is None else self._template.config_digest
            ),
            "routing": (
                None
                if self.routing is None
                else {
                    "shards": self.routing.n_shards,
                    "n_clusters": self.routing.n_clusters,
                    "generation": self.routing.generation,
                }
            ),
        }

    # -- appending -----------------------------------------------------------

    def add(self, sketch: PrivateSketch, label=None) -> None:
        """Append one published sketch (label defaults to its position)."""
        self._append(
            sketch,
            np.asarray(sketch.values, dtype=np.float64)[np.newaxis, :],
            [len(self._labels) if label is None else label],
        )

    def add_batch(self, batch: SketchBatch, labels=None) -> None:
        """Append every row of a published batch in one pass."""
        if labels is None:
            start = len(self._labels)
            labels = batch.labels or range(start, start + len(batch))
        elif len(labels) != len(batch):
            raise ValueError(f"got {len(labels)} labels for {len(batch)} rows")
        self._append(batch, np.asarray(batch.values, dtype=np.float64), list(labels))

    def _check_expected_digest(self, release) -> None:
        if (
            self.expected_digest is not None
            and release.config_digest != self.expected_digest
        ):
            raise ValueError(
                f"batch {release.config_digest} comes from a different "
                f"configuration than this store expects ({self.expected_digest})"
            )

    def _append(self, release, rows: np.ndarray, labels: list) -> None:
        if self._template is None:
            self._check_expected_digest(release)
            self._template = _as_template(release)
        else:
            estimators.check_compatible(self._template, release)
        # appended rows are not covered by any existing centroid ball:
        # drop the table *before* the rows land, so a concurrent reader
        # can never pair fresh rows with stale routing geometry (the
        # snapshot-sizes check in the service is the second line of
        # defence)
        self._routing = None
        self._labels.extend(labels)
        self._fill(rows)

    def _fill(self, rows: np.ndarray) -> None:
        """Copy ``rows`` into the tail shards, opening new ones as needed.

        The tail shard says how much of the chunk it will
        :meth:`~_Shard.admit`; zero means it is full — or an int8 shard
        whose fixed scale the chunk would clip — and a fresh shard opens
        (a fresh shard always admits, so the loop always progresses).
        The version bump comes last, so the layout goes stale only once
        every row has landed.
        """
        offset = 0
        while offset < rows.shape[0]:
            remaining = rows[offset:]
            take = self._shards[-1].admit(remaining) if self._shards else 0
            if take == 0:
                self._shards.append(
                    _Shard(
                        self.shard_capacity,
                        self._template.output_dim,
                        self.storage,
                        initial_rows=min(remaining.shape[0], self.shard_capacity),
                    )
                )
                take = self._shards[-1].admit(remaining)
            self._shards[-1].append(rows[offset : offset + take])
            offset += take
        self._version += 1

    # -- shard access --------------------------------------------------------

    def shard_values(self, i: int) -> np.ndarray:
        """Filled rows of shard ``i`` as a zero-copy read-only view."""
        return self._shards[i].values

    def shard_sq_norms(self, i: int) -> np.ndarray:
        """Cached squared norms of shard ``i`` (zero-copy, read-only)."""
        return self._shards[i].sq_norms

    def shard_sizes(self) -> list[int]:
        return list(self.layout().shard_sizes)

    @property
    def resident_shards(self) -> int:
        """Shards whose rows are resident in memory.

        In-memory shards always count; memory-mapped shards count only
        once a query has touched them.  ``resident_shards < n_shards``
        on an mmap-loaded store is the observable signature of lazy
        loading (and of the prefilter skipping shards outright).
        """
        return sum(
            1 for shard in self._shards if getattr(shard, "materialized", True)
        )

    def snapshot(self) -> tuple[ShardView, ...]:
        """A consistent point-in-time view of the store, one entry per shard.

        The current :class:`StoreLayout`'s views: shard sizes were read
        once, when the layout was built, so rows appended afterwards are
        invisible to the snapshot, and rows inside it are fully written
        (sizes are published after their rows).  Queries built on a
        snapshot therefore see a consistent prefix of the store even
        while a writer keeps appending.  Every snapshot of one state is
        the same tuple of views.
        """
        return self.layout().views

    def shard_batch(self, i: int) -> SketchBatch:
        """Shard ``i`` as a :class:`SketchBatch` sharing the buffer."""
        start = sum(s.size for s in self._shards[:i])
        return _with_values(
            self._template,
            self._shards[i].values,
            tuple(self._labels[start : start + self._shards[i].size]),
        )

    def to_batch(self) -> SketchBatch:
        """Materialise the whole store as one batch (copies all rows)."""
        if self._template is None:
            raise ValueError("the store is empty")
        values = (
            np.concatenate([shard.values for shard in self._shards])
            if self._shards
            else np.empty((0, self._template.output_dim))
        )
        return _with_values(self._template, values, tuple(self._labels))

    # -- deletion ------------------------------------------------------------

    @property
    def tombstones(self) -> tuple[int, ...]:
        """Sorted global row indices marked deleted (empty when none)."""
        return tuple(self._tombstones.tolist())

    @property
    def live_row_count(self) -> int:
        """Rows queries actually serve: ``len(self)`` minus tombstones."""
        return self.layout().live_rows

    def delete(self, labels) -> int:
        """Tombstone every row whose label is in ``labels``; count new ones.

        Rows are never mutated in place — published rows are immutable,
        and the snapshot contract depends on it — so deletion marks the
        rows' global indices as tombstones instead.  Tombstoned rows are
        skipped by every query and by :meth:`merge`, persist through
        :meth:`save`/:meth:`load` (the manifest records them), and are
        physically dropped, labels included, when :meth:`compact` or
        :func:`repro.serving.maintenance.compact_store` next rewrites
        the shards.  Deleting an already tombstoned row is a no-op; the
        return value counts rows *newly* tombstoned.  Unknown labels
        raise ``KeyError`` naming them — a deployment deleting a label
        that was never stored (or already compacted away) should find
        out, not silently succeed.

        Deletion does **not** refund privacy budget — see the module
        docstring for the DP semantics (post-processing of an
        already-spent budget; the accountant is never decremented).
        """
        if isinstance(labels, (str, bytes)) or not hasattr(labels, "__iter__"):
            labels = (labels,)  # one label, not an iterable of them
        wanted = set(labels)
        if not wanted:
            return 0
        matches: dict[object, list[int]] = {}
        for i, label in enumerate(self._labels):
            if label in wanted:
                matches.setdefault(label, []).append(i)
        missing = wanted - matches.keys()
        if missing:
            raise KeyError(
                f"labels not in this store: {sorted(missing, key=repr)!r}"
            )
        rows = np.fromiter(
            (i for positions in matches.values() for i in positions), dtype=np.intp
        )
        added = np.setdiff1d(rows, self._tombstones)
        if added.size:
            self._tombstones = np.union1d(self._tombstones, added)
            # tombstoned shards still satisfy the centroid bounds (they
            # only shrink the live set), but the routing contract is
            # "fresh layout or nothing": mark the table stale so the
            # next compaction rebuilds it over the survivors
            self._routing = None
            self._version += 1
        return int(added.size)

    # -- maintenance ---------------------------------------------------------

    def compact(
        self,
        storage: StorageSpec | str | None = None,
        *,
        routing: bool | int | None = None,
        routing_seed: int = 0,
    ) -> "ShardedSketchStore":
        """Rewrite the shards so every shard except the last is full.

        Partial shards accumulate when batches straddle shard
        boundaries across mmap-loads and appends; compaction repacks
        the rows (in order — labels are unchanged) into capacity-sized
        shards.  Memory-mapped shards are materialised in the process:
        the compacted store lives in memory; :meth:`save` it to persist
        the compact layout.  Returns ``self`` for chaining.

        ``storage`` re-encodes the rows into a different
        :class:`~repro.serving.storage.StorageSpec` along the way — the
        build-full-precision-then-shrink workflow is
        ``store.compact(storage="f4").save(path)``.  Repacking float
        shards into the same spec is value-preserving (query results
        are unchanged); changing precision, or repacking ``int8``
        shards (whose per-shard scales are re-derived), re-rounds the
        rows within the documented envelope.

        Tombstoned rows are physically dropped here, labels included
        (their budget stays spent — see the module docstring), and the
        store's :attr:`generation` is bumped once the new layout is in
        place; a compaction that raises leaves the store as it found
        it.  Rows stream through the same pass as
        :func:`rewrite_store`, in bounded blocks — on an
        mmap-loaded store nothing larger than a block is ever read at
        once, so compacting a store bigger than RAM is fine.  For a
        disk-to-disk rewrite that never loads the store at all, use
        :func:`repro.serving.maintenance.compact_store`.

        ``routing`` builds a centroid routing table along the way
        (:mod:`repro.serving.routing`): ``True`` clusters the rows into
        :func:`~repro.serving.routing.default_cluster_count` k-means
        clusters (one per would-be-full shard), an integer picks the
        cluster count explicitly.  Rows are rewritten
        cluster-by-cluster with a sealed shard boundary between
        clusters, so every shard holds rows of exactly one cluster and
        gets a tight ``(centroid, radius)`` ball; labels travel with
        their rows (the clustered order is a permutation of the
        original).  Clustered rewrites make one streaming pass per
        cluster, still O(block) memory.  ``routing_seed`` makes the
        clustering reproducible.  The default ``None`` keeps the
        historical order-preserving rewrite (and drops any existing
        routing table — the layout changed).
        """
        sources = [(self.snapshot(), self._labels)]
        centroids = _centroids(
            sources,
            _cluster_count(routing, self.live_row_count, self.shard_capacity),
            routing_seed,
        )
        # all or nothing: the rows go into a fresh store, and this one
        # changes only once the rewrite and its routing table are built
        fresh = ShardedSketchStore(
            self.shard_capacity, storage=self.storage if storage is None else storage
        )
        fresh._template = self._template
        _rewrite(sources, fresh._take, fresh._seal_tail, centroids)
        table = None
        if centroids is not None:
            table = build_shard_routing(
                fresh.snapshot(),
                generation=self.generation + 1,
                n_clusters=centroids.shape[0],
                seed=routing_seed,
            )
        self.storage = fresh.storage
        self._shards = fresh._shards
        self._labels = fresh._labels
        self._tombstones = np.empty(0, dtype=np.intp)
        self._routing = table
        # last, and its setter marks the layout stale: a new generation
        # only ever shows the new rows
        self.generation += 1
        return self

    def _take(self, codes: np.ndarray, view: ShardView, labels: list) -> None:
        """The in-memory rewrite sink: live rows land through :meth:`_fill`."""
        self._labels.extend(labels)
        self._fill(view.decode(codes))

    def _seal_tail(self) -> None:
        """Seal the tail shard so the next fill opens a fresh one.

        The cluster-boundary primitive of clustered compaction: capping
        the shard's capacity at its size makes :meth:`_Shard.admit`
        return zero forever, exactly like a full shard.
        """
        if self._shards and self._shards[-1].size:
            self._shards[-1].capacity = self._shards[-1].size

    @classmethod
    def merge(
        cls,
        *stores: "ShardedSketchStore",
        shard_capacity: int | None = None,
        storage: StorageSpec | str | None = None,
    ) -> "ShardedSketchStore":
        """Fuse compatible stores into one new, compacted store.

        Rows keep their per-store order, stores are concatenated in
        argument order, and labels travel with their rows.  All stores
        must share one public configuration (the usual compatibility
        rule) **and one storage spec** — mixing precisions would
        silently blend error envelopes, so it is rejected with the
        specs named; pass ``storage=...`` explicitly to re-encode
        everything into one spec instead.  Empty stores are skipped,
        and tombstoned rows are dropped on the way through (the merged
        store starts with a clean tombstone set; budgets stay spent —
        see the module docstring).  Rows stream through in bounded
        blocks: merging mmap-loaded stores reads nothing larger than
        one block at a time, so on-disk stores far bigger than RAM
        fuse fine (see also
        :func:`repro.serving.maintenance.merge_stores` for the
        directory-to-directory form).
        """
        if not stores:
            raise ValueError("merge needs at least one store")
        spec, capacity, template = _merge_plan(stores, storage, shard_capacity)
        merged = cls(shard_capacity=capacity, storage=spec)
        merged._template = template
        sources = [(store.snapshot(), store._labels) for store in stores]
        _rewrite(sources, merged._take, merged._seal_tail, None)
        return merged

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Persist the store into directory ``path`` as its next generation.

        One v3 blob per shard goes into a staging directory that becomes
        ``gen-NNNNN``, then the manifest is replaced atomically
        (:func:`~repro.serving.serialization.publish`): a crash leaves an
        existing store untouched, and every save raises the directory's
        generation, so a watching server picks it up.  Labels keep their
        types (default positional labels are elided and regenerated on
        load); quantised shards keep their exact codes and scales, so
        round trips are bit-identical at every precision.

        Only shards that changed are written.  A shard still holding the
        published blob it was loaded from (eagerly or mapped, with no
        append since) is hard-linked into the new generation once the
        file is confirmed to carry the digests it was read with
        (:func:`~repro.serving.serialization.link_blob`); tombstones
        live in the manifest, so a save after :meth:`delete` writes the
        manifest alone, and a save after appends writes the tail shard
        and the new ones.  A shard whose blob was pruned or replaced, or
        that cannot be linked (another filesystem, no hard links),
        streams in full as before.

        The replaced generation stays on disk: handles that mmap-loaded
        it (this store included) keep answering from its files until
        the next publish prunes it — re-``load`` readers before then.

        A store with zero rows cannot be saved — there would be no
        shard to carry the metadata, so the round trip could not be
        faithful.
        """
        if not len(self):
            raise ValueError("cannot save an empty store")
        publish(path, self.generation, self._write_generation)

    def _write_generation(self, directory: Path, generation: int) -> dict:
        """Link or stream every shard into ``directory``; the manifest facts."""
        views = self.snapshot()
        for i, view in enumerate(views):
            path = directory / SHARD_PATTERN.format(i)
            if view.source is not None and link_blob(view.source, path):
                continue  # the blob it was loaded from, unchanged
            labels = self._labels[view.start : view.start + view.size]
            if _is_positional(labels, view.start):
                # default positional labels regenerate on load from the
                # row offsets alone; dropping them keeps big-store
                # headers small (and load-time parsing cheap)
                labels = ()
            with StreamingBatchWriter(
                path,
                self._template,
                storage=view.storage,
                scale=view.scale,
            ) as writer:
                for block in view.iter_codes():
                    writer.append(block, labels[: block.shape[0]])
                    labels = labels[block.shape[0] :]
                writer.commit()
        routing = self.routing  # the property: fresh-layout or None
        facts = _manifest_facts(
            self._template, self.storage, self.shard_capacity, len(views), len(self),
            None if routing is None else _routing_entry(directory, routing),
        )
        if self._tombstones.size:
            facts["tombstones"] = self._tombstones.tolist()
        return facts

    @classmethod
    def load(cls, path: str | os.PathLike, *, mmap: bool = False) -> "ShardedSketchStore":
        """Rebuild a store saved by :meth:`save` (values are bit-exact).

        With ``mmap=True`` each shard attaches as a lazy memory map:
        nothing is read until a query touches the shard, per-shard norm
        caches are computed on first touch, and the OS pages rows in
        and out on demand — stores larger than RAM stay queryable.  The
        trade-off: the per-shard values digests are only verified on
        eager loads (and by rewrites, which stream every block).  Shard
        blobs must be container format 3; any other version fails with
        a :class:`SerializationError` naming it.  The storage spec
        always comes from the manifest, never from
        ``REPRO_STORE_DTYPE``.
        """
        root = Path(path)
        manifest = read_manifest(root)
        try:
            return cls._load_shards(root, manifest, mmap)
        except KeyError as exc:
            raise SerializationError(
                f"manifest at {root} is missing required field {exc}"
            ) from exc

    @classmethod
    def _load_shards(cls, root: Path, manifest: dict, mmap: bool) -> "ShardedSketchStore":
        # the manifest decides the storage spec (pre-quantisation
        # manifests carry no key and mean f8); the environment default
        # never applies to a load — a saved f8 store stays f8 even under
        # REPRO_STORE_DTYPE=f4, and vice versa
        store = cls(
            shard_capacity=manifest["shard_capacity"],
            storage=manifest.get("storage", "f8"),
        )
        directory = shard_dir(root, manifest)
        for i in range(manifest["n_shards"]):
            shard_path = directory / SHARD_PATTERN.format(i)
            if mmap:
                store._attach(read_batch_info(shard_path))
            else:
                store._attach(*read_batch_raw(shard_path))
        store.generation = int(manifest.get("generation", 0))
        tombstones = manifest.get("tombstones", ())
        if tombstones:
            rows = len(store)  # compact_store loads every source: keep this linear
            bad = [t for t in tombstones if not 0 <= int(t) < rows]
            if bad:
                raise SerializationError(
                    f"manifest at {root} tombstones rows {bad} outside the "
                    f"store's {rows} rows"
                )
            store._tombstones = np.unique(np.array(tombstones, dtype=np.intp))
            store._version += 1
        if len(store) != manifest["n_rows"]:
            raise SerializationError(
                f"store at {root} holds {len(store)} rows, manifest says "
                f"{manifest['n_rows']}"
            )
        if (
            store.metadata is not None
            and store.metadata.config_digest != manifest["config_digest"]
        ):
            raise SerializationError(
                f"shards at {root} come from configuration "
                f"{store.metadata.config_digest}, manifest pins "
                f"{manifest['config_digest']} — directory contents were swapped"
            )
        routing_entry = manifest.get("routing")
        if routing_entry is not None:
            payload, centroids, radii = read_routing_blob(
                directory / routing_entry.get("file", ROUTING_BLOB_NAME),
                routing_entry.get("sha256"),
            )
            routing = ShardRouting.from_payload(payload, centroids, radii)
            if not routing.matches(store.shard_sizes()):
                raise SerializationError(
                    f"routing blob at {root} describes shard sizes "
                    f"{routing.shard_sizes}, the store has "
                    f"{tuple(store.shard_sizes())} — the table is stale"
                )
            store._routing = routing
        return store

    def _attach(self, info: BatchInfo, raw: np.ndarray | None = None) -> None:
        """Attach one stored shard: lazily mapped, or from its raw codes.

        Eager codes land in the buffer verbatim — no decode/re-encode
        round trip, so quantised stores reload bit-identically — and
        the tail shard stays appendable up to the store's capacity.
        """
        if info.storage != self.storage.name:
            raise SerializationError(
                f"shard at {info.path} stores {info.storage} values, the store's "
                f"manifest pins {self.storage.name} — directory contents were "
                f"swapped"
            )
        if self._template is None:
            self._check_expected_digest(info.meta)
            self._template = info.meta
        else:
            estimators.check_compatible(self._template, info.meta)
        if info.n_rows:
            start = len(self._labels)
            self._labels.extend(info.labels or range(start, start + info.n_rows))
            if raw is None:
                shard = _MappedShard(info)
            else:
                shard = _Shard(
                    max(self.shard_capacity, info.n_rows),
                    info.meta.output_dim,
                    self.storage,
                    initial_rows=info.n_rows,
                )
                shard.adopt(raw, info)
            self._shards.append(shard)
        self._version += 1


# -- the one rewrite pass ------------------------------------------------------
# compact, merge, compact_store and merge_stores all stream the live rows of
# (snapshot views, label list) sources into a sink: a store's own _fill, or
# a _ShardRoller writing shard files.


def _block_live(offset: int, n: int, dead: np.ndarray) -> np.ndarray:
    """Local indices (within ``[offset, offset+n)``) of untombstoned rows."""
    local = np.arange(offset, offset + n)
    hit = np.searchsorted(dead, local)
    dead_here = (hit < dead.size) & (dead[np.minimum(hit, dead.size - 1)] == local)
    return np.flatnonzero(~dead_here)


def _iter_live(sources, block_rows: int):
    """Live rows of ``sources`` as undecoded ``(codes, view, labels)`` blocks."""
    for views, labels in sources:
        for view in views:
            view_labels = labels[view.start : view.start + view.size]
            offset = 0
            for block in view.iter_codes(block_rows):
                n = block.shape[0]
                block_labels = view_labels[offset : offset + n]
                if view.dead is not None:
                    keep = _block_live(offset, n, view.dead)
                    block = block[keep]
                    block_labels = [block_labels[i] for i in keep]
                offset += n
                if block.shape[0]:
                    yield block, view, block_labels


def _centroids(sources, clusters: int | None, seed: int,
               block_rows: int = DEFAULT_BLOCK_ROWS) -> np.ndarray | None:
    """k-means centroids for a clustered rewrite (``None``: unclustered).

    Trains on every ``step``-th live row, about ``DEFAULT_TRAIN_SAMPLE``
    of them; no randomness, so repeated rewrites of the same rows train
    alike.  The same pass checks every live row: a NaN or infinite
    coordinate has no distance to a centroid, so routing refuses the
    store before any rewrite starts.
    """
    if clusters is None:
        return None
    total = sum(view.live_size for views, _ in sources for view in views)
    step = max(1, total // DEFAULT_TRAIN_SAMPLE)
    sample, seen, bad = [], 0, 0
    for codes, view, _ in _iter_live(sources, block_rows):
        rows = view.decode(codes)
        bad += rows.shape[0] - int(np.isfinite(rows).all(axis=1).sum())
        sample.append(rows[np.arange(seen, seen + rows.shape[0]) % step == 0])
        seen += rows.shape[0]
    if bad:
        raise ValueError(
            f"cannot build routing: {bad} live row(s) hold NaN or infinite "
            f"coordinates; delete() them and compact again"
        )
    return kmeans_centroids(np.concatenate(sample), clusters, seed=seed)


def _cluster_count(routing, live_rows: int, capacity: int) -> int | None:
    """Resolve the ``routing`` argument of the rewrites (``None``: unclustered)."""
    if routing is None or routing is False:
        return None
    if live_rows == 0:
        raise ValueError("cannot build routing over an empty store")
    if routing is True:
        return default_cluster_count(live_rows, capacity)
    clusters = int(routing)
    if clusters < 1:
        raise ValueError(f"routing cluster count must be >= 1, got {clusters}")
    return clusters


def _rewrite(sources, append, seal, centroids: np.ndarray | None,
             block_rows: int = DEFAULT_BLOCK_ROWS) -> None:
    """Feed every live row of ``sources`` to ``append(codes, view, labels)``.

    With ``centroids``, one pass per cluster, ``seal()`` ending a shard
    at each boundary.
    """
    if centroids is None:
        for codes, view, labels in _iter_live(sources, block_rows):
            append(codes, view, labels)
        return
    for j in range(centroids.shape[0]):
        for codes, view, labels in _iter_live(sources, block_rows):
            member = np.flatnonzero(assign_rows(view.decode(codes), centroids) == j)
            if member.size:
                append(codes[member], view, [labels[i] for i in member])
        seal()


def _merge_plan(stores, storage, shard_capacity):
    """``(spec, capacity, template)`` of a merge: one spec, one configuration."""
    filled = [store for store in stores if store.metadata is not None]
    if storage is None:
        specs = sorted({store.storage.name for store in filled})
        if len(specs) > 1:
            raise ValueError(
                f"cannot merge stores with different storage specs "
                f"({', '.join(specs)}): their error envelopes differ; pass "
                f"storage=... to re-encode the merged store into one spec"
            )
        storage = specs[0] if specs else stores[0].storage
    template = filled[0].metadata if filled else None
    for store in filled[1:]:
        estimators.check_compatible(template, store.metadata)
    if shard_capacity is None:
        shard_capacity = max(store.shard_capacity for store in stores)
    return StorageSpec.parse(storage), shard_capacity, template


class _ShardRoller:
    """The disk sink: rolls blocks into capacity-sized shard files.

    Same-spec float codes pass through verbatim (surviving rows stay
    bit-identical on disk); everything else re-encodes with ``scale``.
    """

    def __init__(self, directory, template, spec, scale, capacity, keep_labels):
        self._directory = Path(directory)
        self._template = template
        self._spec = spec
        self._scale = scale
        self._capacity = capacity
        self._keep_labels = keep_labels
        self._writer: StreamingBatchWriter | None = None
        self.paths: list[Path] = []
        self.n_rows = 0

    def append(self, codes: np.ndarray, view: ShardView, labels: list) -> None:
        if view.storage.name != self._spec.name or self._spec.quantised:
            codes = self._spec.encode(view.decode(codes), self._scale)
        while codes.shape[0]:
            if self._writer is None:
                self._open()
            take = min(self._capacity - self._writer.n_rows, codes.shape[0])
            self._writer.append(codes[:take], labels[:take] if self._keep_labels else ())
            codes, labels = codes[take:], labels[take:]
            self.n_rows += take
            if self._writer.n_rows == self._capacity:
                self.seal()

    def _open(self) -> None:
        self.paths.append(self._directory / SHARD_PATTERN.format(len(self.paths)))
        self._writer = StreamingBatchWriter(
            self.paths[-1], self._template, storage=self._spec, scale=self._scale
        )

    def seal(self) -> None:
        if self._writer is not None:
            self._writer.commit()
            self._writer = None

    def finish(self) -> None:
        if not self.paths:  # a zero-row shard still carries the metadata
            self._open()
        self.seal()

    def abort(self) -> None:
        if self._writer is not None:
            self._writer.abort()
            self._writer = None

    def views(self) -> list[ShardView]:
        views, start = [], 0
        for path in self.paths:
            info = read_batch_info(path)
            views.append(ShardView(start, info.n_rows, _MappedShard(info)))
            start += info.n_rows
        return views


def rewrite_store(
    directory: str | os.PathLike,
    stores,
    *,
    storage: StorageSpec | str | None = None,
    shard_capacity: int | None = None,
    routing: bool | int | None = None,
    routing_seed: int = 0,
    generation: int = 0,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> dict:
    """Stream the live rows of ``stores`` into shard files in ``directory``.

    The disk form of ``compact``/``merge``, O(``block_rows``) memory over
    ``load(mmap=True)`` inputs.  ``int8`` uses one global scale from an
    extra read pass.  Returns the manifest's store facts.
    """
    spec, capacity, template = _merge_plan(stores, storage, shard_capacity)
    sources = [(store.snapshot(), store._labels) for store in stores]
    clusters = _cluster_count(
        routing, sum(store.live_row_count for store in stores), capacity
    )
    centroids = _centroids(sources, clusters, routing_seed, block_rows)
    scale = None
    if spec.quantised:
        peak = 0.0
        for codes, view, _ in _iter_live(sources, block_rows):
            block_peak = float(np.max(np.abs(view.decode(codes))))
            if not np.isfinite(block_peak):
                raise ValueError("int8 storage requires finite sketch values")
            peak = max(peak, block_peak)
        scale = StorageSpec.int8_step(peak)
    keep_labels, start = clusters is not None, 0
    for store in stores:
        keep_labels = keep_labels or bool(store._tombstones.size) or not _is_positional(
            store._labels, start
        )
        start += len(store)
    roller = _ShardRoller(directory, template, spec, scale, capacity, keep_labels)
    try:
        _rewrite(sources, roller.append, roller.seal, centroids, block_rows)
        roller.finish()
    except BaseException:
        roller.abort()
        raise
    table = None
    if centroids is not None:
        table = build_shard_routing(
            roller.views(), generation=generation, n_clusters=centroids.shape[0],
            seed=routing_seed,
        )
    return _manifest_facts(
        template, spec, capacity, len(roller.paths), roller.n_rows,
        None if table is None else _routing_entry(directory, table),
    )


def _manifest_facts(template, spec, capacity, n_shards, n_rows, routing_entry) -> dict:
    """The manifest fields a store owns; ``publish`` adds the layout ones."""
    facts = {
        "shard_capacity": capacity,
        "n_shards": n_shards,
        "n_rows": n_rows,
        "storage": spec.name,
        "config_digest": template.config_digest,
    }
    if routing_entry is not None:
        facts["routing"] = routing_entry
    return facts


def _routing_entry(directory, table: ShardRouting) -> dict:
    """Write ``table`` next to its shards; its manifest ``routing`` entry."""
    digest = write_routing_blob(
        Path(directory) / ROUTING_BLOB_NAME, table.to_payload(), table.centroids, table.radii
    )
    return {
        "file": ROUTING_BLOB_NAME,
        "sha256": digest,
        "n_clusters": table.n_clusters,
        "generation": table.generation,
    }


def _is_positional(labels: list, start: int) -> bool:
    """Whether ``labels`` are exactly the default global positions.

    Such labels are not persisted: the loader regenerates them from row
    offsets (``info.labels or range(...)``), so the round trip is
    unchanged while 100k-row headers stay kilobytes instead of
    megabytes.  The type check keeps e.g. ``np.int64`` labels stored —
    they only *equal* the defaults, and must round-trip as written.
    """
    return set(map(type, labels)) <= {int} and labels == list(
        range(start, start + len(labels))
    )


def _as_template(release) -> SketchBatch:
    """A zero-row batch carrying ``release``'s shared metadata."""
    if not isinstance(release, SketchBatch):
        release = SketchBatch.from_sketches([release])
    empty = np.empty((0, release.output_dim))
    return dataclasses.replace(release, values=empty, labels=())


def _with_values(template: SketchBatch, values: np.ndarray, labels: tuple) -> SketchBatch:
    return dataclasses.replace(template, values=values, labels=labels)
