"""LSM-style background maintenance for on-disk sketch stores.

Two disk-to-disk rewrites — :func:`compact_store` and
:func:`merge_stores` — run the store's one rewrite pass
(:func:`repro.serving.store.rewrite_store`) over ``load(mmap=True)``
handles of their sources, whose shards stream in bounded, buffered,
digest-verified blocks, so peak memory is O(one block) no matter how
large the store is: nothing is ever loaded, or even memory-mapped, in
full.  Both drop tombstoned rows physically (budgets stay spent — the
DP semantics of deletion are documented once, in
:mod:`repro.serving.store`).

Both publish like ``save`` (:func:`repro.serving.serialization.publish`):
the next ``gen-NNNNN`` generation is written in full, then
``manifest.json`` — the single source of truth — is replaced
atomically, and generations older than the replaced one are pruned.  A
crash at any point leaves the old generation loadable; its leftovers
are orphans the next publish removes.

:class:`MaintenancePolicy` turns the quickstart's manual
build-then-shrink workflow into an automatic rule — a hot full-precision
write tier is compacted (tombstones dropped, partial shards repacked)
and demoted to a cold quantised read tier once row/byte thresholds are
crossed — and :class:`StoreMaintainer` runs that policy from a
background thread.  A :class:`~repro.serving.server.SketchQueryServer`
watching the manifest picks each new generation up without a restart.

Like every operation downstream of release, maintenance is pure
post-processing: no rewrite, re-encode, demotion or deletion here
touches the privacy accountant.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from pathlib import Path

from repro.serving.serialization import (
    DEFAULT_BLOCK_ROWS,
    SHARD_PATTERN,
    publish,
    read_manifest,
    shard_dir,
)
from repro.serving.storage import StorageSpec
from repro.serving.store import ShardedSketchStore, rewrite_store


def compact_store(
    path: str | os.PathLike,
    *,
    storage: StorageSpec | str | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    routing: bool | int | None = None,
    routing_seed: int = 0,
) -> dict:
    """Rewrite an on-disk store as its next generation, disk-to-disk.

    Streams every live row of the store at ``path`` into capacity-sized
    shards of a new ``gen-NNNNN`` generation — tombstoned rows are
    physically dropped, ``storage=...`` re-encodes along the way (the
    hot-f8-to-cold-f4/int8 demotion) — then atomically publishes it by
    replacing ``manifest.json``.  Peak memory is O(``block_rows``):
    source shards are read in bounded buffered blocks (never mapped),
    written shards stream through a temp file, and each source block's
    digest chain is verified before the generation can publish.

    Readers are never broken: a store loaded (even ``mmap=True``, even
    mid-query) before the publish keeps serving its old generation —
    the previous generation's files are retained for exactly this
    reason, while generations older than that, and any crash orphans
    (staging dirs, published-but-unreferenced generations), are pruned.
    A long-running :class:`~repro.serving.server.SketchQueryServer`
    notices the manifest's new generation and hot-swaps.

    ``routing=True`` makes the rewrite *clustered*: rows are k-means
    clustered (``routing=N`` picks the cluster count; ``True`` means
    :func:`~repro.serving.routing.default_cluster_count`) and written
    cluster-by-cluster with sealed shard boundaries between clusters,
    and the generation is published with a centroid routing table the
    query plane uses for sub-linear shard selection (see
    :mod:`repro.serving.routing`).  Still O(block) memory: one extra
    streaming pass per cluster plus two per written shard.  The default
    ``None`` keeps the order-preserving rewrite — which also drops any
    existing routing entry, since the layout it described is gone.

    Returns a summary dict (``generation``, ``rows``,
    ``tombstones_dropped``, ``shards``, ``storage``, ``routing``,
    ``pruned``).
    """
    root = Path(path)
    source = ShardedSketchStore.load(root, mmap=True)
    generation, pruned = publish(
        root,
        source.generation + 1,
        lambda directory, number: rewrite_store(
            directory, [source], storage=source.storage if storage is None else storage,
            routing=routing, routing_seed=routing_seed, generation=number,
            block_rows=block_rows,
        ),
    )
    manifest = read_manifest(root)
    return {
        "path": os.fspath(root),
        "generation": generation,
        "rows": manifest["n_rows"],
        "tombstones_dropped": len(source.tombstones),
        "shards": manifest["n_shards"],
        "storage": manifest["storage"],
        "routing": manifest["routing"]["n_clusters"] if "routing" in manifest else None,
        "pruned": pruned,
    }


def merge_stores(
    *sources: str | os.PathLike,
    dest: str | os.PathLike,
    storage: StorageSpec | str | None = None,
    shard_capacity: int | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> dict:
    """Fuse on-disk stores into a new store directory, disk-to-disk.

    The directory-to-directory form of
    :meth:`ShardedSketchStore.merge`: rows keep their per-store order,
    stores concatenate in argument order, tombstoned rows are dropped on
    the way through, and nothing larger than one block is ever held in
    memory.  The same merge rules apply — mixing specs is rejected with
    the specs named unless ``storage=...`` re-encodes everything — and
    all sources must share one public configuration.  ``dest`` is
    published like any save: a fresh directory starts at generation 0,
    an existing store is replaced by its next generation, and a crash
    never leaves a partial store there.
    """
    if not sources:
        raise ValueError("merge_stores needs at least one source store")
    stores = [ShardedSketchStore.load(source, mmap=True) for source in sources]
    publish(
        dest,
        0,
        lambda directory, number: rewrite_store(
            directory, stores, storage=storage, shard_capacity=shard_capacity,
            block_rows=block_rows,
        ),
    )
    manifest = read_manifest(dest)
    return {
        "path": os.fspath(Path(dest)),
        "rows": manifest["n_rows"],
        "shards": manifest["n_shards"],
        "storage": manifest["storage"],
        "sources": [os.fspath(Path(source)) for source in sources],
    }


@dataclasses.dataclass(frozen=True)
class MaintenancePolicy:
    """When, and into what, an on-disk store should be compacted.

    The tiering rule: stores are *written* hot (full-precision ``f8``
    appends, tombstones accumulating) and *read* cold (compact,
    optionally quantised, tombstone-free).  :meth:`plan` looks at a
    store's manifest plus its on-disk byte size and answers with the
    ``compact_store`` keyword arguments that would restore health, or
    ``None`` when the store is already healthy:

    * ``min_tombstones`` — compact once at least this many rows are
      tombstoned (they cost scan time and disk until dropped).
    * ``max_partial_shards`` — compact when the shard count exceeds the
      minimum needed for the row count by more than this (partial
      shards accumulate as appended batches straddle capacity).
    * ``cold_rows`` / ``cold_bytes`` — demote a hot-tier store to
      ``cold_storage`` once it holds at least this many rows / bytes
      (``None`` disables the threshold; demotion triggers only from
      the hot spec, so an already-cold store is not re-encoded again).
    * ``routed`` — make every compaction a *clustered* rewrite
      (``compact_store(..., routing=True)``), so the store always
      carries a fresh centroid routing table.  A store whose manifest
      already has routing is re-clustered on compaction regardless, so
      maintenance never silently strips an operator-built table.

    A manifest that carries routing is exempt from the partial-shard
    trigger: a clustered layout legitimately ends every cluster on a
    partial shard, and "repacking" those would just tear the clustering
    down and rebuild it forever.

    Pure function of observable state — the policy itself never touches
    the store, so it is trivially testable and safe to evaluate from
    any thread.
    """

    cold_storage: str = "f4"
    hot_storage: str = "f8"
    min_tombstones: int = 1
    max_partial_shards: int = 1
    cold_rows: int | None = None
    cold_bytes: int | None = None
    routed: bool = False

    def plan(self, manifest: dict, *, nbytes: int | None = None) -> dict | None:
        """The ``compact_store`` kwargs this store needs, or ``None``."""
        rows = manifest["n_rows"]
        tombstones = len(manifest.get("tombstones", ()))
        capacity = manifest["shard_capacity"]
        current = manifest.get("storage", "f8")
        has_routing = bool(manifest.get("routing"))
        reasons = []
        if tombstones >= self.min_tombstones > 0:
            reasons.append(f"{tombstones} tombstoned rows")
        min_shards = max(1, -(-(rows - tombstones) // capacity))
        if (
            manifest["n_shards"] > min_shards + self.max_partial_shards - 1
            and not has_routing
        ):
            reasons.append(
                f"{manifest['n_shards']} shards for {rows} rows "
                f"(minimum {min_shards})"
            )
        demote = current == self.hot_storage and (
            (self.cold_rows is not None and rows >= self.cold_rows)
            or (
                self.cold_bytes is not None
                and nbytes is not None
                and nbytes >= self.cold_bytes
            )
        )
        if demote:
            reasons.append(f"demote {current} -> {self.cold_storage}")
        if not reasons:
            return None
        return {
            "storage": self.cold_storage if demote else None,
            "routing": True if (self.routed or has_routing) else None,
            "reason": "; ".join(reasons),
        }


def _store_nbytes(root: Path, manifest: dict) -> int:
    directory = shard_dir(root, manifest)
    return sum(
        (directory / SHARD_PATTERN.format(i)).stat().st_size
        for i in range(manifest["n_shards"])
    )


class StoreMaintainer:
    """Runs a :class:`MaintenancePolicy` over a store dir, in background.

    Between queries — the thread sleeps ``interval`` seconds, wakes,
    reads the manifest, asks the policy, and calls
    :func:`compact_store` when the policy says so.  Everything happens
    disk-to-disk in this process; serving processes watching the
    manifest (``SketchQueryServer(watch_interval=...)``) pick the new
    generation up live.  One maintainer per store directory — the
    generational publish is not multi-writer safe (the usual one-writer
    contract of the store).

    Errors are recorded on :attr:`last_error` and the loop keeps going:
    a transient failure (say, disk full) must not kill maintenance
    forever.  :attr:`history` keeps each completed action's summary.
    Use as a context manager, or :meth:`close` explicitly.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        policy: MaintenancePolicy | None = None,
        *,
        interval: float = 5.0,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> None:
        self.path = Path(path)
        self.policy = MaintenancePolicy() if policy is None else policy
        self.interval = float(interval)
        self.block_rows = block_rows
        self.history: list[dict] = []
        self.last_error: Exception | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def run_once(self) -> dict | None:
        """One policy evaluation; compacts if needed, returns the summary."""
        manifest = read_manifest(self.path)
        action = self.policy.plan(
            manifest, nbytes=_store_nbytes(self.path, manifest)
        )
        if action is None:
            return None
        summary = compact_store(
            self.path,
            storage=action["storage"],
            routing=action.get("routing"),
            block_rows=self.block_rows,
        )
        summary["reason"] = action["reason"]
        summary["at"] = time.time()
        self.history.append(summary)
        return summary

    def rebuild_routing(
        self, clusters: bool | int = True, *, seed: int = 0
    ) -> dict:
        """Force a clustered rewrite now, refreshing the routing table.

        The recovery path after appends or deletes have invalidated a
        store's routing (the query plane falls back to unrouted scans
        until the table matches the layout again): one
        :func:`compact_store` call with ``routing=clusters``, recorded
        in :attr:`history` like any policy-driven action.
        """
        summary = compact_store(
            self.path,
            routing=clusters,
            routing_seed=seed,
            block_rows=self.block_rows,
        )
        summary["reason"] = "rebuild routing"
        summary["at"] = time.time()
        self.history.append(summary)
        return summary

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
                self.last_error = None
            except Exception as exc:  # keep maintaining despite transient errors
                self.last_error = exc

    def start(self) -> "StoreMaintainer":
        if self._thread is not None:
            raise RuntimeError("maintainer already started")
        self._thread = threading.Thread(
            target=self._loop, name="repro-maintainer", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "StoreMaintainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
