"""Server-side LRU cache of released result envelopes.

**Why caching a DP release is safe.**  Every sketch this system serves
was privatised exactly once, at release time: the noise that protects
it was sampled when the data holder called
:meth:`~repro.core.sketch.PrivateSketcher.sketch` and the privacy
budget was spent then, by the accountant.  ``execute()`` is a
*deterministic post-processing* of those already-published sketches —
no query ever samples fresh randomness — so executing the identical
query against the identical store state yields a byte-identical result
envelope.  By the post-processing property of differential privacy,
re-serving that identical envelope reveals nothing beyond the first
serving and therefore **costs no additional privacy budget**.  A cache
hit and a recompute are indistinguishable to the analyst, bit for bit.

(The contrast is instructive: an *interactive* mechanism that adds
fresh noise per query — e.g. the generalized binary-tree mechanism of
arXiv 2504.03354, or DP all-pairs-distance releases in the style of
arXiv 2203.16476 — must deduplicate repeated queries precisely to
*avoid* spending budget again; there, answer reuse is a privacy
optimisation.  Here noise is baked into the stored sketches, so reuse
is purely a performance optimisation — but both exploit the same
structure: released quantities are reusable.)

**Keying.**  :class:`ReleaseCache` is a plain bounded LRU mapping an
opaque, hashable key to the encoded result-envelope bytes.  The HTTP
frontend keys entries by ``(endpoint path, request body bytes,
store-state token)`` where the token is ``(rows, config digest,
storage, generation, tombstone count)``: the wire codec is canonical
(sorted keys, fixed float encoding), so equal queries encode to equal
bytes, and any append (row count), delete (tombstone count) or
generation swap changes the token and thereby invalidates every prior
key without explicit eviction.  Entries are bounded both by count and
by total payload bytes.

The cache is thread-safe; hit/miss/eviction counters are exposed via
:meth:`ReleaseCache.stats` (the server reports them in ``/healthz``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Default retained-payload budget: generous for ranking envelopes
#: (hundreds of bytes each), conservative for matrix results.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class ReleaseCache:
    """A bounded, thread-safe LRU of encoded result envelopes.

    Parameters
    ----------
    max_entries:
        Maximum number of cached envelopes; least-recently-used entries
        are evicted first.  Must be >= 1.
    max_bytes:
        Maximum total payload bytes retained.  A single value larger
        than the budget is simply not cached (storing it would evict
        everything else for one entry).
    """

    def __init__(
        self, max_entries: int = 1024, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[object, bytes] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key) -> bytes | None:
        """The cached envelope for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key, value: bytes) -> None:
        """Insert ``key -> value``, evicting LRU entries to stay bounded."""
        if len(value) > self.max_bytes:
            return  # one oversized envelope must not flush the whole cache
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = value
            self._bytes += len(value)
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters for observability: entries, bytes, hits, misses, evictions."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
