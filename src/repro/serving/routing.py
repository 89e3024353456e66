"""Centroid routing: sub-linear shard selection for exact queries.

The norm-bound prefilter of :mod:`repro.serving.service` is a 1-D
projection of sketch geometry: it can only rule a shard out when the
query's *norm* is far from every stored norm.  This module generalises
it to the full sketch space.  At compaction time the store's rows are
clustered (seeded, deterministic k-means over the *decoded* rows — the
exact values queries scan) and rewritten cluster-by-cluster, so shard
boundaries align with cluster boundaries; each shard then gets a
*centroid* ``c_i`` and a *covering radius* ``r_i`` — the maximum
distance from any of its rows to ``c_i``.  Because the paper's sketch
map approximately preserves Euclidean geometry (Stausholm, PODS 2021),
rows that are close in input space land in the same sketch-space ball,
so the balls are tight and routing is selective.

The query plane uses the ``(c_i, r_i)`` table whenever it matches the
snapshot's layout; a store without a table (never clustered, or
compacted since without ``routing=``) runs the norm bound alone.  By the
reverse triangle inequality every row ``v`` of shard ``i`` satisfies
``||q - v|| >= ||q - c_i|| - r_i``, so the shard's whole distance block
is bounded below by ``max(0, ||q - c_i|| - r_i)^2 - correction`` — the
same shape as the norm bound of :mod:`repro.serving.service`.  The scan
driver takes the larger of the two, visits shards in ascending order of
it (best-first search over the cover the balls form) and skips a shard
only when the bound *proves* it cannot contribute a result.  Routed
results are therefore **bit-identical** to unrouted ones; routing is
pure work-skipping, never approximation, and — like every query — it
is post-processing of already-released sketches, so the privacy
guarantee is untouched.  The bound is widened by the same slack recipe
as the norm bound (relative slack dominating float64 rounding, plus the
float32 accumulation envelope ``4 * gamma * ||q|| * (||c_i|| + r_i)``
from :mod:`repro.theory.quantisation` on quantised stores — ``||c_i|| +
r_i`` bounds every row norm in the ball, standing in for the norm
bound's ``sqrt(hi)``).

Routing prunes only where clusters lie further apart than their spread:
every covering radius includes the norm of the paper's release noise,
about ``sqrt(k E[eta^2])``, so on data without cluster structure the
balls overlap and the query plane scans every shard — still exactly.

Staleness: a :class:`ShardRouting` is only valid for the exact shard
layout it was built from.  The store invalidates it on append and
delete, and every query revalidates against its frozen snapshot (row
count and per-shard sizes must match), so a stale table can never
misroute — it simply stops being used until the next rebuild
(:meth:`repro.serving.maintenance.StoreMaintainer.rebuild_routing`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Default number of rows sampled to train the k-means centroids; the
#: full store is still assigned and covered exactly (radii come from
#: every row), sampling only affects where the centroids land.
DEFAULT_TRAIN_SAMPLE = 32768

#: Lloyd iterations after k-means++ seeding.  Routing correctness never
#: depends on convergence quality — radii cover whatever assignment the
#: iterations settle on — so a fixed budget keeps builds deterministic
#: and bounded.
_KMEANS_ITERS = 25

#: Same relative safety slack as the norm bound
#: (``repro.serving.service._PREFILTER_REL_SLACK``): double-precision
#: rounding in a distance block is ~1e-16 relative, a 1e-9 margin
#: dominates it by seven orders of magnitude.  Kept as a local constant
#: because the service imports this module, not the other way around.
_ROUTING_REL_SLACK = 1e-9


def kmeans_centroids(
    rows: np.ndarray, n_clusters: int, seed: int = 0
) -> np.ndarray:
    """Deterministic k-means centroids over ``rows`` (float64).

    k-means++ seeding followed by a fixed budget of Lloyd iterations,
    all randomness drawn from ``np.random.default_rng(seed)`` — the
    same rows and seed always produce the same centroids, so compaction
    is reproducible.  Empty clusters are re-seeded to the point
    farthest from its centroid (deterministically).  ``n_clusters`` is
    clamped to the number of rows.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("cannot cluster zero rows")
    k = min(int(n_clusters), n)
    rng = np.random.default_rng(seed)
    # k-means++: first centre uniform, then proportional to sq distance
    centroids = np.empty((k, rows.shape[1]), dtype=np.float64)
    centroids[0] = rows[int(rng.integers(n))]
    closest = _sq_dists_to(rows, centroids[:1]).ravel()
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:  # all rows coincide with a centre already
            centroids[j:] = centroids[0]
            break
        centroids[j] = rows[int(rng.choice(n, p=closest / total))]
        closest = np.minimum(closest, _sq_dists_to(rows, centroids[j : j + 1]).ravel())
    for _ in range(_KMEANS_ITERS):
        assign = assign_rows(rows, centroids)
        updated = centroids.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                updated[j] = rows[members].mean(axis=0)
            else:
                # deterministic re-seed: the row currently worst-served
                worst = int(np.argmax(_sq_dists_to(rows, updated).min(axis=1)))
                updated[j] = rows[worst]
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    return centroids


def _sq_dists_to(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, K)`` squared distances, clipped at zero (float64 GEMM)."""
    sq_rows = np.einsum("ij,ij->i", rows, rows)
    sq_c = np.einsum("ij,ij->i", centroids, centroids)
    d = sq_rows[:, np.newaxis] + sq_c[np.newaxis, :] - 2.0 * (rows @ centroids.T)
    return np.maximum(d, 0.0)


def assign_rows(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid (ties to the lowest index)."""
    return np.argmin(_sq_dists_to(np.asarray(rows, dtype=np.float64), centroids), axis=1)


@dataclasses.dataclass(frozen=True)
class ShardRouting:
    """The per-shard ``(centroid, radius)`` table of one shard layout.

    ``shard_sizes`` pins the exact physical layout the table was built
    from; :meth:`matches` revalidates against a frozen snapshot before
    every routed query, so a table can never outlive its layout.
    ``generation`` records the store generation at build time (surfaced
    by ``/healthz`` so operators can see whether routing is current).
    """

    centroids: np.ndarray  # (n_shards, output_dim) float64
    radii: np.ndarray  # (n_shards,) float64
    shard_sizes: tuple
    generation: int = 0
    n_clusters: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        centroids = np.ascontiguousarray(self.centroids, dtype=np.float64)
        radii = np.ascontiguousarray(self.radii, dtype=np.float64)
        if centroids.ndim != 2 or radii.shape != (centroids.shape[0],):
            raise ValueError(
                f"centroids {centroids.shape} and radii {radii.shape} disagree"
            )
        if len(self.shard_sizes) != centroids.shape[0]:
            raise ValueError(
                f"{len(self.shard_sizes)} shard sizes for "
                f"{centroids.shape[0]} centroids"
            )
        if radii.size and (not np.all(np.isfinite(radii)) or radii.min() < 0):
            raise ValueError("radii must be finite and non-negative")
        centroids.flags.writeable = False
        radii.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "shard_sizes", tuple(int(s) for s in self.shard_sizes))

    @property
    def n_shards(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_rows(self) -> int:
        return sum(self.shard_sizes)

    def matches(self, sizes) -> bool:
        """Whether this table describes exactly the shard layout ``sizes``.

        The query plane passes its *snapshot's* per-view sizes, so a
        concurrent append that grew a shard after the table was read can
        never be routed with stale geometry — the sizes no longer match
        and the query falls back to an unrouted scan.
        """
        return tuple(int(s) for s in sizes) == self.shard_sizes

    # -- query-time geometry -------------------------------------------------

    def lower_bounds(
        self,
        rows: np.ndarray,
        sq_rows: np.ndarray,
        query_norms: np.ndarray,
        correction: float,
        gamma: float = 0.0,
    ) -> np.ndarray:
        """Conservative per-(query, shard) lower bounds on the estimates.

        The centroid-ball analogue of
        ``repro.serving.service._shard_lower_bounds``, with the same
        slack recipe: ``gap = max(0, ||q - c_i|| - r_i)`` bounds every
        raw squared distance in the shard from below, the correction is
        subtracted, and a relative slack (scaled by ``(||c_i|| +
        r_i)^2``, which bounds every row's squared norm in the ball —
        the stand-in for the norm bound's ``hi``) plus the float32
        accumulation term ``4 * gamma * ||q|| * (||c_i|| + r_i)``
        absorbs anything the scanning kernel can round.  Comparing these
        bounds *strictly greater* against a threshold can only skip
        shards whose every entry genuinely exceeds it — routed exact
        results are identical to unrouted ones, ties included.
        """
        dist = np.sqrt(_sq_dists_to(rows, self.centroids))
        reach = np.linalg.norm(self.centroids, axis=1) + self.radii
        gap = np.maximum(dist - self.radii[np.newaxis, :], 0.0)
        slack = (
            _ROUTING_REL_SLACK
            * (sq_rows[:, np.newaxis] + (reach * reach)[np.newaxis, :] + abs(correction))
            + 1e-12
        )
        if gamma:
            slack = slack + 4.0 * gamma * query_norms[:, np.newaxis] * reach[np.newaxis, :]
        return gap * gap - correction - slack

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        """The JSON-ready dict the serialization layer writes to disk."""
        return {
            "n_shards": self.n_shards,
            "output_dim": int(self.centroids.shape[1]),
            "shard_sizes": list(self.shard_sizes),
            "generation": int(self.generation),
            "n_clusters": int(self.n_clusters),
            "seed": int(self.seed),
        }

    @classmethod
    def from_payload(
        cls, payload: dict, centroids: np.ndarray, radii: np.ndarray
    ) -> "ShardRouting":
        return cls(
            centroids=centroids,
            radii=radii,
            shard_sizes=tuple(payload["shard_sizes"]),
            generation=int(payload.get("generation", 0)),
            n_clusters=int(payload.get("n_clusters", 0)),
            seed=int(payload.get("seed", 0)),
        )


def build_shard_routing(
    views,
    *,
    generation: int = 0,
    n_clusters: int = 0,
    seed: int = 0,
) -> ShardRouting:
    """A :class:`ShardRouting` over ``views``, one per physical shard.

    The shards — a store snapshot or a disk rewrite's staged files —
    are streamed twice in row blocks (mean, then covering radius) over
    their *decoded* rows, the exact values queries scan.  Valid for any
    layout; clustering just makes the radii small enough to matter.
    """
    centroids, radii, sizes = [], [], []
    for view in views:
        total, count = 0.0, 0
        for block in view.iter_codes():
            total = total + view.decode(block).sum(axis=0)
            count += block.shape[0]
        if count == 0:
            raise ValueError("cannot build routing over an empty shard")
        centroid = total / count
        max_sq = 0.0
        for block in view.iter_codes():
            diff = view.decode(block) - centroid[np.newaxis, :]
            max_sq = max(max_sq, float(np.max(np.einsum("ij,ij->i", diff, diff))))
        radius = float(np.sqrt(max_sq))
        # a relative slack above any rounding the distance computation can
        # accumulate, so the ball provably contains every row — exact-mode
        # routing rests on this inflation plus the query-time slack
        radius += _ROUTING_REL_SLACK * (radius + float(np.linalg.norm(centroid))) + 1e-12
        centroids.append(centroid)
        radii.append(radius)
        sizes.append(count)
    return ShardRouting(
        centroids=np.asarray(centroids, dtype=np.float64),
        radii=np.asarray(radii, dtype=np.float64),
        shard_sizes=tuple(sizes),
        generation=generation,
        n_clusters=n_clusters,
        seed=seed,
    )


def default_cluster_count(n_rows: int, shard_capacity: int) -> int:
    """One cluster per (would-be) full shard — the routing default.

    Matching cluster count to shard capacity means a cluster typically
    fills about one shard, so each centroid ball covers about one
    shard's rows.
    """
    return max(1, -(-n_rows // shard_capacity))
