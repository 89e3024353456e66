"""Centroid shard routing vs full scan at 105k rows.

The sub-linear search contract of centroid routing, measured end to end on a
clustered workload (a mixture of well-separated Gaussians — the regime
centroid routing exists for; on uniform data the balls overlap and routing
legitimately keeps everything):

* **exactness** — the routed top-10 payload must be *bit-identical* to
  the unrouted scan's (hard: the centroid-ball bound is a proof, not a
  heuristic — any divergence is a bug).  The unrouted side is the same
  saved layout loaded without its table, where the norm bound runs
  alone;
* **work** — rows scanned must drop below the unrouted scan's (hard),
  and to at most 10% of the store (hard): shards are visited in order
  of their bound, so the query's own cluster fills the top-10 first and
  its cutoff rules the other clusters out.  Wall-clock timings are
  reported, not gated — shared runners are noisy.

Queries execute one at a time, the shape a serving tier actually sees:
a batch can only skip a shard that every one of its rows can skip.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/bench_routed_search.py -v -s``
"""

import shutil
import time

import numpy as np

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    DistanceService,
    ExecutionPolicy,
    ShardedSketchStore,
    TopKQuery,
)
from repro.serving.serialization import read_manifest, write_manifest

_D, _K, _S = 128, 64, 4
_ROWS = 105_000        # stored rows (>= 1e5 per the acceptance gate)
_CHUNK = 15_000        # sketching chunk, bounds peak memory
_SHARD = 8_192
_CENTERS = 24          # mixture components; one k-means cluster each
_QUERIES = 32
_TOP = 10
_REPEATS = 3

_MAX_ROUTED_FRAC = 0.10


def _build():
    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    rng = np.random.default_rng(0)
    # mixture of Gaussians: cluster id per row, unit noise around centres
    centers = rng.standard_normal((_CENTERS, _D)) * 10.0
    data = centers[rng.integers(_CENTERS, size=_ROWS)] + rng.standard_normal(
        (_ROWS, _D)
    )
    store = ShardedSketchStore(shard_capacity=_SHARD, storage="f8")
    for start in range(0, _ROWS, _CHUNK):
        store.add_batch(
            sketcher.sketch_batch(data[start : start + _CHUNK], noise_rng=start)
        )
    # queries near cluster centres — the workload routing serves best
    near = centers[rng.integers(_CENTERS, size=_QUERIES)]
    queries = [
        sketcher.sketch_batch(
            near[i : i + 1] + rng.standard_normal((1, _D)), noise_rng=999_983 + i
        )
        for i in range(_QUERIES)
    ]
    return store, queries


def _run_queries(service, queries):
    """Per-query best-of-N timings plus summed scan stats and payloads."""
    service.execute(TopKQuery(queries=queries[0], k=_TOP))  # warm
    total_s, scanned, total_rows, payloads = 0.0, 0, 0, []
    for batch in queries:
        query = TopKQuery(queries=batch, k=_TOP)
        best, result = float("inf"), None
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            result = service.execute(query)
            best = min(best, time.perf_counter() - t0)
        total_s += best
        scanned += result.stats.rows_scanned
        total_rows += result.stats.rows_total
        payloads.append(result.payload[0])
    return total_s, scanned / total_rows, payloads


def test_routed_search_is_exact_and_scans_one_cluster(tmp_path):
    store, queries = _build()
    # one cluster per mixture component: each ball is tight around its
    # component, the geometry the centroid-ball bound exploits
    store.compact(routing=_CENTERS, routing_seed=0)
    store.save(tmp_path / "routed")
    served = ShardedSketchStore.load(tmp_path / "routed", mmap=True)
    assert served.routing is not None, "routing table must survive save/load"
    # the same saved layout without its table: a copy whose manifest
    # drops the routing entry
    shutil.copytree(tmp_path / "routed", tmp_path / "unrouted")
    manifest = read_manifest(tmp_path / "unrouted")
    del manifest["routing"]
    write_manifest(tmp_path / "unrouted", manifest)
    plain = ShardedSketchStore.load(tmp_path / "unrouted", mmap=True)
    assert plain.routing is None and plain.shard_sizes() == served.shard_sizes()

    with DistanceService(plain, ExecutionPolicy(workers=1)) as unrouted_svc:
        unrouted_s, unrouted_frac, unrouted = _run_queries(unrouted_svc, queries)
    with DistanceService(served, ExecutionPolicy(workers=1)) as svc:
        routed_s, routed_frac, routed = _run_queries(svc, queries)

    identical = routed == unrouted

    print(
        f"\nstore: {_ROWS} rows in {served.n_shards} shards "
        f"({served.describe()['routing']['n_clusters']} clusters), "
        f"{_QUERIES} queries one at a time, k={_TOP}"
    )
    for name, seconds, frac in (
        ("unrouted", unrouted_s, unrouted_frac),
        ("exact-routed", routed_s, routed_frac),
    ):
        print(
            f"{name:>14}: {seconds * 1e3:7.1f} ms total  "
            f"rows scanned {frac:6.1%}"
        )
    print(
        f"exact-routed bit-identical: {identical}; "
        f"rows scanned {routed_frac:.1%} (gate {_MAX_ROUTED_FRAC:.0%})"
    )

    # -- hard gates -------------------------------------------------------
    assert identical, (
        "exact-mode routing changed the top-k payload — the centroid-ball "
        "bound pruned a shard it cannot prove hopeless"
    )
    # routing must actually skip work on clustered data
    assert routed_frac < unrouted_frac, (
        "exact routing scanned no fewer rows than the unrouted scan"
    )
    # best-first visiting: a query near one component scans little more
    # than that component's shard (1/24 of the rows)
    assert routed_frac <= _MAX_ROUTED_FRAC, (
        f"exact routing scanned {routed_frac:.1%} of rows, "
        f"above the {_MAX_ROUTED_FRAC:.0%} gate"
    )
