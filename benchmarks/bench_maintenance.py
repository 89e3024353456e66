"""Maintenance at scale: streaming RSS gates and a live-swap soak.

The PR-7 acceptance run, at the same 105k-row scale as the quantised
store benchmark but with the wide ``k=256`` sketches (~215 MB of stored
codes), so "streaming" is falsifiable:

* **compact RSS** — ``compact_store(storage="f4")`` (the full
  decode/re-encode demotion path) runs in a child process whose peak
  RSS (``VmHWM``) less its resident set right after the imports
  (``VmRSS``) must stay **under half the store size** (hard gate; the
  expected figure is a few block buffers, i.e. tens of MB — a
  materialising implementation costs the full 215 MB).  Both come from
  the child's own ``/proc/self/status``: its ``ru_maxrss`` starts at
  the spawning process's high-water mark (this test process holds the
  store it built), so it says nothing about the rewrite;
* **merge RSS** — ``merge_stores`` fusing the store with itself
  (210k rows through the roller) under the same child-process gate;
* **live swap** — a ``watch_interval`` server over the store is
  hammered with top-k / radius / cross from client threads while
  ``compact_store`` publishes generation 1 underneath it.  The store is
  packed and tombstone-free, so the passthrough rewrite is
  byte-identical and every answer across the swap must be
  **bit-identical**, with **zero failed requests** (hard gate).

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/bench_maintenance.py -v -s``
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    RadiusQuery,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
    compact_store,
)

_D, _K, _S = 256, 256, 4
_ROWS = 105_000        # >= 1e5 per the acceptance gate
_CHUNK = 15_000        # sketching chunk, bounds the *builder's* memory
_SHARD = 8_192
_STORE_BYTES = _ROWS * _K * 8          # ~215 MB of stored codes
_RSS_GATE = _STORE_BYTES // 2          # streaming must stay under half
_SRC = str(Path(__file__).resolve().parents[1] / "src")

_CHILD = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro.serving.maintenance import compact_store, merge_stores

    def status_bytes(field):
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
        raise RuntimeError(f"no {field} line in /proc/self/status")

    baseline = status_bytes("VmRSS")
    t0 = __import__("time").perf_counter()
    mode = sys.argv[1]
    if mode == "compact":
        summary = compact_store(sys.argv[2], storage=sys.argv[3] or None)
    else:
        summary = merge_stores(sys.argv[2], sys.argv[3], dest=sys.argv[4])
    seconds = __import__("time").perf_counter() - t0
    print(json.dumps({
        "baseline_rss": baseline,
        "peak_rss": status_bytes("VmHWM"),
        "seconds": seconds,
        "rows": summary["rows"],
    }))
    """
)


def _run_child(*argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("maintenance")
    sketcher = PrivateSketcher(
        SketchConfig(input_dim=_D, epsilon=4.0, output_dim=_K, sparsity=_S)
    )
    rng = np.random.default_rng(0)
    store = ShardedSketchStore(shard_capacity=_SHARD, storage="f8")
    for start in range(0, _ROWS, _CHUNK):
        X = rng.standard_normal((min(_CHUNK, _ROWS - start), _D))
        store.add_batch(sketcher.sketch_batch(X, noise_rng=start))
    root = base / "f8"
    store.save(root)
    queries = sketcher.sketch_batch(
        rng.standard_normal((4, _D)), noise_rng=999_983
    )
    return root, queries


def test_compact_rss_stays_o_block(store_dir, tmp_path):
    root, _ = store_dir
    work = tmp_path / "compact"
    shutil.copytree(root, work)
    try:
        result = _run_child("compact", str(work), "f4")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    delta = result["peak_rss"] - result["baseline_rss"]
    rate = result["rows"] / result["seconds"]
    print(
        f"\ncompact 105k rows (f8 -> f4): {result['seconds']:.2f}s "
        f"({rate:,.0f} rows/s), RSS growth {delta / 1e6:.1f} MB "
        f"(store {_STORE_BYTES / 1e6:.0f} MB, gate {_RSS_GATE / 1e6:.0f} MB)"
    )
    assert result["rows"] == _ROWS
    assert delta < _RSS_GATE, (
        f"compaction RSS grew {delta / 1e6:.0f} MB — not O(block) streaming"
    )


def test_merge_rss_stays_o_block(store_dir, tmp_path):
    root, _ = store_dir
    dest = tmp_path / "merged"
    try:
        result = _run_child("merge", str(root), str(root), str(dest))
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    delta = result["peak_rss"] - result["baseline_rss"]
    rate = result["rows"] / result["seconds"]
    print(
        f"\nmerge 2 x 105k rows: {result['seconds']:.2f}s "
        f"({rate:,.0f} rows/s), RSS growth {delta / 1e6:.1f} MB "
        f"(sources {2 * _STORE_BYTES / 1e6:.0f} MB, gate {_RSS_GATE / 1e6:.0f} MB)"
    )
    assert result["rows"] == 2 * _ROWS
    assert delta < _RSS_GATE, (
        f"merge RSS grew {delta / 1e6:.0f} MB — not O(block) streaming"
    )


def test_live_swap_serves_bit_identical_with_zero_failures(store_dir):
    root, queries = store_dir
    single = queries[0]
    with DistanceService(
        ShardedSketchStore.load(root, mmap=True), ExecutionPolicy(workers=1)
    ) as local:
        top_expected = local.execute(TopKQuery(queries=single, k=10)).payload
        cutoff = float(np.median([est for _, est in top_expected[0]])) * 4.0
        expected = {
            "top_k": top_expected,
            "radius": local.execute(
                RadiusQuery(query=single, radius_sq=cutoff)
            ).payload,
            "cross": local.execute(CrossQuery(queries=queries))
            .payload.tobytes(),
        }
    query_of = {
        "top_k": TopKQuery(queries=single, k=10),
        "radius": RadiusQuery(query=single, radius_sq=cutoff),
        "cross": CrossQuery(queries=queries),
    }
    stop = threading.Event()
    failures: list = []
    counts = {kind: 0 for kind in query_of}

    def hammer(kind, url):
        client = DistanceClient(url)
        while not stop.is_set():
            try:
                payload = client.execute(query_of[kind]).payload
                got = payload.tobytes() if kind == "cross" else payload
                if got != expected[kind]:
                    failures.append((kind, "drifted from the pre-swap answer"))
                    return
                counts[kind] += 1
            except Exception as exc:  # noqa: BLE001 - a failure IS the gate
                failures.append((kind, repr(exc)))
                return

    def wait_for(predicate, what, timeout=120.0):
        deadline = time.monotonic() + timeout
        while not (predicate() or failures):
            assert time.monotonic() < deadline, f"timed out waiting for {what}"
            time.sleep(0.05)

    t0 = time.perf_counter()
    with SketchQueryServer.from_store_dir(
        root, port=0, watch_interval=0.05
    ) as server:
        threads = [
            threading.Thread(target=hammer, args=(kind, server.url))
            for kind in query_of
        ]
        for thread in threads:
            thread.start()
        try:
            wait_for(lambda: all(c >= 2 for c in counts.values()), "warm-up")
            swap_t0 = time.perf_counter()
            compact_store(root)  # packed, tombstone-free f8: passthrough
            wait_for(lambda: server.swaps >= 1, "the live swap")
            swap_seconds = time.perf_counter() - swap_t0
            settled = dict(counts)
            wait_for(
                lambda: all(counts[k] >= settled[k] + 2 for k in counts),
                "post-swap queries",
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
        swaps, watch_error = server.swaps, server.watch_error
    total = sum(counts.values())
    seconds = time.perf_counter() - t0
    print(
        f"\nlive swap: {total} requests across a generation swap "
        f"({swap_seconds:.2f}s rewrite-to-swap), 0 failures, "
        f"bit-identical answers ({seconds:.1f}s soak)"
    )
    assert failures == [], failures
    assert swaps >= 1 and watch_error is None
    assert all(count >= 4 for count in counts.values())
