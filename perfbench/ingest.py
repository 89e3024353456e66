"""The write-side workload, in process: release, store, delete, compact.

One ``ingest_compact`` pass releases 105k Gaussian d=1024 rows as k=64
SJLT sketches (s=4, epsilon=4) through ``PrivateSketcher.sketch_batch``
in 2500-row chunks, appends each with ``add_batch`` and saves the
store; reloads it, deletes a seeded 10% of its labels and saves again;
then runs ``compact_store(storage="f4")``.  Passes repeat until the
run's seconds are spent, and at least ``MIN_PASSES`` run.

The inputs are ``POOL_CHUNKS`` distinct seeded chunks reused in turn,
each use with fresh noise: the pool stays small, and the projection
and store cost do not depend on the input values.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import harness

D, K, SPARSITY, EPSILON = 1024, 64, 4, 4.0
ROWS, CHUNK_ROWS, POOL_CHUNKS, SHARD = 105_000, 2_500, 4, 8_192
DELETE_SHARE = 0.10
#: ~40 chunk releases per pass, so a run of at least 3 passes supports p90
TAIL_PERCENTILE = 90.0
MIN_PASSES = 3
SETUPS = 5

#: what a fresh ingesting process does before its first release
COLD_START = (
    "from repro.core.sketch import PrivateSketcher, SketchConfig\n"
    "from repro.serving import ShardedSketchStore, compact_store\n"
    f"PrivateSketcher(SketchConfig(input_dim={D}, epsilon={EPSILON}, "
    f"output_dim={K}, sparsity={SPARSITY}))\n"
    f"ShardedSketchStore(shard_capacity={SHARD}, storage='f8')\n"
)


def _sketcher():
    from repro.core.sketch import PrivateSketcher, SketchConfig

    return PrivateSketcher(
        SketchConfig(input_dim=D, epsilon=EPSILON, output_dim=K, sparsity=SPARSITY)
    )


def cold_start(root) -> float:
    """Seconds for a new interpreter to import the package and build the sketcher."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", COLD_START], cwd=root, env=env, check=True, timeout=120)
    return time.monotonic() - t0


def check(reloaded, path, doomed) -> str | None:
    """Why the compacted store is wrong, or ``None`` when it is right.

    Its decoded rows must equal the f4 round trip of the surviving rows
    of the pre-compaction store, in label order; labels equal to the
    survivors mean every deleted label is gone.  Stored values are
    compared, not distance estimates, which may differ by an ulp
    between shard layouts.
    """
    from repro.serving import ShardedSketchStore, StorageSpec

    live = np.setdiff1d(np.arange(ROWS), doomed)
    expected = StorageSpec.parse("f4").roundtrip(reloaded.to_batch().values[live])
    compacted = ShardedSketchStore.load(path)
    # decoded shard rows in their scan dtype (to_batch() would widen to f8)
    values = np.concatenate([view.values for view in compacted.snapshot()])
    if values.dtype != expected.dtype or values.shape != expected.shape:
        return f"compacted rows are {values.dtype}{values.shape}, expected {expected.dtype}{expected.shape}"
    if values.tobytes() != expected.tobytes():
        return "compacted rows differ from the f4 round trip of the survivors"
    if compacted.labels != live.tolist():
        return "compacted labels are not the surviving labels in order"
    return None


def one_pass(i, sketcher, pool, work, seed, counter, latencies, tracer=None) -> dict | None:
    """One release-to-compaction pass; timings cover the system calls only."""
    from repro.serving import ShardedSketchStore, maintenance

    path = work / f"ingest-{i}"
    noise = np.random.default_rng((seed, i, 1))
    doomed = np.random.default_rng((seed, i, 2)).choice(
        ROWS, size=int(ROWS * DELETE_SHARE), replace=False
    )
    harness.reset_peak_rss()
    stages = {}
    try:
        store = ShardedSketchStore(shard_capacity=SHARD, storage="f8")
        stages["release"] = 0.0
        for c in range(ROWS // CHUNK_ROWS):
            t0 = time.monotonic()
            store.add_batch(sketcher.sketch_batch(pool[c % POOL_CHUNKS], noise_rng=noise))
            elapsed = time.monotonic() - t0
            latencies.append(elapsed)
            stages["release"] += elapsed
            counter.record(True)
        t0 = time.monotonic()
        store.save(path)
        stages["save"] = time.monotonic() - t0
        counter.record(True)
        written = harness.tree_bytes(path)
        t0 = time.monotonic()
        reloaded = ShardedSketchStore.load(path)
        stages["load"] = time.monotonic() - t0
        counter.record(True)
        t0 = time.monotonic()
        reloaded.delete(doomed.tolist())
        reloaded.save(path)
        stages["delete_save"] = time.monotonic() - t0
        counter.record(True)
        counter.record(True)
        source = harness.tree_bytes(path)
        t0 = time.monotonic()
        summary = maintenance.compact_store(path, storage="f4")
        stages["compact"] = time.monotonic() - t0
        counter.record(True)
    except Exception as exc:  # noqa: BLE001 - a failed operation, counted
        counter.record(False, f"pass {i}: {exc!r}")
        shutil.rmtree(path, ignore_errors=True)
        return None
    peak = harness.proc_status_mb("self", "VmHWM")
    generation = path / f"gen-{summary['generation']:05d}"
    published = harness.tree_bytes(generation) + (path / "manifest.json").stat().st_size
    live = ROWS - doomed.size
    if tracer is not None:
        tracer.enabled = False
    try:
        problem = check(reloaded, path, doomed)
    finally:
        if tracer is not None:
            tracer.enabled = True
    if problem is not None:
        counter.fail(f"pass {i}: {problem}")
    shutil.rmtree(path)
    return {
        "seconds": sum(stages.values()),
        "peak_rss_mb": peak,
        "disk_bytes_per_row": published / live,
        "bytes_written": written + source + published,
        "rewrite_bytes_per_live_byte": (source + published) / (live * K * 4),
    }


def window(sketcher, pool, work, seed, seconds, counter, first_pass, tracer=None):
    """Passes until ``seconds`` are spent (at least ``MIN_PASSES``)."""
    latencies: list[float] = []
    passes = []
    deadline = time.monotonic() + seconds
    i = first_pass
    while i - first_pass < MIN_PASSES or time.monotonic() < deadline:
        result = one_pass(i, sketcher, pool, work, seed, counter, latencies, tracer)
        if result is not None:
            passes.append(result)
        i += 1
    return passes, sorted(latencies)


def end_to_end(passes, latencies, setup_times) -> tuple[dict, dict]:
    p, tail = harness.tail(latencies, TAIL_PERCENTILE)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median([ROWS / r["seconds"] for r in passes]),
        "latency_p50_ms": harness.percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in passes]),
        "disk_bytes_per_row": statistics.median([r["disk_bytes_per_row"] for r in passes]),
    }
    info = {
        "passes": len(passes),
        "samples": len(latencies),
        "tail_percentile": p,
        "pass_s": [r["seconds"] for r in passes],
        "setup_runs_s": setup_times,
    }
    return metrics, info


def install(tracer, sketcher) -> None:
    from repro.core.sketch import PrivateSketcher
    from repro.serving import ShardedSketchStore, maintenance

    tracer.wrap(type(sketcher.transform), "apply_batch", "transforms.apply_batch")
    tracer.wrap(type(sketcher.noise), "sample_rows", "dp.sample_rows")
    tracer.wrap(PrivateSketcher, "sketch_batch", "sketch.sketch_batch")
    for method in ("add_batch", "save", "load", "delete"):
        tracer.wrap(ShardedSketchStore, method, f"store.{method}")
    tracer.wrap(maintenance, "compact_store", "maintenance.compact")


def layer_metrics(spans, passes) -> dict:
    """Per-pass layer costs."""
    n = len(passes)

    def per_pass(name):
        return harness.busy(spans, name) / n

    return {
        "transforms.apply_batch_s": per_pass("transforms.apply_batch"),
        "dp.sample_rows_s": per_pass("dp.sample_rows"),
        "sketch.self_s": harness.self_busy(spans, "sketch.sketch_batch") / n,
        "store.add_batch_s": per_pass("store.add_batch"),
        "store.save_s": per_pass("store.save"),
        "store.delete_s": per_pass("store.delete"),
        "store.load_s": per_pass("store.load"),
        "serialization.bytes_written": sum(r["bytes_written"] for r in passes) / n,
        "maintenance.compact_s": per_pass("maintenance.compact"),
        "maintenance.rewrite_bytes_per_live_byte": sum(r["rewrite_bytes_per_live_byte"] for r in passes) / n,
    }


def run(root, work, workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns ``(metrics, counter, info)``."""
    rng = np.random.default_rng(seed)
    pool = [rng.standard_normal((CHUNK_ROWS, D)) for _ in range(POOL_CHUNKS)]
    if trace:
        seconds /= 2  # an untraced and a traced window share the run
    counter = harness.OpCounter()
    setup_times = [cold_start(root) for _ in range(1 if trace else SETUPS)]
    sketcher = _sketcher()
    sketcher.sketch_batch(pool[0], noise_rng=np.random.default_rng((seed, 0)))  # warm caches
    passes, latencies = window(sketcher, pool, work, seed, seconds, counter, 0)
    if not passes:
        raise RuntimeError(f"every ingest pass failed: {counter.first_error}")
    metrics, info = end_to_end(passes, latencies, setup_times)
    if trace:
        tracer = harness.Tracer()
        install(tracer, sketcher)
        try:
            traced, traced_latencies = window(
                sketcher, pool, work, seed, seconds, counter, len(passes) + 1, tracer
            )
        finally:
            tracer.restore()
        if not traced:
            raise RuntimeError(f"every traced ingest pass failed: {counter.first_error}")
        traced_e2e, traced_info = end_to_end(traced, traced_latencies, setup_times)
        info.update({"traced_" + key: value for key, value in traced_info.items()})
        metrics = {
            **layer_metrics(tracer.spans, traced),
            **harness.tracing_overhead(metrics, traced_e2e),
        }
    return metrics, counter, info
