"""Served workloads: closed-loop clients against ``python -m repro.serving.server``.

Both workloads share one store — 105k rows of Gaussian d=128 inputs
released as k=64 SJLT sketches (s=4, epsilon=4), f8, 8192-row shards —
served memory-mapped by the CLI with its defaults (one process).  The
load comes from this process: ``CLIENTS`` threads, each holding one
keep-alive :class:`~repro.serving.client.DistanceClient`, each sending
its next query only after the previous reply (a closed loop, like the
kNN lookups and router legs that call this system).

* ``topk_scan`` — single-row ``TopKQuery(k=10)``, every query distinct,
  no cache: the scan kernel and the service's select/merge do the work.
* ``cached_lookups`` — half ``PairwiseQuery`` over 3 random rows, half
  ``TopKQuery`` from a 16-query hot set, server started with
  ``--cache 1024``: HTTP, wire codecs, client and cache do the work.
"""

from __future__ import annotations

import gc
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import harness

D, K, SPARSITY, EPSILON = 128, 64, 4, 4.0
ROWS, CHUNK, SHARD = 105_000, 15_000, 8_192
TOP = 10
#: client threads: one per core, at most two
CLIENTS = min(2, os.cpu_count() or 1)
TAIL_PERCENTILE = 99.0
SETUPS = 3
WARMUP_S = 1.0
#: the window runs as consecutive closed loops; rates and medians are
#: the median over them, so one disturbed stretch moves no metric
SUBWINDOWS = 5
CHECK_SAMPLE = 64
#: sized so a run several times faster than today still sends no query
#: twice (the warm-up draws from the second half)
QUERY_POOL = 20_000
LOOKUP_OPS = 150_000
HOT_SET = 16

SERVER_ARGS = {"topk_scan": [], "cached_lookups": ["--cache", "1024"]}


def _sketcher():
    from repro.core.sketch import PrivateSketcher, SketchConfig

    return PrivateSketcher(
        SketchConfig(input_dim=D, epsilon=EPSILON, output_dim=K, sparsity=SPARSITY)
    )


def make_inputs(workload: str, seed: int):
    """Store inputs, the workload's query sequence and the top-k query pool."""
    from repro.serving import PairwiseQuery, TopKQuery

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((ROWS, D))
    released = _sketcher().sketch_batch(
        rng.standard_normal((QUERY_POOL, D)), noise_rng=np.random.default_rng((seed, 1))
    )
    queries = [TopKQuery(queries=released.row(i), k=TOP) for i in range(QUERY_POOL)]
    if workload == "topk_scan":
        return X, queries, queries
    hot = queries[:HOT_SET]
    pick = rng.integers(0, HOT_SET, size=LOOKUP_OPS)
    rows = rng.integers(0, ROWS, size=(LOOKUP_OPS, 3))
    lookup = rng.random(LOOKUP_OPS) < 0.5
    ops = [
        PairwiseQuery(indices=tuple(int(r) for r in rows[i])) if lookup[i] else hot[pick[i]]
        for i in range(LOOKUP_OPS)
    ]
    return X, ops, queries


def build_store(X, path, seed: int) -> None:
    """Release every input row and save the store (part of set-up)."""
    from repro.serving import ShardedSketchStore

    sketcher = _sketcher()
    noise = np.random.default_rng((seed, 2))
    store = ShardedSketchStore(shard_capacity=SHARD, storage="f8")
    for start in range(0, ROWS, CHUNK):
        store.add_batch(sketcher.sketch_batch(X[start : start + CHUNK], noise_rng=noise))
    store.save(path)


def server_command(root, store_dir, workload: str, spans_out=None) -> list[str]:
    args = ["--store", str(store_dir), "--port", "0", *SERVER_ARGS[workload]]
    if spans_out is None:
        return [sys.executable, "-m", "repro.serving.server", *args]
    launcher = os.path.join(root, "perfbench", "traced_server.py")
    return [sys.executable, launcher, "--spans-out", str(spans_out), "--", *args]


class Server:
    """One server subprocess; :meth:`stop` terminates it and waits."""

    def __init__(self, command, root, log_path) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 120)
            banner = self.process.stdout.readline() if ready else ""
            if " at http://" not in banner:
                raise RuntimeError(f"server did not start (banner {banner!r}); see {log_path}")
        except BaseException:
            self.stop()
            raise
        self.url = banner.rsplit(" at ", 1)[1].strip()
        self.pid = self.process.pid

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def setup(root, work, X, workload: str, seed: int, first_query, repeats: int):
    """Build, save and serve the store ``repeats`` times; keep the last server.

    One set-up ends when the server has answered its first top-k query
    (the mmap store computes its shard norm caches then).  Returns
    ``(times, server, store_dir)``.
    """
    from repro.serving import DistanceClient

    times = []
    server = store_dir = None
    for i in range(repeats):
        if server is not None:
            server.stop()
            shutil.rmtree(store_dir)
        store_dir = work / f"store-{i}"
        t0 = time.monotonic()
        build_store(X, store_dir, seed)
        server = Server(server_command(root, store_dir, workload), root, work / "server.log")
        try:
            with DistanceClient(server.url) as client:
                client.execute(first_query)
        except BaseException:
            server.stop()
            raise
        times.append(time.monotonic() - t0)
    return times, server, store_dir


def _canonical(value):
    """A form in which equality means bit-identical payloads."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def result_entries(payload) -> int:
    """Result entries a payload delivers: ranking pairs or matrix cells."""
    if isinstance(payload, list):
        return sum(len(r) for r in payload)
    return int(payload.size)


def verify(completed, ops, local, counter: harness.OpCounter, seed: int) -> int:
    """Compare a seeded sample of served payloads with local ``execute()``."""
    if not completed:
        return 0
    rng = np.random.default_rng((seed, 3))
    picks = rng.choice(len(completed), size=min(CHECK_SAMPLE, len(completed)), replace=False)
    for j in picks:
        index, payload = completed[int(j)]
        expected = local.execute(ops[index]).payload
        if _canonical(payload) != _canonical(expected):
            counter.fail(f"op {index}: served payload differs from local execute()")
    return len(picks)


def _health(url) -> dict:
    from repro.serving import DistanceClient

    with DistanceClient(url) as probe:
        return probe.health()


def _execute(client, op):
    return client.execute(op).payload


def measure(server: Server, ops, seconds: float, counter: harness.OpCounter, warm: harness.OpCounter):
    """Warm up, then the window's closed loops; server-side counters are diffed."""
    from repro.serving import DistanceClient

    clients = [DistanceClient(server.url) for _ in range(CLIENTS)]
    # a collection pass over the pre-built queries would stall every
    # client thread at once and read as server tail latency
    gc.disable()
    try:
        harness.closed_loop(clients, ops, WARMUP_S, _execute, warm, start=len(ops) // 2)
        cache_before = _health(server.url).get("cache")
        cpu_before = harness.proc_cpu_seconds(server.pid)
        conns, sent, retries = (
            sum(getattr(c, name) for c in clients)
            for name in ("connections_opened", "requests_sent", "retries_used")
        )
        loops = []
        for _ in range(SUBWINDOWS):
            start = loops[-1].next_index if loops else 0
            loops.append(
                harness.closed_loop(clients, ops, seconds / SUBWINDOWS, _execute, counter, start)
            )
        raw = {
            "loops": loops,
            "loop": harness.merge_loops(loops),
            "server_cpu_s": harness.proc_cpu_seconds(server.pid) - cpu_before,
            "server_peak_rss_mb": harness.proc_status_mb(server.pid, "VmHWM"),
            "connections": sum(c.connections_opened for c in clients) - conns,
            "requests_sent": sum(c.requests_sent for c in clients) - sent,
            "retries": sum(c.retries_used for c in clients) - retries,
        }
        cache_after = _health(server.url).get("cache")
        if cache_before and cache_after:
            raw["cache"] = {
                key: cache_after[key] - cache_before[key] for key in ("hits", "misses", "evictions")
            }
        return raw
    finally:
        gc.enable()
        for client in clients:
            client.close()


def end_to_end(raw, setup_times, disk_bytes_per_row) -> tuple[dict, dict]:
    loops, loop = raw["loops"], raw["loop"]
    lat = loop.latencies
    p, tail = harness.tail(lat, TAIL_PERCENTILE)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median([sub.rate for sub in loops]),
        "latency_p50_ms": statistics.median([harness.percentile(sub.latencies, 50.0) for sub in loops])
        * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": raw["server_peak_rss_mb"],
        "disk_bytes_per_row": disk_bytes_per_row,
    }
    info = {
        "samples": len(lat),
        "tail_percentile": p,
        "window_s": loop.wall,
        "setup_runs_s": setup_times,
        "generator_cpu_cores": loop.cpu_seconds / loop.wall,
        "server_cpu_cores": raw["server_cpu_s"] / loop.wall,
    }
    return metrics, info


def run(root, work, workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns ``(metrics, counter, info)``.

    With ``trace`` the untraced window runs first and the same window
    against the traced launcher second; the per-layer metrics come from
    the second, and the difference between the two is the tracing
    overhead.
    """
    from repro.serving import DistanceService, ExecutionPolicy, ShardedSketchStore

    X, ops, queries = make_inputs(workload, seed)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run: keep them out of collections
    if trace:
        seconds /= 2  # an untraced and a traced window share the run
    counter, warm = harness.OpCounter(), harness.OpCounter()
    setup_times, server, store_dir = setup(
        root, work, X, workload, seed, queries[-1], 1 if trace else SETUPS
    )
    try:
        raw = measure(server, ops, seconds, counter, warm)
    finally:
        server.stop()
    disk_bytes_per_row = harness.tree_bytes(store_dir) / ROWS
    metrics, info = end_to_end(raw, setup_times, disk_bytes_per_row)
    info["server_argv"] = server_command(root, store_dir, workload)[1:]
    windows = [raw]
    if trace:
        traced_raw, server_spans, client_spans = traced_window(
            root, work, store_dir, workload, ops, seconds, counter, warm
        )
        windows.append(traced_raw)
        traced_e2e, traced_info = end_to_end(traced_raw, setup_times, disk_bytes_per_row)
        info.update({"traced_" + key: value for key, value in traced_info.items()})
        metrics = {
            **layer_metrics(traced_raw, client_spans, server_spans),
            **harness.tracing_overhead(metrics, traced_e2e),
        }
    with DistanceService(
        ShardedSketchStore.load(store_dir, mmap=True), ExecutionPolicy(workers=1)
    ) as local:
        info["checked"] = sum(
            verify(window["loop"].completed, ops, local, counter, seed + i)
            for i, window in enumerate(windows)
        )
    for _ in range(warm.failed):
        counter.fail(warm.first_error or "warm-up request failed")
    return metrics, counter, info


def traced_window(root, work, store_dir, workload, ops, seconds, counter, warm):
    """The same window against the traced launcher, with client-side spans."""
    from repro.serving import DistanceClient, wire

    spans_out = work / "server-spans.json"
    server = Server(server_command(root, store_dir, workload, spans_out), root, work / "server.log")
    tracer = harness.Tracer()
    try:
        tracer.wrap(DistanceClient, "execute", "client.execute")
        tracer.wrap(wire, "encode_query", "wire.client_encode", lambda a, k, r: {"bytes": len(r)})
        tracer.wrap(wire, "decode_result", "wire.client_decode", lambda a, k, r: {"bytes": len(a[0])})
        raw = measure(server, ops, seconds, counter, warm)
    finally:
        tracer.restore()
        server.stop()
    with open(spans_out) as spans_file:
        server_spans = [harness.Span.from_list(row) for row in json.load(spans_file)]
    return raw, server_spans, tracer.spans


def layer_metrics(raw, client_spans, server_spans) -> dict:
    """Per-request layer costs over the measured window (spans by request root)."""
    loop = raw["loop"]
    cs = harness.in_window(client_spans, loop.start, loop.end)
    ss = harness.in_window(server_spans, loop.start, loop.end)
    n = max(harness.count(cs, "client.execute"), 1)
    served = max(harness.count(ss, "server.request"), 1)

    def ms(spans, name, scale=1e3):
        return scale * harness.busy(spans, name) / n

    kernel_s = harness.busy(ss, "estimators.cross")
    kernel_bytes = harness.attr_sum(ss, "estimators.cross", "bytes")
    delivered = sum(result_entries(payload) for _, payload in loop.completed)
    server_side = sum(
        harness.busy(ss, name)
        for name in ("wire.server_decode", "cache.get", "cache.put", "service.execute", "wire.server_encode")
    )
    client_side = sum(harness.busy(cs, name) for name in ("wire.client_encode", "wire.client_decode"))
    cache = raw.get("cache")
    lookups = cache["hits"] + cache["misses"] if cache else 0
    return {
        "estimators.cross_ms": ms(ss, "estimators.cross"),
        "estimators.cross_calls": harness.count(ss, "estimators.cross") / n,
        "estimators.cross_mbytes": kernel_bytes / n / 1e6,
        "estimators.cross_mflops": harness.attr_sum(ss, "estimators.cross", "flops") / n / 1e6,
        "estimators.cross_gbytes_per_s": kernel_bytes / kernel_s / 1e9 if kernel_s else 0.0,
        "service.execute_ms": ms(ss, "service.execute"),
        "service.select_ms": ms(ss, "service.select"),
        "service.self_ms": 1e3 * harness.self_busy(ss, "service.execute") / n,
        "service.rows_scanned_per_result": harness.attr_sum(ss, "service.execute", "rows_scanned")
        / max(delivered, 1),
        "wire.client_encode_us": ms(cs, "wire.client_encode", 1e6),
        "wire.server_decode_us": ms(ss, "wire.server_decode", 1e6),
        "wire.server_encode_us": ms(ss, "wire.server_encode", 1e6),
        "wire.client_decode_us": ms(cs, "wire.client_decode", 1e6),
        "wire.encode_us": ms(cs, "wire.client_encode", 1e6) + ms(ss, "wire.server_encode", 1e6),
        "wire.decode_us": ms(cs, "wire.client_decode", 1e6) + ms(ss, "wire.server_decode", 1e6),
        "wire.request_bytes": harness.attr_sum(cs, "wire.client_encode", "bytes") / n,
        "wire.response_bytes": harness.attr_sum(cs, "wire.client_decode", "bytes") / n,
        "server.request_ms": 1e3 * harness.busy(ss, "server.request") / served,
        "server.http_self_ms": 1e3 * harness.self_busy(ss, "server.request") / served,
        "server.transport_ms": 1e3 * (harness.busy(cs, "client.execute") - client_side - server_side) / n,
        "server.cpu_ms_per_request": 1e3 * raw["server_cpu_s"] / n,
        "client.cpu_ms_per_request": 1e3 * loop.cpu_seconds / n,
        "client.cpu_share": loop.cpu_seconds / loop.wall,
        "client.connections_per_request": raw["connections"] / max(raw["requests_sent"], 1),
        "client.retries": float(raw["retries"]),
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.evictions": float(cache["evictions"]) if cache else 0.0,
        "cache.get_us": ms(ss, "cache.get", 1e6),
        "cache.put_us": ms(ss, "cache.put", 1e6),
        "store.load_s": harness.busy(server_spans, "store.load"),
    }
