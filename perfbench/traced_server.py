"""Run ``repro.serving.server`` with per-layer spans around its public functions.

    python3 perfbench/traced_server.py --spans-out FILE -- --store DIR --port 0 ...

Everything after ``--`` goes to :func:`repro.serving.server.main`
unchanged.  Before the server starts, this launcher wraps

* ``estimators.cross_sq_distances_from_parts`` (the scan kernel; each
  span carries the bytes its operands and result occupy and its flops),
* ``service.stable_smallest_k`` (per-shard top-k selection),
* ``DistanceService.execute`` (rows scanned and result entries),
* the ``wire`` codecs the server calls (with envelope sizes),
* ``ReleaseCache.get`` / ``put``,
* ``ShardedSketchStore.load``,
* the HTTP handler's ``do_POST`` (the root span of each request).

Spans stay in memory; SIGTERM stops the server and the spans are
written to ``FILE`` as JSON before the process exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import Tracer  # noqa: E402
from served import result_entries  # noqa: E402


def _kernel_counts(args, kwargs, result) -> dict:
    a, sq_a, b, sq_b = args[:4]
    m, k = a.shape
    n = b.shape[0]
    return {
        "bytes": int(a.nbytes + sq_a.nbytes + b.nbytes + sq_b.nbytes + result.nbytes),
        "flops": 2 * m * n * k + 4 * m * n,
    }


def _execute_counts(args, kwargs, result) -> dict:
    return {
        "rows_scanned": result.stats.rows_scanned,
        "results": result_entries(result.payload),
    }


def _in_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(args[0])}


def _out_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def install(tracer: Tracer) -> None:
    from repro.core import estimators
    from repro.serving import cache, server, service, store, wire

    tracer.wrap(estimators, "cross_sq_distances_from_parts", "estimators.cross", _kernel_counts)
    tracer.wrap(service, "stable_smallest_k", "service.select")
    tracer.wrap(service.DistanceService, "execute", "service.execute", _execute_counts)
    tracer.wrap(wire, "decode_query", "wire.server_decode", _in_bytes)
    tracer.wrap(wire, "encode_result", "wire.server_encode", _out_bytes)
    tracer.wrap(cache.ReleaseCache, "get", "cache.get")
    tracer.wrap(cache.ReleaseCache, "put", "cache.put")
    tracer.wrap(store.ShardedSketchStore, "load", "store.load")
    tracer.wrap(server._QueryHandler, "do_POST", "server.request")


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args[1:] if args.server_args[:1] == ["--"] else args.server_args

    from repro.serving import server

    tracer = Tracer()
    install(tracer)
    # SketchQueryServer.serve_forever treats KeyboardInterrupt as a clean
    # stop: it closes the server, main() returns, and the spans get written
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.main(server_args)
    finally:
        tmp = args.spans_out + ".tmp"
        with open(tmp, "w") as out:
            json.dump([span.as_list() for span in tracer.spans], out)
        os.replace(tmp, args.spans_out)


if __name__ == "__main__":
    main()
