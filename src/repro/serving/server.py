"""Network query frontend: serve a saved sketch store over HTTP.

:class:`SketchQueryServer` exposes one
:class:`~repro.serving.service.DistanceService` (or a scatter-gather
:class:`~repro.serving.router.RouterService`) over plain HTTP using
only the standard library (``http.server.ThreadingHTTPServer`` — one
thread per connection; the heavy lifting inside a query is BLAS, which
releases the GIL, and the service's own
:class:`~repro.serving.execution.ExecutionPolicy` fans shard blocks
across its worker pool independently of connection threads).

Endpoints (all bodies are :mod:`repro.serving.wire` envelopes):

=====================  =======================================================
``POST /query``        one query envelope in, one result envelope out
``POST /query-many``   a JSON array of query envelopes in, results out
``GET /healthz``       liveness + store shape: rows, live rows, shards,
                       generation, tombstone count, config digest, worker
                       pid, BLAS threads in effect, pool size, cache
                       counters when caching is on
``GET /meta``          the store's public metadata header (no values)
=====================  =======================================================

Client-side errors — a malformed envelope, an incompatible query, an
empty store — come back as status 400 with an *error envelope* carrying
the exception class and message, so
:class:`~repro.serving.client.DistanceClient` re-raises exactly what a
local ``execute()`` would have raised.  An unreachable *backend* (a
router frontend whose store server died) is 502 with a
``ConnectionError`` envelope naming the backend.  Unexpected server
faults are 500 with a generic message (internals never leak to the
wire).  A client that disconnects mid-request or mid-response is not an
error at all: the handler drops the connection quietly instead of
spewing a traceback per hung-up client under load.

**Scale-out is process-level.**  The store directory is opened with
``mmap=True`` by default, so every server process over one directory
maps the *same* shard files read-only and shares the OS page cache.
``python -m repro.serving.server --store DIR --processes N`` launches
``N`` worker processes all listening on **one** port via
``SO_REUSEPORT`` (the kernel load-balances connections across the
workers), prints a single URL, and supervises the workers — start as
many as the machine has cores, no external load balancer required.
``--cache ENTRIES`` enables a per-worker LRU of result envelopes
(:class:`~repro.serving.cache.ReleaseCache` — safe because releases
are deterministic; see that module for the no-extra-budget argument).
``--watch SECONDS`` makes every worker follow the store directory
across maintenance: when :func:`~repro.serving.maintenance.compact_store`
publishes a new generation, workers hot-swap it in without a restart
(in-flight queries finish on the old snapshot, caches invalidate via
the generation component of the store token).

**One BLAS thread per server process.**  A query's scan is one BLAS
multiplication, and concurrent requests already fill the cores, so
:func:`main` and every ``--processes`` worker call
:func:`~repro.serving.execution.pin_blas_threads` at start-up: BLAS
runs one thread per process (``REPRO_SERVING_BLAS_THREADS`` overrides
the count), and parallelism comes from concurrent requests and, when
set, the ``--workers`` pool.  :class:`SketchQueryServer` itself never
pins, because BLAS threading is process-wide: a program that serves it
in its own process calls ``pin_blas_threads()`` at start-up, as the CLI
does, while tests and embedding hosts keep their BLAS as they set it.
``/healthz`` reports the count read back from the libraries, and the
pool size.

Run from the command line::

    python -m repro.serving.server --store path/to/store --port 8790 \
        --processes 4 --cache 4096

and point a :class:`~repro.serving.client.DistanceClient` at the
printed URL.  The URL line always advertises a *connectable* host: a
wildcard bind (``--host 0.0.0.0`` / ``::``) is advertised as the
loopback address (remote clients substitute the machine's name), and
IPv6 hosts are bracketed — launchers parse this line, so it must never
print an unconnectable ``http://0.0.0.0:PORT``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import queue
import signal
import socket
import sys
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serving import wire
from repro.serving.cache import ReleaseCache
from repro.serving.execution import ExecutionPolicy, blas_threads, pin_blas_threads
from repro.serving.queries import CrossQuery, PairwiseQuery, TopKQuery
from repro.serving.service import DistanceService
from repro.serving.store import ShardedSketchStore, read_manifest

#: Default port; chosen out of the way of common dev servers.
DEFAULT_PORT = 8790

#: Request bodies above this size are rejected with 413 — a query is a
#: handful of sketch rows, not a bulk upload.  (256 MiB admits ~500k
#: base64-encoded rows of a k=256 sketch, far beyond any sane query.)
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Matrix results above this many float64 cells (~1 GiB) are refused:
#: a bytes-cheap request must not be able to force a quadratically
#: larger allocation on the server (``PairwiseQuery(indices=(0,) * 1M)``
#: is a ~3 MB body demanding an 8 TB response).  Local execution is
#: deliberately uncapped — this is a network-frontend resource policy,
#: and capped clients can chunk their query instead.
MAX_RESULT_CELLS = 1 << 27

#: The client hung up: not a server fault, never worth a traceback.
_CLIENT_DISCONNECT = (BrokenPipeError, ConnectionResetError)


def _query_rows(release) -> int:
    values = getattr(release, "values", None)
    if values is None:
        return 0  # malformed; execute() will reject it properly
    return 1 if getattr(values, "ndim", 1) == 1 else values.shape[0]


def _result_cells(query, store) -> int:
    """Upper bound on the result entries a query makes the server hold."""
    if isinstance(query, PairwiseQuery):
        return len(query.indices) ** 2
    if isinstance(query, CrossQuery):
        return _query_rows(query.queries) * len(store)
    if isinstance(query, TopKQuery):
        # one (label, estimate) pair per query row per winner
        return _query_rows(query.queries) * min(query.k, len(store))
    # norms return one entry per stored row; a radius query's worst case
    # (radius_sq=inf) hits every stored row — neither is free, and a
    # /query-many batch of them must not slip under the cap as zero
    return len(store)


def _check_result_size(queries, store) -> None:
    """Refuse a request whose *combined* results exceed the cell cap.

    Summed across a ``/query-many`` batch — ``execute_many`` holds every
    result until the batch is encoded, so the batch is the allocation
    unit, not the individual query.
    """
    cells = sum(_result_cells(query, store) for query in queries)
    if cells > MAX_RESULT_CELLS:
        raise ValueError(
            f"request would produce {cells} result cells, over this server's "
            f"{MAX_RESULT_CELLS}-cell limit — split it into smaller queries"
        )


# -- host handling: bind vs advertise ------------------------------------------

_WILDCARDS_V4 = ("", "0.0.0.0")
_WILDCARDS_V6 = ("::", "::0", "0:0:0:0:0:0:0:0")


def _address_family(host: str) -> int:
    """The socket family ``host`` needs (IPv6 literals and names included)."""
    if not host:
        return socket.AF_INET
    if ":" in host:
        return socket.AF_INET6
    try:
        infos = socket.getaddrinfo(host, None, type=socket.SOCK_STREAM)
    except socket.gaierror:
        return socket.AF_INET  # let bind() produce the real error message
    return infos[0][0]


def _advertised_host(bind_host: str) -> str:
    """A *connectable* host for the bind address.

    ``0.0.0.0`` / ``::`` accept on every interface but are not routable
    destinations — advertising them produces URLs nothing can connect
    to, so wildcard binds advertise the loopback address (correct for
    same-machine launchers, which is what parses the URL line; remote
    clients substitute the machine's actual name).  Everything else is
    advertised as bound.
    """
    if bind_host in _WILDCARDS_V4:
        return "127.0.0.1"
    if bind_host in _WILDCARDS_V6:
        return "::1"
    return bind_host


def _format_host(host: str) -> str:
    """Bracket IPv6 literals so ``http://host:port`` stays parseable."""
    return f"[{host}]" if ":" in host else host


class _QueryHandler(BaseHTTPRequestHandler):
    """One HTTP request against the wrapped service (set by subclass)."""

    service: DistanceService  # injected via the per-server subclass
    cache: ReleaseCache | None = None  # injected likewise when enabled
    server_version = "repro-sketch-query/1"
    # the stdlib's own error replies (a malformed request line, say) go
    # out as two writes, header block then body; without this, Nagle
    # holds the body back waiting for the client's delayed ACK of the
    # headers — tens of ms added to a keep-alive reply
    disable_nagle_algorithm = True
    #: per-connection socket timeout — a client that stalls mid-body must
    #: not pin a handler thread (and its pending read buffer) forever
    timeout = 60
    # HTTP/1.1 keep-alive: DistanceClient pools connections and reuses
    # them across requests, so a query costs a round trip, not a connect
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # queries are high-rate; logging is the load balancer's job

    def _reply(
        self,
        status: int,
        body: bytes,
        content_type="application/json",
        cache_state: str | None = None,
    ):
        # the status line, the headers and the body leave in one write:
        # send_response() + end_headers() would flush the head on its own
        head = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if cache_state is not None:
            head.append(f"X-Repro-Cache: {cache_state}")
        if self.close_connection:  # tell the client, don't just drop the socket
            head.append("Connection: close")
        try:
            self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        except _CLIENT_DISCONNECT:
            # the client hung up mid-response: its loss, not a fault —
            # drop the connection without the traceback ThreadingHTTPServer
            # would otherwise print for every disconnect under load
            self.close_connection = True

    def _read_body(self) -> bytes | None:
        if self.headers.get("Transfer-Encoding"):
            # BaseHTTPRequestHandler cannot dechunk; without a close the
            # undrained chunk lines would be parsed as the next request
            self.close_connection = True
            self._reply(
                501,
                wire.encode_error(
                    ValueError("chunked request bodies are not supported; "
                               "send a Content-Length")
                ),
            )
            return None
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # a negative length would turn rfile.read() into read-to-EOF,
            # which never comes on a keep-alive connection
            self.close_connection = True  # the body was never drained
            self._reply(400, wire.encode_error(ValueError("bad Content-Length")))
            return None
        if length > MAX_BODY_BYTES:
            # replying without draining the body would desynchronize the
            # keep-alive stream (the next "request" would parse body bytes)
            self.close_connection = True
            self._reply(
                413,
                wire.encode_error(ValueError(f"request body over {MAX_BODY_BYTES} bytes")),
            )
            return None
        try:
            return self.rfile.read(length)
        except _CLIENT_DISCONNECT:
            self.close_connection = True  # hung up mid-body: nothing to answer
            return None

    # -- endpoints -----------------------------------------------------------

    def do_POST(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            if self.path == "/query":
                self._answer(body, self._compute_query)
            elif self.path == "/query-many":
                self._answer(body, self._compute_query_many)
            else:
                self._reply(404, wire.encode_error(ValueError(f"no endpoint {self.path}")))
        except ConnectionError as exc:
            # a router frontend's backend is unreachable: a gateway
            # fault, not this server's — 502 keeps the client's retry
            # logic on the transport-error path and names the backend
            self._reply(502, wire.encode_error(exc))
        except (wire.WireError, ValueError, TypeError, IndexError) as exc:
            # the client's fault: transport the exact exception class so
            # DistanceClient raises what a local execute() would have
            self._reply(400, wire.encode_error(exc))
        except Exception:  # noqa: BLE001 - the server must not die mid-request
            # internals stay off the wire, but the operator gets the
            # traceback on stderr — a silent 500 is undebuggable
            traceback.print_exc()
            self._reply(500, wire.encode_error(ValueError("internal server error")))

    def _compute_query(self, body: bytes) -> bytes:
        query = wire.decode_query(body)
        self._check_result_size([query])
        result = self.service.execute(query)
        return wire.encode_result(result, query)

    def _compute_query_many(self, body: bytes) -> bytes:
        queries = wire.decode_queries(body)
        self._check_result_size(queries)
        results = self.service.execute_many(queries)
        return wire.encode_results(results, queries)

    def _check_result_size(self, queries) -> None:
        store = getattr(self.service, "store", None)
        if store is None:
            return  # router frontend: each backend enforces its own cap
        _check_result_size(queries, store)

    def _answer(self, body: bytes, compute) -> None:
        """Serve one query/query-many body, through the cache when enabled.

        Cache keys are ``(endpoint, body bytes, store-state token)``:
        ``execute()`` is deterministic given the stored sketches (see
        :mod:`repro.serving.cache` for why replaying a release costs no
        privacy budget), and the token — row count, config digest,
        storage, generation, tombstone count — changes on any append,
        delete or generation swap, so a hit is always the byte-identical
        envelope a fresh execution would produce.  (Tombstones only grow
        within a generation and ``compact()`` clears them while bumping
        the generation, so the tuple never repeats across maintenance.)
        The token is re-checked after computing: a result that raced a
        concurrent append or a live swap is simply not cached.
        """
        cache = self.cache
        token = self._store_token() if cache is not None else None
        key = (self.path, body, token)
        if token is not None:
            blob = cache.get(key)
            if blob is not None:
                self._reply(200, blob, cache_state="hit")
                return
        blob = compute(body)
        if token is not None and self._store_token() == token:
            cache.put(key, blob)
        self._reply(200, blob, cache_state=None if token is None else "miss")

    def _store_token(self):
        store = getattr(self.service, "store", None)
        if store is None:
            return None  # a router has no cheap store-state token: no caching
        meta = store.metadata
        rows = len(store)
        return (
            rows,
            None if meta is None else meta.config_digest,
            store.storage.name,
            store.generation,
            rows - store.live_row_count,  # the tombstone count, without a copy
        )

    def do_GET(self) -> None:
        try:
            self._do_get()
        except _CLIENT_DISCONNECT:
            self.close_connection = True
        except ConnectionError as exc:
            # a router frontend probing a dead backend: gateway fault
            self._reply(502, wire.encode_error(exc))
        except Exception:  # noqa: BLE001 - same contract as do_POST
            traceback.print_exc()
            self._reply(500, wire.encode_error(ValueError("internal server error")))

    def _do_get(self) -> None:
        if self.path == "/healthz":
            payload = self._health_payload()
            self._reply(200, json.dumps(payload).encode("utf-8"))
        elif self.path == "/meta":
            self._reply(200, json.dumps(self._meta_payload()).encode("utf-8"))
        else:
            self._reply(404, wire.encode_error(ValueError(f"no endpoint {self.path}")))

    def _health_payload(self) -> dict:
        store = getattr(self.service, "store", None)
        if store is None:
            payload = dict(self.service.health())  # router aggregate
        else:
            rows, live = len(store), store.live_row_count
            payload = {
                "status": "ok",
                "rows": rows,
                "live_rows": live,
                "shards": store.n_shards,
                "storage": store.storage.name,
                "generation": store.generation,
                "tombstones": rows - live,
                "config_digest": (
                    None if store.metadata is None else store.metadata.config_digest
                ),
                # None when the store has no (valid) routing table; lets
                # operators confirm a rebuild-routing pass took effect
                "routing_generation": (
                    None if store.routing is None else store.routing.generation
                ),
                "workers": self.service.policy.workers,
            }
        # the answering worker's pid: under --processes N the kernel
        # load-balances connections, and operators (and the smoke test)
        # can see which worker answered
        payload["pid"] = os.getpid()
        payload["blas_threads"] = blas_threads()
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        return payload

    def _meta_payload(self) -> dict:
        store = getattr(self.service, "store", None)
        if store is None:
            return {**self.service.describe(), "router": True}
        meta = store.metadata
        # describe() supplies rows/shards plus the storage spec and
        # stored-value bytes, so operators can verify a quantised
        # deployment (and its size win) from the frontend alone
        return {
            **store.describe(),
            "policy": repr(self.service.policy),
            "metadata": None
            if meta is None
            else {
                "input_dim": meta.input_dim,
                "output_dim": meta.output_dim,
                "perturbation": meta.perturbation,
                "noise_spec": meta.noise_spec,
                "noise_second_moment": meta.noise_second_moment,
                "epsilon": meta.guarantee.epsilon,
                "delta": meta.guarantee.delta,
                "config_digest": meta.config_digest,
            },
        }


class _QuietHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that does not traceback on client disconnects.

    Its listen backlog is the system's ``SOMAXCONN``, not socketserver's
    5: a burst of new connections that overflows the backlog has its
    SYNs dropped, and each client waits out a one-second retransmit.
    """

    daemon_threads = True
    request_queue_size = socket.SOMAXCONN

    def handle_error(self, request, client_address):
        if isinstance(sys.exc_info()[1], _CLIENT_DISCONNECT):
            return  # the client hung up between requests: routine, not a fault
        super().handle_error(request, client_address)


class SketchQueryServer:
    """An HTTP frontend over one ``execute()`` backend.

    Wraps an existing :class:`DistanceService` (any store: in-memory,
    eager-loaded or memory-mapped), a
    :class:`~repro.serving.router.RouterService`, or, via
    :meth:`from_store_dir`, a saved store directory.  ``port=0`` binds
    an ephemeral port — read the chosen one from :attr:`url` — which is
    what tests and multi-process launchers want.

    ``reuse_port=True`` sets ``SO_REUSEPORT`` before binding, so many
    server processes share one port and the kernel distributes incoming
    connections across them (the ``--processes`` launcher's mechanism).
    ``cache`` enables the LRU result-envelope cache: pass a
    :class:`~repro.serving.cache.ReleaseCache` or an entry count.

    **Live generation swap.**  A server constructed over a store
    *directory* (``from_store_dir``, or ``store_path=`` here) can follow
    that directory across maintenance: ``watch_interval=SECONDS`` polls
    the manifest on a daemon thread and, whenever its ``generation``
    moves, loads the new generation and swaps it into the running
    service without a restart.  Every publish raises the generation —
    ``save``, :func:`~repro.serving.maintenance.compact_store`,
    ``merge_stores`` and ``rebuild_routing`` all go through
    :func:`~repro.serving.serialization.publish` — so the watched
    identity is just the generation and the ``shards_dir`` it names.
    In-flight queries finish on the snapshot they already took (the
    store-swap contract in :mod:`repro.serving.service`); the next
    request sees the new generation, and the result cache invalidates
    itself because the store token carries the generation.  A failed
    reload (e.g. a manifest read racing a publish) never takes the
    server down: the old store keeps serving and the error is parked in
    :attr:`watch_error` until a later poll succeeds.  Call
    :meth:`reload_if_changed` to force one synchronous check.

    Use :meth:`start` for a background thread (then :meth:`close`), or
    :meth:`serve_forever` to block the calling thread (the CLI path).
    Context-manager use starts on enter and closes on exit.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        reuse_port: bool = False,
        cache: ReleaseCache | int | None = None,
        store_path=None,
        mmap: bool = True,
        watch_interval: float | None = None,
    ) -> None:
        self.service = service
        if watch_interval is not None and watch_interval <= 0:
            raise ValueError(f"watch_interval must be positive, got {watch_interval}")
        if watch_interval is not None and store_path is None:
            raise ValueError(
                "watch_interval needs a store directory to watch — construct "
                "the server via from_store_dir() or pass store_path="
            )
        self._store_path = store_path
        self._mmap = mmap
        self._watch_interval = watch_interval
        self._watch_stop = threading.Event()
        self._watch_thread: threading.Thread | None = None
        self._watch_state = (
            self._manifest_state() if store_path is not None else None
        )
        #: last exception a watch poll hit, or None; the server keeps
        #: serving the old generation while this is set
        self.watch_error: Exception | None = None
        #: how many times the watcher swapped a new generation in
        self.swaps = 0
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError(
                "reuse_port=True needs SO_REUSEPORT, which this platform "
                "does not provide"
            )
        if isinstance(cache, int):
            cache = ReleaseCache(max_entries=cache) if cache > 0 else None
        self.cache = cache
        self._bind_host = host
        handler = type(
            "_BoundQueryHandler", (_QueryHandler,), {"service": service, "cache": cache}
        )
        server_cls = type(
            "_BoundHTTPServer",
            (_QuietHTTPServer,),
            {
                "address_family": _address_family(host),
                "allow_reuse_port": bool(reuse_port),
            },
        )
        self._httpd = server_cls((host, port), handler)
        self._thread: threading.Thread | None = None
        self._serving = False

    @classmethod
    def from_store_dir(
        cls,
        path,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        mmap: bool = True,
        policy: ExecutionPolicy | None = None,
        reuse_port: bool = False,
        cache: ReleaseCache | int | None = None,
        watch_interval: float | None = None,
    ) -> "SketchQueryServer":
        """Serve a directory saved by :meth:`ShardedSketchStore.save`.

        ``mmap=True`` (default) attaches shards lazily, so multiple
        server processes over one directory share the OS page cache.
        ``watch_interval=SECONDS`` keeps following the directory across
        maintenance: new generations are hot-swapped in without a
        restart (see the class docstring).
        """
        store = ShardedSketchStore.load(path, mmap=mmap)
        return cls(
            DistanceService(store, policy=policy),
            host=host,
            port=port,
            reuse_port=reuse_port,
            cache=cache,
            store_path=path,
            mmap=mmap,
            watch_interval=watch_interval,
        )

    # -- manifest watching / live swap ---------------------------------------

    def _manifest_state(self) -> tuple:
        """The store directory's identity: its generation and shard directory.

        Every publish raises ``generation`` and points ``shards_dir`` at
        the new ``gen-NNNNN``, so any change a reader could observe —
        appends, deletes, a tier demotion, a routing rebuild — moves
        this pair.  Reading the manifest is one small JSON file — cheap
        enough to poll.
        """
        manifest = read_manifest(self._store_path)
        return int(manifest.get("generation", 0)), manifest.get("shards_dir", "")

    def reload_if_changed(self) -> bool:
        """Poll the manifest once; swap the new generation in if it moved.

        Returns True when a swap happened.  The old store object is
        released to garbage collection only — queries that already
        snapshotted it finish on its (still-mapped) shards, exactly the
        snapshot isolation :meth:`ShardedSketchStore.snapshot` promises.
        """
        if self._store_path is None:
            raise ValueError("this server was not given a store directory to watch")
        state = self._manifest_state()
        if state == self._watch_state:
            return False
        store = ShardedSketchStore.load(self._store_path, mmap=self._mmap)
        self.service.swap_store(store)
        self._watch_state = state
        self.swaps += 1
        return True

    def _watch_loop(self) -> None:
        while not self._watch_stop.wait(self._watch_interval):
            try:
                self.reload_if_changed()
                self.watch_error = None
            except Exception as exc:  # noqa: BLE001 - keep serving the old gen
                # a poll racing a publish (or a half-written manifest from
                # a crashed compactor) must not kill serving: park the
                # error for operators and try again next interval
                self.watch_error = exc

    @property
    def host(self) -> str:
        """The advertised (connectable) host — never a wildcard address."""
        return _advertised_host(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """A connectable URL: wildcard binds advertise loopback, IPv6 brackets."""
        return f"http://{_format_host(self.host)}:{self.port}"

    def _start_watcher(self) -> None:
        if self._watch_interval is not None and self._watch_thread is None:
            self._watch_stop.clear()
            self._watch_thread = threading.Thread(
                target=self._watch_loop, name="repro-store-watcher", daemon=True
            )
            self._watch_thread.start()

    def start(self) -> "SketchQueryServer":
        """Serve on a daemon thread; returns ``self`` for chaining."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-query-server", daemon=True
            )
            self._thread.start()
        self._start_watcher()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self._serving = True
        self._start_watcher()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop accepting connections and release the service's pool.

        Safe on a server that was never started: ``BaseServer.shutdown``
        blocks on an event only a ``serve_forever`` loop ever sets, so
        it is skipped unless a loop was launched.
        """
        if self._watch_thread is not None:
            self._watch_stop.set()
            self._watch_thread.join()
            self._watch_thread = None
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.service.close()

    def __enter__(self) -> "SketchQueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the multi-process launcher ------------------------------------------------


def _serve_worker(
    store, host, port, mmap, policy, cache_entries, watch, ready
) -> None:
    """One ``--processes`` worker: pin BLAS, bind the shared port, signal, serve."""
    pin_blas_threads()
    server = SketchQueryServer.from_store_dir(
        store,
        host=host,
        port=port,
        mmap=mmap,
        policy=policy,
        reuse_port=True,
        cache=cache_entries,
        watch_interval=watch or None,
    )
    ready.put(blas_threads())
    server.serve_forever()


def _serve_multiprocess(args, policy: ExecutionPolicy) -> None:
    """Launch ``args.processes`` SO_REUSEPORT workers over one port.

    The parent claims the port first (resolving ``--port 0`` to a
    concrete ephemeral port all workers can share), spawns the workers,
    waits until every one is accepting, and only then prints the
    machine-parsed URL line — a launcher that connects immediately
    never races a worker's bind.  Workers memory-map the same store
    directory, so the OS page cache is shared across all of them.  Each
    worker pins BLAS and reports the count it reads back; the banner
    shows the largest.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        raise SystemExit(
            "--processes > 1 needs SO_REUSEPORT, which this platform "
            "does not provide"
        )
    family = _address_family(args.host)
    placeholder = socket.socket(family, socket.SOCK_STREAM)
    placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    placeholder.bind((args.host, args.port))
    port = placeholder.getsockname()[1]

    ctx = multiprocessing.get_context("spawn")  # no thread/fork hazards
    ready = ctx.Queue()
    workers = [
        ctx.Process(
            target=_serve_worker,
            args=(
                args.store,
                args.host,
                port,
                not args.eager,
                policy,
                args.cache,
                args.watch,
                ready,
            ),
            name=f"repro-query-worker-{i}",
        )
        for i in range(args.processes)
    ]
    for worker in workers:
        worker.start()

    def _terminate(signum=None, frame=None):
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    try:
        threads = []
        for _ in workers:
            try:
                threads.append(ready.get(timeout=120))
            except queue.Empty:
                raise SystemExit("a server worker failed to start within 120s")
        placeholder.close()  # the workers hold the port from here on

        store = ShardedSketchStore.load(args.store, mmap=True)
        url = f"http://{_format_host(_advertised_host(args.host))}:{port}"
        config = _thread_config(policy, None if None in threads else max(threads))
        print(
            f"serving {len(store)} rows in {store.n_shards} shards "
            f"({args.processes} processes, {config}) at {url}",
            flush=True,
        )
        for worker in workers:
            worker.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join()


def _thread_config(policy: ExecutionPolicy, threads: int | None) -> str:
    """The banner's thread configuration, named as ``/healthz`` names it."""
    return f"policy {policy!r}, blas_threads={threads}, workers={policy.workers}"


def main(argv=None) -> None:
    """CLI: ``python -m repro.serving.server --store DIR [--port N]``.

    Pins BLAS first (see the module docstring): every process this
    entry point starts serves at one BLAS thread unless
    ``REPRO_SERVING_BLAS_THREADS`` says otherwise.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server",
        description="Serve distance queries over a saved sketch store via HTTP.",
    )
    parser.add_argument("--store", required=True, help="store directory (from save())")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard-parallel query workers (default: REPRO_SERVING_WORKERS or serial)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="SO_REUSEPORT server processes sharing one port and the mmap "
        "page cache (default 1: serve in this process)",
    )
    parser.add_argument(
        "--cache",
        type=int,
        default=0,
        metavar="ENTRIES",
        help="LRU result-envelope cache entries per process (0 disables; "
        "safe — releases are deterministic, so a cache hit is byte-identical "
        "to recomputing and spends no extra privacy budget)",
    )
    parser.add_argument(
        "--eager",
        action="store_true",
        help="read shards into RAM up front instead of memory-mapping lazily",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="poll the store manifest every SECONDS and hot-swap new "
        "generations in without a restart (0 disables; in-flight queries "
        "finish on the snapshot they started with)",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.processes < 1:
        parser.error(f"--processes must be >= 1, got {args.processes}")
    if args.cache < 0:
        parser.error(f"--cache must be >= 0, got {args.cache}")
    if args.watch < 0:
        parser.error(f"--watch must be >= 0, got {args.watch}")
    pin_blas_threads()
    policy = (
        ExecutionPolicy.from_env()
        if args.workers is None
        else ExecutionPolicy(workers=args.workers)
    )
    if args.processes > 1:
        _serve_multiprocess(args, policy)
        return
    server = SketchQueryServer.from_store_dir(
        args.store,
        host=args.host,
        port=args.port,
        mmap=not args.eager,
        policy=policy,
        cache=args.cache,
        watch_interval=args.watch or None,
    )
    store = server.service.store
    # the URL line is machine-readable: launchers (and the smoke test)
    # parse it to discover an ephemeral port
    print(
        f"serving {len(store)} rows in {store.n_shards} shards "
        f"({_thread_config(policy, blas_threads())}) at {server.url}",
        flush=True,
    )
    server.serve_forever()


if __name__ == "__main__":
    main()
