"""HTTP client speaking the same ``execute()`` protocol as the local service.

:class:`DistanceClient` is the remote counterpart of
:class:`~repro.serving.service.DistanceService`: it implements
``execute(query)`` / ``execute_many(queries)`` over the typed query
algebra of :mod:`repro.serving.queries`, so code written against the
protocol runs unchanged against a local store or a
:class:`~repro.serving.server.SketchQueryServer` across the network —
payloads are bit-identical (the wire codec moves float64 exactly) and
``QueryResult.stats`` carries the *server-side* counters, so shard
pruning stays observable remotely.

The transport is a **connection pool** of HTTP/1.1 keep-alive
sockets that the client speaks itself: each request leaves in one
``sendall`` (request line, headers and body together), and each reply
is read as a status line, a head and exactly ``Content-Length`` body
bytes.  The head is read under the bounds and rules of
:mod:`repro.serving.http11` (64 KiB per line, 100 lines), the module
the server reads requests with.  Requests reuse established TCP
connections instead of paying a connect (plus slow-start) per query —
the difference between ~hundreds and ~thousands of queries per second
on the loopback, and far more across a real network.  The pool is
thread-safe: concurrent callers check out distinct connections, and up
to ``pool_size`` idle connections are retained for reuse; a reply
returns its connection to the pool only when its framing allows it (a
``Content-Length``, and HTTP/1.1 without ``Connection: close`` or
HTTP/1.0 with ``Connection: keep-alive``).  Transport
failures (a stale keep-alive connection the server timed out, a reset,
a refused connect, a timeout, a malformed or truncated reply) are
retried up to ``retries`` times on a *fresh* connection — safe, because
every query is a deterministic read: the server derives results purely
from already-released sketches, so a retried request returns
byte-identical data and spends no privacy budget (see
:mod:`repro.serving.cache` for the argument).

Error behaviour matches local execution: an incompatible query, an
empty store or a malformed parameter raises the same exception class a
local ``execute()`` raises (the server transports it in an error
envelope).  Transport-level failures — refused connection, dead server,
retries exhausted — and HTTP 5xx server faults raise
:class:`ConnectionError`.

Only the standard library is used, so there is nothing to install on
the analyst side.  Amortise per-request overhead further with
:meth:`DistanceClient.execute_many`, which answers a whole sequence of
queries in a single round trip.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.parse

from repro.serving import http11, wire
from repro.serving.queries import QueryResult


class _Connection:
    """One keep-alive HTTP/1.1 connection: its socket and a buffered reader."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _read_reply(rfile) -> tuple[int, bytes, bool]:
    """Read one HTTP/1.x reply; any framing fault raises ``ConnectionError``.

    The head goes through :func:`repro.serving.http11.read_head`, whose
    :class:`~repro.serving.http11.FramingError` is a ``ConnectionError``.
    The connection stays reusable unless the head closes it; a reply
    without a length is read to EOF, as :mod:`http.client` does.
    """
    line = rfile.readline(http11.MAX_LINE + 1)
    if not line:
        # the server closed the connection before answering: on a
        # pooled connection, the keep-alive timeout that makes it stale
        raise ConnectionError("connection closed before the status line")
    parts = line.split(None, 2)  # version, status code, reason phrase
    if (
        len(line) > http11.MAX_LINE
        or len(parts) < 2
        or not parts[0].startswith(b"HTTP/1.")
        or not (len(parts[1]) == 3 and parts[1].isdigit())
    ):
        raise ConnectionError(f"malformed status line {line[:80]!r}")
    head = http11.read_head(rfile, persistent=parts[0] != b"HTTP/1.0")
    if head.length is None:
        return int(parts[1]), rfile.read(), False
    body = rfile.read(head.length)
    if len(body) < head.length:
        raise ConnectionError(f"reply body ended after {len(body)} of {head.length} bytes")
    return int(parts[1]), body, not head.close


class DistanceClient:
    """Execute typed distance queries against a remote sketch store.

    Parameters
    ----------
    base_url:
        The server root, e.g. ``"http://127.0.0.1:8790"`` (the URL a
        :class:`~repro.serving.server.SketchQueryServer` prints).
        IPv6 hosts use the bracketed form, ``"http://[::1]:8790"``.
    timeout:
        Per-request socket timeout in seconds.
    pool_size:
        Maximum idle keep-alive connections retained for reuse.
        Concurrent requests beyond the idle supply open extra
        connections freely; only the *idle* pool is bounded.  ``0``
        disables reuse entirely (every request opens and closes its
        own connection — the pre-pool behaviour, kept for A/B
        measurement; ``benchmarks/bench_load.py`` quantifies the gap).
    retries:
        How many times a request is retried on a **transport** failure
        (refused/reset/stale connection, timeout, malformed or truncated
        reply) before raising ``ConnectionError``.  HTTP-level errors are never retried: a
        4xx re-raises the server's exception immediately, and a 5xx
        raises ``ConnectionError`` immediately so callers distinguish
        a faulting server from an unreachable one.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        pool_size: int = 8,
        retries: int = 2,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        if pool_size < 0:
            raise ValueError(f"pool_size must be >= 0, got {pool_size}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.pool_size = pool_size
        self.retries = retries
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme != "http":
            raise ValueError(
                f"base_url must be an http:// URL, got {base_url!r}"
            )
        if not split.hostname:
            raise ValueError(f"base_url {base_url!r} has no host")
        self._host = split.hostname
        self._port = split.port if split.port is not None else 80
        self._prefix = split.path.rstrip("/")
        if not self._prefix.isascii() or any(c <= " " or c == "\x7f" for c in self._prefix):
            # the path goes verbatim onto the request line
            raise ValueError(f"base_url {base_url!r} has a path unfit for a request line")
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._host_header = host if self._port == 80 else f"{host}:{self._port}"
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []
        self._closed = False
        #: transport counters (monotonic): connections actually opened,
        #: requests attempted, and retries spent — pool-reuse and retry
        #: behaviour observable without packet captures
        self.connections_opened = 0
        self.requests_sent = 0
        self.retries_used = 0

    # -- the execute() protocol ----------------------------------------------

    def execute(self, query) -> QueryResult:
        """Answer one typed query on the server; local-identical payloads."""
        blob = self._post("/query", wire.encode_query(query))
        return wire.decode_result(blob)

    def execute_many(self, queries) -> list[QueryResult]:
        """Answer a sequence of queries in one round trip, in order."""
        queries = list(queries)
        if not queries:
            return []
        blob = self._post("/query-many", wire.encode_queries(queries))
        results = wire.decode_results(blob)
        if len(results) != len(queries):
            raise wire.WireError(
                f"server answered {len(results)} results for {len(queries)} queries"
            )
        return results

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        """The server's ``/healthz`` payload (rows, shards, digest)."""
        return json.loads(self._get("/healthz").decode("utf-8"))

    def meta(self) -> dict:
        """The server's ``/meta`` payload (store metadata, policy)."""
        return json.loads(self._get("/meta").decode("utf-8"))

    def __len__(self) -> int:
        return int(self.health()["rows"])

    def close(self) -> None:
        """Close every pooled connection; in-flight requests finish theirs."""
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for connection in idle:
            connection.close()

    def __enter__(self) -> "DistanceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection pool -----------------------------------------------------

    def _checkout(self) -> _Connection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
            self.connections_opened += 1
        sock = socket.create_connection((self._host, self._port), self.timeout)
        # a small JSON envelope must not sit in Nagle's buffer waiting
        # for the previous exchange's delayed ACK — on a reused
        # keep-alive connection that stall would make pooling *slower*
        # than reconnecting (a close flushes; a live connection waits)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Connection(sock)

    def _checkin(self, connection: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.pool_size:
                self._idle.append(connection)
                return
        connection.close()

    # -- transport -----------------------------------------------------------

    def _post(self, path: str, body: bytes) -> bytes:
        return self._send("POST", path, body)

    def _get(self, path: str) -> bytes:
        return self._send("GET", path, b"")

    def _send(self, method: str, path: str, body: bytes) -> bytes:
        # the whole request is one buffer, so it leaves in one write
        close = "Connection: close\r\n" if self.pool_size == 0 else ""
        message = (
            f"{method} {self._prefix}{path} HTTP/1.1\r\n"
            f"Host: {self._host_header}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        ).encode("ascii") + body
        last_exc: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                with self._lock:
                    self.retries_used += 1
            connection = None
            try:
                connection = self._checkout()  # may connect: inside the retry
                with self._lock:
                    self.requests_sent += 1
                connection.sock.sendall(message)
                status, blob, reusable = _read_reply(connection.rfile)
            except OSError as exc:
                # a transport failure (ConnectionError covers a broken
                # reply): the connection is in an unknown state, so drop
                # it and retry on a fresh one — queries are deterministic
                # reads, so a retry that re-executes a request the
                # server already answered is harmless
                if connection is not None:
                    connection.close()
                last_exc = exc
                continue
            if reusable and self.pool_size > 0:
                self._checkin(connection)
            else:
                connection.close()
            return self._handle_status(status, blob)
        raise ConnectionError(
            f"cannot reach sketch query server at {self.base_url} "
            f"after {self.retries + 1} attempt(s): {last_exc!r}"
        ) from last_exc

    def _handle_status(self, status: int, blob: bytes) -> bytes:
        if status == 200:
            return blob
        if status >= 500:
            # a server fault, not a bad query: surface it as a
            # transport-class error so callers treat it like a dead
            # server rather than a permanently-invalid request — but
            # keep the server's message when it sent one (a 502 from a
            # router frontend names the unreachable backend)
            try:
                detail = f": {wire.decode_error(blob)}"
            except wire.WireError:
                detail = ""
            raise ConnectionError(
                f"sketch query server at {self.base_url} failed with "
                f"HTTP {status}{detail}"
            )
        try:
            error = wire.decode_error(blob)
        except wire.WireError as exc:
            raise ConnectionError(
                f"server returned HTTP {status} with a non-wire body"
            ) from exc
        raise error from None  # the exception a local execute() would raise
