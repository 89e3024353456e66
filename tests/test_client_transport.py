"""DistanceClient's HTTP/1.1 framing, against a raw-socket peer and a real server.

The client speaks keep-alive HTTP/1.1 itself: one write per request, a
status line, bounded header lines and exactly ``Content-Length`` body
bytes back.  These tests pin that framing: bodies come back byte-exact
however the reply is split, a connection is pooled only when the
reply's headers allow it, a malformed or oversized reply is a transport
failure that burns the retries, and each message crosses the socket in
one write each way.
"""

import contextlib
import queue
import random
import select
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    PairwiseQuery,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
)
from repro.serving import server as server_module
from tests.helpers import any_case

_CONFIG = SketchConfig(input_dim=32, epsilon=8.0, output_dim=16, sparsity=4, seed=9)


def _read_request(rfile) -> bytes:
    """One whole request, head and body; ``b""`` at end of stream."""
    head = line = rfile.readline()
    length = 0
    while line not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
        line = rfile.readline()
        head += line
    return head + rfile.read(length)


class _StubServer:
    """A raw-socket HTTP peer answering each request with the next scripted reply.

    A reply is ``(segments, close)``: the segments go out one
    ``sendall`` each, and ``close`` shuts the connection after them.
    """

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self.replies: queue.Queue = queue.Queue()
        self.requests: list[bytes] = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # the listener was closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as rfile:
            try:
                while request := _read_request(rfile):
                    self.requests.append(request)
                    segments, close = self.replies.get(timeout=10)
                    for segment in segments:
                        conn.sendall(segment)
                    if close:
                        return
            except OSError:
                return  # the client dropped a reply it rejected

    def script(self, *replies) -> None:
        while not self.replies.empty():  # left over by a failed example
            self.replies.get_nowait()
        self.requests.clear()
        for reply in replies:
            self.replies.put(reply)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()


@pytest.fixture(scope="module")
def stub():
    server = _StubServer()
    yield server
    server.close()


@st.composite
def _replies(draw):
    """One reply: its body, its wire segments and its framing."""
    size = draw(st.integers(0, 256 * 1024))
    body = random.Random(draw(st.integers(0, 2**32))).randbytes(size)
    framing = draw(st.sampled_from(["keep-alive", "close", "eof"]))
    headers = [("Content-Type", "application/octet-stream"), ("Server", "stub")]
    if framing != "eof":  # "eof": no Content-Length, the body ends at EOF
        headers.append(("Content-Length", str(size)))
    if framing == "close":
        headers.append(("Connection", "close"))
    elif draw(st.booleans()):
        headers.append(("Connection", "keep-alive"))
    head = "HTTP/1.1 200 OK\r\n"
    for name, value in draw(st.permutations(headers)):
        head += f"{draw(any_case(name))}: {value}\r\n"
    raw = (head + "\r\n").encode("ascii") + body
    cuts = sorted(draw(st.lists(st.integers(0, len(raw)), max_size=6)))
    segments = [raw[a:b] for a, b in zip([0, *cuts], [*cuts, len(raw)])]
    return body, segments, framing


class TestFraming:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(script=st.lists(_replies(), min_size=1, max_size=4))
    def test_bodies_are_byte_exact_and_only_reusable_connections_are_pooled(
        self, stub, script
    ):
        stub.script(*((segments, framing != "keep-alive") for _, segments, framing in script))
        # no retries: a connection pooled against its reply's headers
        # would fail the next request instead of being retried away
        with DistanceClient(stub.url, timeout=10, retries=0) as client:
            for body, _, framing in script:
                assert client._post("/echo", b"{}") == body
                assert len(client._idle) == (framing == "keep-alive")
            closed = sum(framing != "keep-alive" for _, _, framing in script[:-1])
            assert client.connections_opened == 1 + closed
            assert client.retries_used == 0

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(b"", id="eof-before-status-line"),
            pytest.param(b"HTTP/1.1 OK\r\n\r\n", id="malformed-status-line"),
            pytest.param(b"SPDY/3 200 OK\r\nContent-Length: 0\r\n\r\n", id="not-http"),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n",
                id="header-line-over-64KiB",
            ),
            pytest.param(
                b"HTTP/1.1 200 OK\r\n" + b"X-Pad: a\r\n" * 100 + b"\r\n", id="100-headers"
            ),
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", id="short-body"),
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", id="bad-length"),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
                id="chunked",
            ),
        ],
    )
    def test_a_broken_reply_burns_every_retry_then_raises_connection_error(self, stub, reply):
        stub.script(*[([reply], True)] * 3)
        with DistanceClient(stub.url, timeout=10, retries=2) as client:
            with pytest.raises(ConnectionError, match="after 3 attempt"):
                client._post("/echo", b"{}")
            assert client.requests_sent == 3
            assert client.connections_opened == 3  # never retried on the broken one

    def test_a_request_is_one_http_1_1_message_under_the_url_path(self, stub):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        stub.script(([reply], False), ([reply], True))
        port = stub.url.rsplit(":", 1)[1]
        with DistanceClient(stub.url + "/base/", pool_size=0) as client:
            assert client._post("/query", b"{}") == b"ok"
            assert client._get("/healthz") == b"ok"
            assert client.connections_opened == 2
        head = f"Host: 127.0.0.1:{port}\r\nContent-Type: application/json\r\n"
        assert stub.requests == [
            f"POST /base/query HTTP/1.1\r\n{head}Content-Length: 2\r\n"
            "Connection: close\r\n\r\n{}".encode(),
            f"GET /base/healthz HTTP/1.1\r\n{head}Content-Length: 0\r\n"
            "Connection: close\r\n\r\n".encode(),
        ]

    @pytest.mark.parametrize("path", ["/a b", "/caf\u00e9", "/del\x7f"])
    def test_a_url_path_unfit_for_a_request_line_is_rejected(self, path):
        with pytest.raises(ValueError, match="request line"):
            DistanceClient("http://127.0.0.1:9" + path)

    def test_99_headers_and_an_http_1_0_reply_are_accepted(self, stub):
        # http.client's bound: 100 lines, the blank terminator included
        reply = b"HTTP/1.0 200 OK\r\n" + b"X-Pad: a\r\n" * 98 + b"Content-Length: 2\r\n\r\nok"
        stub.script(([reply], True))
        with DistanceClient(stub.url, timeout=10, retries=0) as client:
            assert client._post("/echo", b"{}") == b"ok"
            assert client._idle == []  # HTTP/1.0: the connection is not reused


@pytest.fixture()
def served(tmp_path):
    sketcher = PrivateSketcher(_CONFIG)
    store = ShardedSketchStore(shard_capacity=8)
    store.add_batch(
        sketcher.sketch_batch(np.random.default_rng(4).standard_normal((30, 32)), noise_rng=1)
    )
    store.save(tmp_path / "store")
    local = DistanceService(
        ShardedSketchStore.load(tmp_path / "store", mmap=True), ExecutionPolicy(workers=1)
    )
    with local, SketchQueryServer.from_store_dir(
        tmp_path / "store", port=0, policy=ExecutionPolicy(workers=1)
    ).start() as server:
        yield sketcher, local, server


class TestAgainstTheServer:
    def test_a_connection_the_server_closed_when_idle_costs_one_retry(
        self, served, monkeypatch
    ):
        # the handler reads its timeout per connection, so the shortened
        # idle limit applies to the connection the client opens next
        monkeypatch.setattr(server_module._QueryHandler, "timeout", 0.2)
        _, local, server = served
        with DistanceClient(server.url) as client:
            client.execute(NormsQuery())
            (pooled,) = client._idle
            readable, _, _ = select.select([pooled.sock], [], [], 10)
            assert readable  # the server's FIN arrived: the pooled socket is stale
            result = client.execute(NormsQuery())
            assert client.retries_used == 1
            assert client.connections_opened == 2
        np.testing.assert_array_equal(result.payload, local.execute(NormsQuery()).payload)

    def test_each_request_and_each_reply_is_one_socket_write(self, served, monkeypatch):
        sketcher, local, server = served
        writes = {"request": 0, "reply": 0}
        sendall = socket.socket.sendall

        def counting_sendall(sock, data, *args):
            side = "reply" if sock.getsockname()[1] == server.port else "request"
            writes[side] += 1
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
        top = TopKQuery(
            queries=sketcher.sketch_batch(
                np.random.default_rng(5).standard_normal((2, 32)), noise_rng=2
            ),
            k=3,
        )
        queries = [NormsQuery(), PairwiseQuery(indices=(0, 1, 2)), top]
        with DistanceClient(server.url) as client:
            for query in queries:
                assert client.execute(query).payload is not None
            client.execute_many(queries)
            client.health()
            assert client.requests_sent == 5
        assert writes == {"request": 5, "reply": 5}
