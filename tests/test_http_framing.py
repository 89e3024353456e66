"""The shared HTTP/1.1 framing module, on its own and inside the server.

:mod:`repro.serving.http11` reads request heads for
:class:`~repro.serving.server.SketchQueryServer` and reply heads for
:class:`~repro.serving.client.DistanceClient`.  These tests pin it:

* on well-formed heads its length and close decisions agree with
  :func:`http.client.parse_headers` plus the handler logic it replaced,
  and the reader is left at the first body byte (a hypothesis property);
* on random bytes, truncations and header floods it raises only
  :class:`~repro.serving.http11.FramingError`, never asks the reader for
  more than its bounds and never returns a negative length;
* a served request that breaks a rule gets its status over a raw
  socket, pipelined requests are answered in order, and every case
  leaves the server answering bit for bit like local ``execute()``;
* the server answers with the stdlib's header parser out of reach.
"""

import contextlib
import email.utils
import http.client
import http.server
import io
import socket
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
    http11,
    wire,
)
from repro.serving import server as server_module
from tests.helpers import any_case

_CONFIG = SketchConfig(input_dim=32, epsilon=8.0, output_dim=16, sparsity=4, seed=21)

# -- the module on its own ------------------------------------------------------


class _CountingReader:
    """A byte stream that records every ``readline`` and allows nothing else."""

    def __init__(self, data: bytes) -> None:
        self._stream = io.BytesIO(data)
        self.limits: list[int] = []

    def readline(self, limit: int) -> bytes:
        assert 0 < limit <= http11.MAX_LINE + 1, f"readline({limit}) past the line bound"
        self.limits.append(limit)
        return self._stream.readline(limit)

    @property
    def consumed(self) -> int:
        return self._stream.tell()

    def rest(self) -> bytes:
        return self._stream.read()


_RESERVED = {"content-length", "connection", "transfer-encoding", "expect"}
_names = st.text(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-", min_size=1, max_size=12
).filter(lambda name: name.lower() not in _RESERVED)
_values = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=20)
_ows = st.sampled_from(["", " ", "  ", "\t", " \t"])


@st.composite
def _heads(draw):
    """A well-formed head: ``(raw bytes, version, length or None, connection value or None)``."""
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    length = draw(st.none() | st.integers(0, 10**12))
    connection = draw(st.none() | st.sampled_from(["close", "keep-alive"]))
    special = []
    if length is not None:
        special.append(("Content-Length", str(length)))
    if connection is not None:
        special.append(("Connection", connection))
    others = draw(st.lists(st.tuples(_names, _values), max_size=99 - len(special)))
    lines = []
    for name, value in draw(st.permutations(special + others)):
        if (name, value) in special:
            name = draw(any_case(name))
            value = draw(any_case(value))
        ending = draw(st.sampled_from(["\r\n", "\n"]))
        lines.append(f"{name}:{draw(_ows)}{value}{draw(_ows)}{ending}")
    raw = ("".join(lines) + "\r\n").encode("ascii")
    return raw, version, length, connection


def _reference(raw: bytes, version: str):
    """``(length, close)`` as ``http.client.parse_headers`` and the old handler decide.

    The handler compared the raw ``Connection`` value, which keeps
    trailing whitespace; RFC 9110 leaves optional whitespace out of a
    field value, so the reference strips it.
    """
    headers = http.client.parse_headers(io.BytesIO(raw))
    length = headers.get("Content-Length")
    close = version != "HTTP/1.1"
    connection = headers.get("Connection", "").strip().lower()
    if connection == "close":
        close = True
    elif connection == "keep-alive":
        close = False
    return None if length is None else int(length), close


_RELAXED = [HealthCheck.too_slow, HealthCheck.data_too_large]


class TestDifferential:
    @settings(max_examples=300, deadline=None, suppress_health_check=_RELAXED)
    @given(head=_heads(), body=st.binary(max_size=64))
    def test_length_and_close_agree_with_the_stdlib_parser(self, head, body):
        raw, version, length, connection = head
        reader = _CountingReader(raw + body)
        got = http11.read_head(reader, persistent=version == "HTTP/1.1")
        assert (got.length, got.close) == _reference(raw, version)
        assert got.length == length
        assert reader.consumed == len(raw)  # left at the first body byte
        assert reader.rest() == body

    @settings(max_examples=200, deadline=None, suppress_health_check=_RELAXED)
    @given(head=_heads(), method=st.sampled_from(["GET", "POST"]), body=st.binary(max_size=64))
    def test_a_request_line_then_the_head(self, head, method, body):
        raw, version, _, _ = head
        start = f"{method} /query {version}\r\n".encode("ascii")
        reader = _CountingReader(start + raw + body)
        got_method, target, got = http11.read_request(reader)
        assert (got_method, target) == (method, "/query")
        assert (got.length, got.close) == _reference(raw, version)
        assert reader.rest() == body


@st.composite
def _hostile(draw):
    """Random bytes, a truncated well-formed request, or a flood of lines."""
    kind = draw(st.sampled_from(["bytes", "truncated", "flood", "long-line"]))
    if kind == "bytes":
        return draw(st.binary(max_size=512))
    if kind == "truncated":
        raw, version, _, _ = draw(_heads())
        whole = f"POST /query {version}\r\n".encode("ascii") + raw
        return whole[: draw(st.integers(0, len(whole)))]
    start = b"POST /query HTTP/1.1\r\n"
    if kind == "flood":
        lines = draw(st.integers(http11.MAX_HEADERS - 2, http11.MAX_HEADERS + 50))
        line = draw(st.sampled_from([b"X-Pad: a\r\n", b"Content-Length: 0\r\n", b"\r\n"]))
        return start + b"X-Pad: a\r\n" * lines + line + b"\r\n"
    size = draw(st.integers(http11.MAX_LINE - 4, http11.MAX_LINE + 4))
    line = b"X-Pad: " + b"a" * max(0, size - 9) + b"\r\n"
    return draw(st.sampled_from([start + line + b"\r\n", line + b"\r\n"]))


class TestFuzz:
    @settings(max_examples=400, deadline=None, suppress_health_check=_RELAXED)
    @given(data=_hostile())
    def test_only_framing_errors_and_never_past_a_bound(self, data):
        reader = _CountingReader(data)
        try:
            request = http11.read_request(reader)
        except http11.FramingError as exc:
            assert exc.status in (400, 414, 431, 501, 505)
            request = None
        else:
            if request is not None:
                assert request[2].length is None or request[2].length >= 0
        # the request line and at most MAX_HEADERS head lines
        assert len(reader.limits) <= 1 + http11.MAX_HEADERS
        assert reader.consumed <= len(reader.limits) * (http11.MAX_LINE + 1)

    @settings(max_examples=300, deadline=None, suppress_health_check=_RELAXED)
    @given(data=_hostile(), persistent=st.booleans())
    def test_a_reply_head_obeys_the_same_bounds(self, data, persistent):
        reader = _CountingReader(data)
        try:
            head = http11.read_head(reader, persistent=persistent)
        except http11.FramingError:
            pass
        else:
            assert head.length is None or head.length >= 0
        assert len(reader.limits) <= http11.MAX_HEADERS

    @pytest.mark.parametrize(
        ("head", "status"),
        [
            (b"Content-Length: -1\r\n\r\n", 400),
            (b"Content-Length: +5\r\n\r\n", 400),
            (b"Content-Length: 5\r\nContent-Length: 6\r\n\r\n", 400),
            (b"Content-Length: " + b"9" * 21 + b"\r\n\r\n", 400),
            (b"Content-Length : 5\r\n\r\n", 400),
            (b" folded\r\n\r\n", 400),
            (b"no colon\r\n\r\n", 400),
            (b"Content-Length: 5\r\n", 400),  # the stream ends inside the head
            (b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n", 501),
            (b"X-Pad: " + b"a" * http11.MAX_LINE + b"\r\n\r\n", 431),
            (b"X-Pad: a\r\n" * http11.MAX_HEADERS + b"\r\n", 431),
        ],
    )
    def test_each_rule_carries_its_status(self, head, status):
        with pytest.raises(http11.FramingError) as raised:
            http11.read_head(_CountingReader(head), persistent=True)
        assert raised.value.status == status

    def test_agreeing_duplicate_lengths_and_99_lines_are_accepted(self):
        head = b"Content-Length: 5\r\n" + b"X-Pad: a\r\n" * 97 + b"content-length: 005\r\n\r\n"
        assert http11.read_head(_CountingReader(head), persistent=True).length == 5

    @pytest.mark.parametrize(
        ("version", "connection", "close"),
        [
            ("HTTP/1.1", None, False),
            ("HTTP/1.1", "Keep-Alive, Upgrade", False),
            ("HTTP/1.1", "upgrade, CLOSE", True),
            ("HTTP/1.0", None, True),
            ("HTTP/1.0", "keep-alive", False),
            ("HTTP/1.0", "keep-alive, close", True),
        ],
    )
    def test_one_connection_rule(self, version, connection, close):
        head = b"" if connection is None else f"Connection: {connection}\r\n".encode()
        request = f"GET /healthz {version}\r\n".encode() + head + b"\r\n"
        assert http11.read_request(_CountingReader(request))[2].close is close


# -- the module inside the server ----------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    sketcher = PrivateSketcher(_CONFIG)
    root = tmp_path_factory.mktemp("framing") / "store"
    store = ShardedSketchStore(shard_capacity=8)
    store.add_batch(
        sketcher.sketch_batch(np.random.default_rng(4).standard_normal((30, 32)), noise_rng=1)
    )
    store.save(root)
    local = DistanceService(ShardedSketchStore.load(root, mmap=True), ExecutionPolicy(workers=1))
    with local, SketchQueryServer.from_store_dir(
        root, port=0, policy=ExecutionPolicy(workers=1)
    ).start() as server:
        yield sketcher, local, server


def _queries(sketcher):
    rows = sketcher.sketch_batch(np.random.default_rng(8).standard_normal((2, 32)), noise_rng=3)
    return [TopKQuery(queries=rows, k=5), CrossQuery(queries=rows), NormsQuery()]


def _assert_same_payload(remote, mine):
    if isinstance(mine, np.ndarray):
        assert remote.tobytes() == mine.tobytes()
    else:
        assert remote == mine


def _assert_answers_like_local(served):
    sketcher, local, server = served
    with DistanceClient(server.url, retries=0) as client:
        for query in _queries(sketcher):
            _assert_same_payload(client.execute(query).payload, local.execute(query).payload)


@contextlib.contextmanager
def _raw(server):
    sock = socket.create_connection((server.host, server.port), timeout=10)
    with sock, sock.makefile("rb") as rfile:
        yield sock, rfile


def _read_reply(rfile):
    """``(status, headers, body)`` of the next reply, read without the stdlib parser."""
    status = rfile.readline()
    assert status.startswith(b"HTTP/1.1 "), status
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        headers[name.decode().lower()] = value.strip().decode()
    body = rfile.read(int(headers.get("content-length", 0)))
    return int(status.split()[1]), headers, body


def _assert_closed(rfile):
    """The server closed the connection (a reset counts: it may drop unread bytes)."""
    with contextlib.suppress(ConnectionResetError):
        assert rfile.read() == b""


def _post(body: bytes, *extra: str, path="/query", version="HTTP/1.1") -> bytes:
    head = [f"POST {path} {version}", "Host: t", f"Content-Length: {len(body)}", *extra]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


_LONG = b"a" * http11.MAX_LINE
_REFUSALS = [
    pytest.param(b"GET /" + _LONG + b" HTTP/1.1\r\n\r\n", 414, id="request-line-over-64KiB"),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + _LONG + b"\r\n\r\n", 431, id="header-line-over-64KiB"
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: a\r\n" * 100 + b"\r\n", 431, id="header-flood"
    ),
    pytest.param(b"\r\nGET /healthz HTTP/1.1\r\n\r\n", 400, id="empty-request-line"),
    pytest.param(b"GET /healthz\r\n\r\n", 400, id="two-word-request-line"),
    pytest.param(b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400, id="four-word-request-line"),
    pytest.param(b"GET /healthz HTTP/x.1\r\n\r\n", 400, id="malformed-version"),
    pytest.param(b"GET /healthz HTTP/2.0\r\n\r\n", 505, id="http-2"),
    pytest.param(b"BREW /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501, id="unknown-method"),
    pytest.param(b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400, id="negative-length"),
    pytest.param(
        b"POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
        400,
        id="disagreeing-lengths",
    ),
    pytest.param(
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        501,
        id="chunked",
    ),
]


class TestServedStatuses:
    @pytest.mark.parametrize(("request_bytes", "status"), _REFUSALS)
    def test_a_refused_request_gets_its_status_then_a_close(self, served, request_bytes, status):
        with _raw(served[2]) as (sock, rfile):
            sock.sendall(request_bytes)
            got, headers, body = _read_reply(rfile)
            assert got == status
            assert headers["connection"] == "close"
            assert isinstance(wire.decode_error(body), ValueError)
            _assert_closed(rfile)
        _assert_answers_like_local(served)

    def test_a_chunked_request_is_told_to_send_a_content_length(self, served):
        with _raw(served[2]) as (sock, rfile):
            sock.sendall(_REFUSALS[-1].values[0])
            assert "Content-Length" in str(wire.decode_error(_read_reply(rfile)[2]))

    def test_a_body_over_the_limit_is_413_then_a_close(self, served, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        with _raw(served[2]) as (sock, rfile):
            sock.sendall(_post(b"x" * 65))
            status, headers, body = _read_reply(rfile)
            assert (status, headers["connection"]) == (413, "close")
            assert "request body over 64 bytes" in str(wire.decode_error(body))
            _assert_closed(rfile)
        monkeypatch.undo()
        _assert_answers_like_local(served)

    def test_an_unknown_endpoint_is_404_and_the_connection_stays_open(self, served):
        with _raw(served[2]) as (sock, rfile):
            sock.sendall(_post(b"{}", path="/nope"))
            status, headers, _ = _read_reply(rfile)
            assert status == 404 and "connection" not in headers
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_reply(rfile)[0] == 200
        _assert_answers_like_local(served)

    @pytest.mark.parametrize(
        ("version", "extra", "closes"),
        [
            ("HTTP/1.0", (), True),
            ("HTTP/1.0", ("Connection: keep-alive",), False),
            ("HTTP/1.1", (), False),
            ("HTTP/1.1", ("Connection: close",), True),
        ],
    )
    def test_connection_persistence(self, served, version, extra, closes):
        body = wire.encode_query(NormsQuery())
        with _raw(served[2]) as (sock, rfile):
            sock.sendall(_post(body, *extra, version=version))
            status, headers, _ = _read_reply(rfile)
            assert status == 200
            assert (headers.get("connection") == "close") is closes
            if closes:
                _assert_closed(rfile)
            else:
                sock.sendall(_post(body, version=version))
                assert _read_reply(rfile)[0] == 200
        _assert_answers_like_local(served)

    def test_pipelined_requests_are_answered_in_order(self, served):
        sketcher, local, server = served
        queries = _queries(sketcher)
        with _raw(server) as (sock, rfile):
            sock.sendall(b"".join(_post(wire.encode_query(query)) for query in queries))
            for query in queries:
                status, _, body = _read_reply(rfile)
                assert status == 200
                _assert_same_payload(
                    wire.decode_result(body).payload, local.execute(query).payload
                )
        _assert_answers_like_local(served)

    def test_expect_100_continue_gets_one_interim_write(self, served, monkeypatch):
        sketcher, local, server = served
        writes = []
        sendall = socket.socket.sendall

        def recording_sendall(sock, data, *args):
            if sock.getsockname()[1] == server.port:
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        query = _queries(sketcher)[0]
        body = wire.encode_query(query)
        with _raw(server) as (sock, rfile):
            monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
            head = _post(body, "Expect: 100-continue")[: -len(body)]
            sendall(sock, head)
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            sendall(sock, body)
            status, _, reply = _read_reply(rfile)
            monkeypatch.undo()
        assert status == 200
        _assert_same_payload(wire.decode_result(reply).payload, local.execute(query).payload)
        assert writes[0] == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert len(writes) == 2  # the interim 100, then the whole reply
        _assert_answers_like_local(served)

    def test_an_http_1_0_expectation_is_ignored(self, served):
        with _raw(served[2]) as (sock, rfile):
            sock.sendall(_post(b"{}", "Expect: 100-continue", version="HTTP/1.0"))
            assert _read_reply(rfile)[0] == 400  # the reply, no interim 100

    def test_the_date_header_names_the_second_the_reply_was_sent_in(self, served):
        # formatted once per second and reused: across a second boundary
        # every reply must still carry its own second
        with _raw(served[2]) as (sock, rfile):
            for _ in range(4):
                before = int(time.time())
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                status, headers, _ = _read_reply(rfile)
                after = int(time.time())
                assert status == 200
                assert headers["date"] in {
                    email.utils.formatdate(second, usegmt=True)
                    for second in range(before, after + 1)
                }
                time.sleep(0.4)


class TestParserOffThePath:
    def test_the_server_answers_without_the_stdlib_header_parser(self, served, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib header parser ran on the request path")

        monkeypatch.setattr(http.client, "parse_headers", refuse)
        monkeypatch.setattr(http.server.BaseHTTPRequestHandler, "parse_request", refuse)
        _assert_answers_like_local(served)
        with DistanceClient(served[2].url, retries=0) as client:
            assert client.health()["status"] == "ok"
